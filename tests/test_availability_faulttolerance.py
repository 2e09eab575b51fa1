"""Tests for the fault-tolerance workload and the FaultInjector fixes."""

import pytest

from repro.availability import (
    FaultInjector,
    FaultToleranceParameters,
    FaultToleranceWorkload,
)
from repro.errors import ConfigurationError
from repro.runtime.system import DistributedSystem
from repro.workload.clientserver import run_cell


class TestParameters:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(nodes=1), "two nodes"),
            (dict(clients=0), "one client"),
            (dict(servers=0), "one server"),
            (dict(policy="teleport"), "policy must be"),
            (dict(lease_duration=0.0), "lease_duration"),
            (dict(policy="migration", lease_duration=5.0), "only applies"),
            (dict(loss=1.0), "loss"),
            (dict(mttr=0.0), "mttr"),
            (dict(mean_block_calls=0.0), "mean_block_calls"),
            (dict(sim_time=0.0), "sim_time"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            FaultToleranceParameters(**kwargs).validate()


class TestWorkload:
    def test_fault_free_cell_runs_every_policy(self):
        durations = {}
        for policy in ("sedentary", "migration", "placement"):
            result = run_cell(
                FaultToleranceParameters(policy=policy, sim_time=600.0)
            )
            assert result.completed_blocks > 0
            assert result.mean_call_duration > 0.0
            assert result.throughput > 0.0
            # No faults configured: none of the machinery fired.
            assert result.failed_calls == 0
            assert result.retries == 0
            assert result.migrations_aborted == 0
            assert result.node_failures == 0
            durations[policy] = result.mean_call_duration
        # The paper's fault-free ordering survives in miniature.
        assert durations["placement"] < durations["migration"]

    def test_deterministic_given_seed(self):
        params = FaultToleranceParameters(
            policy="placement",
            lease_duration=60.0,
            mttf=150.0,
            loss=0.02,
            sim_time=500.0,
            seed=11,
        )
        a = run_cell(params)
        b = run_cell(params)
        assert a.mean_call_duration == b.mean_call_duration
        assert a.completed_blocks == b.completed_blocks
        assert a.retries == b.retries

    def test_crashes_leak_locks_and_leases_reclaim_them(self):
        base = dict(policy="placement", mttf=100.0, sim_time=2_000.0)
        unleased = run_cell(FaultToleranceParameters(**base))
        leased = run_cell(
            FaultToleranceParameters(lease_duration=60.0, **base)
        )
        # Both regimes saw crashes and abandoned blocks...
        assert unleased.abandoned_blocks > 0
        assert leased.abandoned_blocks > 0
        # ...but only the leased manager ever reclaims anything.
        assert unleased.locks_expired == unleased.locks_broken == 0
        assert leased.locks_expired + leased.locks_broken > 0

    def test_loss_engages_retry_machinery(self):
        result = run_cell(
            FaultToleranceParameters(
                policy="placement",
                lease_duration=60.0,
                loss=0.05,
                sim_time=1_000.0,
            )
        )
        assert result.retries > 0
        assert result.raw["dropped_messages"] > 0
        # Retries keep actual call failures rare.
        assert result.failed_calls <= result.raw["calls"] * 0.01

    def test_workload_start_is_idempotent(self):
        workload = FaultToleranceWorkload(
            FaultToleranceParameters(sim_time=100.0)
        )
        workload.start()
        workload.start()
        result = workload.run()
        assert result.params.clients == 6


class TestFaultInjectorLateNodes:
    def test_late_added_node_does_not_keyerror(self):
        # Regression: nodes added after the injector was built used to
        # KeyError in availability_of()/recovered().
        system = DistributedSystem(nodes=2, seed=0)
        injector = FaultInjector(system)
        late = system.add_node()
        assert injector.availability_of(late.node_id) == 1.0
        assert injector.recovered(late.node_id) is not None

    def test_restart_picks_up_new_nodes(self):
        system = DistributedSystem(nodes=2, seed=0, migration_duration=0.0)
        injector = FaultInjector(system, mttf=10.0, mttr=5.0)
        injector.start()
        late = system.add_node()
        injector.start()  # idempotent for old nodes, starts the new one
        system.run(until=200.0)
        # The late node's life process really runs: it has failed by now.
        assert injector.availability_of(late.node_id) < 1.0

    def test_injector_wires_itself_as_health_provider(self):
        system = DistributedSystem(nodes=2, seed=0)
        injector = FaultInjector(system)
        assert system.migrations.health is injector


class TestPoliciesOnAFaultySystem:
    """The paper's central comparison with the fault layer on.

    Crash cells average three seeds: one run's outcome depends on how
    many crashed movers happened to hold locks, which is exactly the
    mechanism under study.  (mttf 150, mttr 50: ~25 % downtime a node.)
    """

    def crash_cell(self, policy, lease_duration=None):
        results = [
            run_cell(
                FaultToleranceParameters(
                    policy=policy,
                    lease_duration=lease_duration,
                    mttf=150.0,
                    mttr=50.0,
                    seed=seed,
                )
            )
            for seed in (0, 1, 2)
        ]
        return {
            "duration": sum(r.mean_call_duration for r in results) / 3,
            "throughput": sum(r.throughput for r in results) / 3,
            "reclaimed": sum(
                r.locks_expired + r.locks_broken for r in results
            ),
        }

    def test_leases_rescue_the_place_policy_under_crashes(self):
        leased = self.crash_cell("placement", lease_duration=60.0)
        unleased = self.crash_cell("placement")
        sedentary = self.crash_cell("sedentary")
        # Leaked locks starve the plain place-policy; leases reclaim them.
        assert leased["reclaimed"] > 0
        assert leased["duration"] < unleased["duration"]
        assert leased["throughput"] > unleased["throughput"]
        # With leases, migration still pays off while nodes crash.
        assert leased["duration"] < sedentary["duration"]
        assert leased["throughput"] > sedentary["throughput"]

    def test_retries_bound_latency_under_loss(self):
        base, worst = (
            run_cell(
                FaultToleranceParameters(
                    policy="placement", lease_duration=60.0, loss=loss, seed=0
                )
            )
            for loss in (0.0, 0.05)
        )
        assert worst.retries > 0
        # At 5 % loss the mean call stays within 2x of the loss-free run,
        # with essentially no call failing outright (< 0.1 %).
        assert worst.mean_call_duration < 2.0 * base.mean_call_duration
        assert worst.failed_calls <= max(1, worst.raw["calls"] // 1000)

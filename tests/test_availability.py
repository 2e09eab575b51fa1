"""Tests for fault injection and the availability study (§2.2)."""

import pytest

from repro.availability import (
    AvailabilityParameters,
    AvailabilityWorkload,
    FaultInjector,
)
from repro.errors import ConfigurationError
from repro.network.latency import DeterministicLatency
from repro.runtime.system import DistributedSystem
from repro.sim.stopping import StoppingConfig
from repro.workload.clientserver import run_cell

TINY = StoppingConfig(
    relative_precision=0.2,
    confidence=0.9,
    batch_size=50,
    warmup=50,
    min_batches=3,
    max_observations=3_000,
)


class TestFaultInjector:
    def test_parameter_validation(self):
        system = DistributedSystem(nodes=2)
        with pytest.raises(ValueError):
            FaultInjector(system, mttf=-1)
        with pytest.raises(ValueError):
            FaultInjector(system, mttr=-1)

    def test_mttf_zero_means_scripted_only(self):
        # mttf=0 builds a valid injector that never crashes nodes on
        # its own — chaos campaigns drive it via crash()/recover().
        system = DistributedSystem(nodes=2, seed=0)
        faults = FaultInjector(system, mttf=0)
        faults.start()
        system.run(until=1_000)
        assert faults.failures == 0
        assert faults.crash(1)
        assert faults.is_down(1)
        assert faults.recover(1)
        assert not faults.is_down(1)

    def test_nodes_fail_and_recover(self):
        system = DistributedSystem(nodes=3, seed=0)
        faults = FaultInjector(system, mttf=100.0, mttr=10.0)
        faults.start()
        system.run(until=5_000)
        assert faults.failures > 0
        # Long-run availability approaches mttf/(mttf+mttr) ~ 0.909.
        for node in system.registry.nodes:
            availability = faults.availability_of(node.node_id)
            assert availability == pytest.approx(0.909, abs=0.08)

    def test_invoke_blocks_while_down(self):
        system = DistributedSystem(
            nodes=2, seed=0, latency=DeterministicLatency(1.0)
        )
        server = system.create_server(node=1)
        faults = FaultInjector(system, mttf=1e12, mttr=1e12)
        # Force node 1 down manually for a deterministic scenario.
        faults._down.add(1)

        def recover(env):
            yield env.timeout(25.0)
            faults._down.discard(1)
            faults._recovered[1].notify_all()

        def caller(env):
            result, blocked = yield from faults.invoke(0, server)
            return (env.now, blocked, result.duration)

        system.env.process(recover(system.env))
        p = system.env.process(caller(system.env))
        system.env.run()
        end, blocked, duration = p.value
        assert blocked == pytest.approx(25.0)
        assert end == pytest.approx(27.0)  # 25 blocked + round trip 2

    def test_no_faults_means_full_availability(self):
        system = DistributedSystem(nodes=2, seed=0)
        faults = FaultInjector(system, mttf=1e15, mttr=1.0)
        faults.start()
        system.run(until=10_000)
        assert faults.failures == 0
        assert faults.availability_of(0) == 1.0


class TestAvailabilityWorkload:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            AvailabilityParameters(nodes=1).validate()
        with pytest.raises(ConfigurationError):
            AvailabilityParameters(placement="ring").validate()
        with pytest.raises(ConfigurationError):
            AvailabilityParameters(group_op_fraction=1.5).validate()
        AvailabilityParameters().validate()

    def test_placements(self):
        collocated = AvailabilityWorkload(
            AvailabilityParameters(placement="collocated")
        )
        nodes = {m.node_id for m in collocated.group}
        assert len(nodes) == 1

        spread = AvailabilityWorkload(
            AvailabilityParameters(placement="spread")
        )
        nodes = {m.node_id for m in spread.group}
        assert len(nodes) == 3

    def test_cell_runs(self):
        result = run_cell(
            AvailabilityParameters(mttf=300.0, mttr=30.0, seed=1),
            stopping=TINY,
        )
        assert result.mean_op_time > 0
        assert result.failures > 0
        assert result.raw["operations"] > 0

    def test_no_fault_baseline_chains_favor_collocation(self):
        base = dict(
            faults_enabled=False, group_op_fraction=1.0, seed=2
        )
        collocated = run_cell(
            AvailabilityParameters(placement="collocated", **base),
            stopping=TINY,
        )
        spread = run_cell(
            AvailabilityParameters(placement="spread", **base),
            stopping=TINY,
        )
        # A chained group op: collocated pays ~1 round trip, spread ~3.
        assert collocated.mean_op_time < 0.6 * spread.mean_op_time

    def test_failover_favors_spread_under_failures(self):
        base = dict(
            mttf=200.0, mttr=50.0, group_op_fraction=0.0, seed=3
        )
        collocated = run_cell(
            AvailabilityParameters(placement="collocated", **base),
            stopping=TINY,
        )
        spread = run_cell(
            AvailabilityParameters(placement="spread", **base),
            stopping=TINY,
        )
        # Pure service accesses: spread fails over around single-node
        # outages; collocated cannot.
        assert spread.mean_blocked_time < collocated.mean_blocked_time
        assert spread.mean_op_time < collocated.mean_op_time

    def test_reproducible(self):
        params = AvailabilityParameters(seed=7)
        a = run_cell(params, stopping=TINY)
        b = run_cell(params, stopping=TINY)
        assert a.mean_op_time == b.mean_op_time

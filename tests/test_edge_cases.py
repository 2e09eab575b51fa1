"""Edge-case tests across modules (the long tail of behaviours)."""

import pytest

from repro.core.moveblock import MoveBlock
from repro.core.policies.placement import TransientPlacement
from repro.errors import ConfigurationError
from repro.network.latency import DeterministicLatency
from repro.network.topology import FullyConnected, Grid, Ring
from repro.runtime.system import DistributedSystem
from repro.sim.kernel import Environment, Infinity
from repro.sim.stats import RunningStats, TimeWeightedStats
from repro.workload.clientserver import ClientServerWorkload
from repro.workload.params import SimulationParameters


class TestKernelEdges:
    def test_infinity_export(self):
        assert Infinity == float("inf")

    def test_run_empty_calendar_returns_none(self, env):
        assert env.run() is None
        assert env.now == 0.0

    def test_many_same_time_events_all_fire(self, env):
        fired = []
        for i in range(500):
            env.timeout(1.0).callbacks.append(
                lambda e, i=i: fired.append(i)
            )
        env.run()
        assert fired == list(range(500))

    def test_deeply_chained_processes(self, env):
        """A 200-deep chain of processes waiting on each other."""

        def link(env, depth):
            if depth == 0:
                yield env.timeout(1)
                return 0
            value = yield env.process(link(env, depth - 1))
            return value + 1

        p = env.process(link(env, 200))
        env.run()
        assert p.value == 200

    def test_fractional_and_tiny_delays(self, env):
        times = []
        for delay in (1e-9, 0.5, 1e-12):
            env.timeout(delay).callbacks.append(
                lambda e, d=delay: times.append((env.now, d))
            )
        env.run()
        assert [d for _, d in times] == [1e-12, 1e-9, 0.5]


class TestTopologyEdges:
    def test_two_node_grid(self):
        grid = Grid(2)
        assert grid.hops(0, 1) == 1

    def test_single_node_everything(self):
        for cls in (FullyConnected, Ring, Grid):
            t = cls(1)
            assert t.hops(0, 0) == 0
            assert t.neighbors(0) == []

    def test_ring_three_nodes(self):
        ring = Ring(3)
        assert ring.diameter() == 1
        assert sorted(ring.neighbors(0)) == [1, 2]


class TestStatsEdges:
    def test_single_value_stats(self):
        s = RunningStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.min == s.max == 5.0
        assert s.variance == 0.0

    def test_time_weighted_repeated_updates_same_instant(self):
        tw = TimeWeightedStats()
        tw.update(10, now=5)
        tw.update(20, now=5)  # zero-width interval: allowed
        assert tw.mean(10) == pytest.approx((0 * 5 + 20 * 5) / 10)

    def test_extreme_magnitudes(self):
        s = RunningStats()
        for v in (1e15, 1e15 + 1, 1e15 + 2):
            s.add(v)
        assert s.mean == pytest.approx(1e15 + 1)
        assert s.variance == pytest.approx(1.0, rel=0.2)


class TestRuntimeEdges:
    def test_zero_latency_network(self):
        system = DistributedSystem(
            nodes=2, latency=DeterministicLatency(0.0)
        )
        server = system.create_server(node=1)

        def caller(env):
            result = yield from system.invocations.invoke(0, server)
            return result

        p = system.env.process(caller(system.env))
        system.env.run()
        # Zero-latency remote messages still count as remote but the
        # call is instantaneous.
        assert p.value.duration == 0.0
        assert system.network.remote_messages == 2

    def test_many_objects_one_node(self):
        system = DistributedSystem(nodes=1)
        objs = [system.create_server(node=0) for _ in range(200)]
        assert system.registry.node(0).population == 200
        system.registry.check_consistency()

    def test_placement_self_conflict_two_blocks_same_client(self):
        """Two blocks from the same client node: second is rejected,
        exactly like a foreign conflict (locks are per-block)."""
        system = DistributedSystem(
            nodes=2, latency=DeterministicLatency(1.0)
        )
        policy = TransientPlacement(system)
        server = system.create_server(node=1)

        def proc(env):
            b1 = MoveBlock(0, server)
            yield from policy.move(b1)
            b2 = MoveBlock(0, server)
            yield from policy.move(b2)
            return b1, b2

        p = system.env.process(proc(system.env))
        system.env.run()
        b1, b2 = p.value
        assert b1.granted
        assert not b2.granted  # even though it is already local


class TestWorkloadEdges:
    def test_zero_intercall_time(self, tiny_stopping):
        params = SimulationParameters(
            mean_intercall_time=0.0, policy="placement", seed=0
        )
        workload = ClientServerWorkload(params, stopping=tiny_stopping)
        result = workload.run()
        assert result.mean_communication_time_per_call >= 0.0

    def test_zero_interblock_time_is_max_concurrency(self, tiny_stopping):
        params = SimulationParameters(
            mean_interblock_time=0.0, policy="placement", seed=0
        )
        result = ClientServerWorkload(params, stopping=tiny_stopping).run()
        assert result.raw["metrics"]["blocks"] > 0

    def test_single_node_system_all_local(self, tiny_stopping):
        params = SimulationParameters(
            nodes=1, clients=2, servers_layer1=2, policy="sedentary", seed=0
        )
        result = ClientServerWorkload(params, stopping=tiny_stopping).run()
        assert result.mean_communication_time_per_call == 0.0

    def test_more_clients_than_nodes(self, tiny_stopping):
        params = SimulationParameters(
            nodes=2, clients=9, policy="placement", seed=0
        )
        workload = ClientServerWorkload(params, stopping=tiny_stopping)
        assert {c.node_id for c in workload.clients} == {0, 1}
        workload.run()

    def test_runner_max_time_cap(self, tiny_stopping, monkeypatch):
        """The safety net fires if the stopping rule cannot converge."""
        monkeypatch.setattr(ClientServerWorkload, "MAX_TIME", 4_000.0)
        params = SimulationParameters(policy="sedentary", seed=0)
        workload = ClientServerWorkload(params)  # paper-tight stopping
        result = workload.run()
        assert result.simulated_time <= 4_000.0 + ClientServerWorkload.CHUNK

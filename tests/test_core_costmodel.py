"""Unit tests for the §3.2 analytic cost model."""

import pytest

from repro.core.costmodel import (
    CostParameters,
    cost_conventional_worst_case,
    cost_no_migration,
    cost_placement_concurrent,
    migration_break_even_clients,
    placement_advantage,
)
from repro.core.moveblock import MoveBlock
from repro.core.policies.conventional import ConventionalMigration
from repro.core.policies.placement import TransientPlacement
from repro.network.latency import DeterministicLatency
from repro.runtime.system import DistributedSystem


class TestParameters:
    def test_defaults_are_papers(self):
        p = CostParameters()
        assert p.remote_message_cost == 1.0
        assert p.migration_cost == 6.0
        assert p.calls_per_block == 8.0
        assert p.is_sensible  # N*C=8 > M=6

    def test_insensible_detected(self):
        p = CostParameters(calls_per_block=4.0)
        assert not p.is_sensible

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"remote_message_cost": -1},
            {"migration_cost": -1},
            {"calls_per_block": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CostParameters(**kwargs)


class TestPaperFormulas:
    def test_placement_formula(self):
        p = CostParameters(remote_message_cost=1, migration_cost=6,
                           calls_per_block=8)
        # M + (2N+1)*C = 6 + 17 = 23
        assert cost_placement_concurrent(p) == 23

    def test_conventional_worst_case_formula(self):
        p = CostParameters(remote_message_cost=1, migration_cost=6,
                           calls_per_block=8)
        # 2M + (2N+2)*C = 12 + 18 = 30
        assert cost_conventional_worst_case(p) == 30

    def test_advantage_is_m_plus_c(self):
        p = CostParameters(remote_message_cost=2, migration_cost=5,
                           calls_per_block=10)
        assert placement_advantage(p) == pytest.approx(5 + 2)

    def test_placement_always_cheaper_in_conflict(self):
        for m in (1, 6, 20):
            for n in (2, 8, 50):
                p = CostParameters(migration_cost=m, calls_per_block=n)
                assert cost_placement_concurrent(p) < (
                    cost_conventional_worst_case(p)
                )

    def test_no_migration_cost(self):
        p = CostParameters(calls_per_block=8)
        assert cost_no_migration(p, movers=2) == 32  # 2 * 2N * C


class TestBreakEven:
    def test_order_of_magnitude_matches_paper(self):
        p = CostParameters()  # the Fig 12 parameters
        estimate = migration_break_even_clients(p, nodes=27)
        assert 3 < estimate < 15  # paper's measured value is 6

    def test_increases_with_n_over_m(self):
        low = migration_break_even_clients(
            CostParameters(calls_per_block=8), nodes=27
        )
        high = migration_break_even_clients(
            CostParameters(calls_per_block=16), nodes=27
        )
        assert high > low

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            migration_break_even_clients(CostParameters(), nodes=1)


class TestTwoMoversSimulation:
    """The closed forms against a deterministic-latency simulation of
    exactly the Fig 4 scenario: two clients, one shared object, both
    moves issued at t = 0 (the paper's worst case), n back-to-back
    calls each."""

    @staticmethod
    def network_cost(policy_name, m=6.0, n=8):
        """Total network work spent: migrations plus remote messages."""
        system = DistributedSystem(
            nodes=3, migration_duration=m, latency=DeterministicLatency(1.0)
        )
        server = system.create_server(node=2)
        policy = (
            TransientPlacement(system)
            if policy_name == "placement"
            else ConventionalMigration(system)
        )

        def mover(client_node):
            block = MoveBlock(client_node, server)
            yield from policy.move(block)
            for _ in range(n):
                result = yield from system.invocations.invoke(
                    client_node, server
                )
                block.record_call(result.duration)
            yield from policy.end(block)

        system.env.process(mover(0))
        system.env.process(mover(1))
        system.env.run()
        return (
            system.migrations.total_transfer_time
            + system.network.total_latency
        )

    def test_simulation_realizes_the_closed_forms(self):
        params = CostParameters(
            remote_message_cost=1.0, migration_cost=6.0, calls_per_block=8.0
        )
        placement = self.network_cost("placement")
        conventional = self.network_cost("migration")
        # Within one message cost of the analytic model (the paper's
        # own arithmetic is loose by one message)...
        assert placement == pytest.approx(
            cost_placement_concurrent(params), abs=2.0
        )
        assert conventional == pytest.approx(
            cost_conventional_worst_case(params), abs=2.0
        )
        # ...and the ordering claim is strict.
        assert placement < conventional

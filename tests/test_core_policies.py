"""Behavioral tests for the five migration policies.

All scenarios use deterministic unit message latency and M = 6, so
every timing assertion is exact.
"""

import pytest

from repro.core.attachment import AttachmentManager, AttachmentMode
from repro.core.moveblock import MoveBlock
from repro.core.policies.comparing import ComparingNodes
from repro.core.policies.conventional import ConventionalMigration
from repro.core.policies.placement import TransientPlacement
from repro.core.policies.reinstantiation import ComparingReinstantiation
from repro.core.policies.registry import POLICIES, make_policy
from repro.core.policies.sedentary import SedentaryPolicy
from repro.experiments.figures import FIG14_BASE
from repro.network.latency import DeterministicLatency
from repro.runtime.system import DistributedSystem
from repro.sim.trace import Tracer
from repro.workload.clientserver import ClientServerWorkload


@pytest.fixture
def system():
    return DistributedSystem(
        nodes=4,
        seed=0,
        migration_duration=6.0,
        latency=DeterministicLatency(1.0),
        tracer=Tracer(),
    )


def do_move(system, policy, block):
    """Run a single move request to completion; returns the block."""

    def proc(env):
        yield from policy.move(block)

    system.env.process(proc(system.env))
    system.env.run()
    return block


def do_end(system, policy, block):
    def proc(env):
        yield from policy.end(block)

    system.env.process(proc(system.env))
    system.env.run()
    return block


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(POLICIES) == {
            "sedentary",
            "migration",
            "placement",
            "comparing",
            "reinstantiation",
        }

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_make_policy(self, system, name):
        policy = make_policy(name, system)
        assert policy.name == name

    def test_unknown_policy(self, system):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("teleport", system)


class TestSedentary:
    def test_move_is_free_noop(self, system):
        policy = SedentaryPolicy(system)
        server = system.create_server(node=2)
        block = do_move(system, policy, MoveBlock(0, server))
        assert system.env.now == 0.0
        assert not block.granted
        assert block.migration_cost == 0.0
        assert server.node_id == 2
        assert system.network.remote_messages == 0

    def test_end_is_free(self, system):
        policy = SedentaryPolicy(system)
        server = system.create_server(node=2)
        block = do_move(system, policy, MoveBlock(0, server))
        do_end(system, policy, block)
        assert block.ended
        assert system.env.now == 0.0


class TestConventional:
    def test_move_migrates_to_client(self, system):
        policy = ConventionalMigration(system)
        server = system.create_server(node=2)
        block = do_move(system, policy, MoveBlock(0, server))
        assert block.granted
        assert server.node_id == 0
        # 1 (request message) + 6 (transfer).
        assert block.migration_cost == pytest.approx(7.0)
        assert policy.moves_granted == 1

    def test_local_move_costs_nothing(self, system):
        policy = ConventionalMigration(system)
        server = system.create_server(node=0)
        block = do_move(system, policy, MoveBlock(0, server))
        assert block.granted
        assert block.migration_cost == 0.0
        assert server.migration_count == 0

    def test_concurrent_move_steals(self, system):
        policy = ConventionalMigration(system)
        server = system.create_server(node=3)
        order = []

        def mover(env, client_node, delay):
            yield env.timeout(delay)
            block = MoveBlock(client_node, server)
            yield from policy.move(block)
            order.append((env.now, client_node, server.node_id))

        system.env.process(mover(system.env, 0, 0))
        system.env.process(mover(system.env, 1, 1))
        system.env.run()
        # First mover: request 0->3 (1) + M (6) => t=7, object at 0.
        # Thief: starts t=1, request arrives t=2 while in transit; waits
        # until t=7, then transfers 6 more => t=13, object at 1.
        assert order == [(7.0, 0, 0), (13.0, 1, 1)]
        assert server.migration_count == 2

    def test_move_with_attachments_drags_closure(self, system):
        attachments = AttachmentManager()
        policy = ConventionalMigration(system, attachments)
        s = system.create_server(node=1)
        w1 = system.create_server(node=2)
        w2 = system.create_server(node=3)
        attachments.attach(w1, s)
        attachments.attach(w2, w1)  # transitively reachable
        block = do_move(system, policy, MoveBlock(0, s))
        assert block.moved_objects == 3
        assert {o.node_id for o in (s, w1, w2)} == {0}

    def test_end_releases_nothing(self, system):
        policy = ConventionalMigration(system)
        server = system.create_server(node=1)
        block = do_move(system, policy, MoveBlock(0, server))
        do_end(system, policy, block)
        assert server.node_id == 0  # object stays at the mover


class TestPlacement:
    def test_first_move_granted_and_locked(self, system):
        policy = TransientPlacement(system)
        server = system.create_server(node=2)
        block = do_move(system, policy, MoveBlock(0, server))
        assert block.granted
        assert server.node_id == 0
        assert server.lock_holder is block
        assert block.migration_cost == pytest.approx(7.0)

    def test_conflicting_move_rejected(self, system):
        policy = TransientPlacement(system)
        server = system.create_server(node=2)
        winner = do_move(system, policy, MoveBlock(0, server))
        loser = do_move(system, policy, MoveBlock(1, server))
        assert not loser.granted
        assert server.node_id == 0  # stayed with the winner
        assert server.migration_count == 1
        # Loser paid only the request message.
        assert loser.migration_cost == pytest.approx(1.0)
        assert policy.moves_rejected == 1
        assert system.tracer.count("move.rejected") == 1

    def test_end_unlocks_and_allows_next_move(self, system):
        policy = TransientPlacement(system)
        server = system.create_server(node=2)
        winner = do_move(system, policy, MoveBlock(0, server))
        do_end(system, policy, winner)
        assert server.lock_holder is None
        nxt = do_move(system, policy, MoveBlock(1, server))
        assert nxt.granted
        assert server.node_id == 1

    def test_rejected_end_is_ignored(self, system):
        policy = TransientPlacement(system)
        server = system.create_server(node=2)
        winner = do_move(system, policy, MoveBlock(0, server))
        loser = do_move(system, policy, MoveBlock(1, server))
        do_end(system, policy, loser)  # "simply ignored"
        assert server.lock_holder is winner

    def test_no_extra_remote_operations(self, system):
        """§3.2's key property: placement never sends more remote
        messages than conventional migration for the same requests."""
        server = system.create_server(node=2)
        policy = TransientPlacement(system)
        winner = do_move(system, policy, MoveBlock(0, server))
        before = system.network.remote_messages
        loser = do_move(system, policy, MoveBlock(1, server))
        # Exactly one extra remote message: the loser's move request.
        assert system.network.remote_messages == before + 1
        do_end(system, policy, winner)
        do_end(system, policy, loser)
        # end-requests are local: no new remote messages.
        assert system.network.remote_messages == before + 1

    def test_locked_members_not_stolen(self, system):
        """§4.4: conflicting moves migrate neither the requested object
        nor the objects attached to it."""
        attachments = AttachmentManager(AttachmentMode.A_TRANSITIVE)
        policy = TransientPlacement(system, attachments)
        s1 = system.create_server(node=1)
        s2 = system.create_server(node=2)
        shared = system.create_server(node=3)
        attachments.attach(shared, s1, context=1)
        attachments.attach(shared, s2, context=2)

        class FakeAlliance:
            def __init__(self, alliance_id):
                self.alliance_id = alliance_id

        b1 = MoveBlock(0, s1, alliance=FakeAlliance(1))
        do_move(system, policy, b1)
        assert shared.lock_holder is b1

        b2 = MoveBlock(1, s2, alliance=FakeAlliance(2))
        do_move(system, policy, b2)
        assert b2.granted  # s2 itself was free
        assert s2.node_id == 1
        assert shared.node_id == 0  # held by b1: skipped, not stolen
        assert b2.moved_objects == 1


class TestComparing:
    def test_single_request_granted_like_placement(self, system):
        policy = ComparingNodes(system)
        server = system.create_server(node=2)
        block = do_move(system, policy, MoveBlock(0, server))
        assert block.granted
        assert server.node_id == 0
        assert policy.open_requests(server) == {0: 1}

    def test_locked_object_rejected(self, system):
        policy = ComparingNodes(system)
        server = system.create_server(node=2)
        do_move(system, policy, MoveBlock(0, server))
        loser = do_move(system, policy, MoveBlock(1, server))
        assert not loser.granted
        assert server.node_id == 0

    def test_minority_requester_refused_on_free_object(self, system):
        policy = ComparingNodes(system)
        server = system.create_server(node=2)
        # Two open (rejected) requests pile up at node 1.
        w = do_move(system, policy, MoveBlock(0, server))
        do_move(system, policy, MoveBlock(1, server))
        do_move(system, policy, MoveBlock(1, server))
        do_end(system, policy, w)  # object free at node 0
        # A single new request from node 3 is a minority (1 < 2 at node 1).
        minority = do_move(system, policy, MoveBlock(3, server))
        assert not minority.granted
        assert server.node_id == 0

    def test_plurality_requester_granted_on_free_object(self, system):
        policy = ComparingNodes(system)
        server = system.create_server(node=2)
        w = do_move(system, policy, MoveBlock(0, server))
        do_end(system, policy, w)
        b1 = do_move(system, policy, MoveBlock(1, server))  # 1 vs 0 open
        assert b1.granted
        assert server.node_id == 1

    def test_end_decrements_counts(self, system):
        policy = ComparingNodes(system)
        server = system.create_server(node=2)
        block = do_move(system, policy, MoveBlock(0, server))
        assert policy.open_requests(server) == {0: 1}
        do_end(system, policy, block)
        assert policy.open_requests(server) == {}


class TestReinstantiation:
    def test_margin_validation(self, system):
        with pytest.raises(ValueError):
            ComparingReinstantiation(system, majority_margin=0)

    def test_end_migrates_to_clear_majority(self, system):
        policy = ComparingReinstantiation(system, majority_margin=3)
        server = system.create_server(node=2)
        winner = do_move(system, policy, MoveBlock(0, server))
        losers = [do_move(system, policy, MoveBlock(1, server)) for _ in range(3)]
        assert server.node_id == 0
        # Node 1 now holds 3 open requests vs 0 at node 0 after end.
        do_end(system, policy, winner)
        assert server.node_id == 1  # reinstantiated at the majority node
        assert policy.system_migrations == 1
        assert policy.system_migration_cost == pytest.approx(6.0)

    def test_no_migration_below_margin(self, system):
        policy = ComparingReinstantiation(system, majority_margin=3)
        server = system.create_server(node=2)
        winner = do_move(system, policy, MoveBlock(0, server))
        do_move(system, policy, MoveBlock(1, server))
        do_move(system, policy, MoveBlock(1, server))
        do_end(system, policy, winner)  # 2 < margin 3
        assert server.node_id == 0
        assert policy.system_migrations == 0

    def test_stats_surface_system_migrations(self, system):
        policy = ComparingReinstantiation(system, majority_margin=1)
        server = system.create_server(node=2)
        winner = do_move(system, policy, MoveBlock(0, server))
        do_move(system, policy, MoveBlock(1, server))
        do_end(system, policy, winner)
        stats = policy.stats()
        assert stats["system_migrations"] == 1
        assert stats["policy"] == "reinstantiation"


def test_reinstantiation_margin_calibration(bench_stopping):
    """§4.3 leaves "clear majority" unquantified.  On a Fig 14 cell at
    C = 20, a margin of 1 re-migrates so eagerly that transit blocking
    erases the benefit, and the default margin of 3 lands near the
    conservative place-policy (the paper's "minor gains" regime)."""
    stop = bench_stopping(20_000)

    def run(policy, margin=None):
        workload = ClientServerWorkload(
            FIG14_BASE.with_overrides(policy=policy, clients=20, seed=0),
            stopping=stop,
        )
        if margin is not None:
            workload.policy.majority_margin = margin
        return workload.run().mean_communication_time_per_call

    placement = run("placement")
    by_margin = {m: run("reinstantiation", m) for m in (1, 3, 5)}
    assert by_margin[1] >= max(by_margin[3], by_margin[5]) * 0.95
    assert by_margin[3] == pytest.approx(placement, rel=0.25)

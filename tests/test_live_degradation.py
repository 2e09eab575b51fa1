"""Graceful degradation under live-transport conditions (satellite 3).

Two families of guarantees:

1. **False suspicion must be harmless.**  A phi-accrual detector fed
   wall-clock heartbeat intervals with delay spikes (GC pauses, loaded
   event loops) must not declare a live node down — and therefore the
   supervisor must not break a healthy in-flight migration's leases.
2. **True crash recovery must hold the lock invariants** from
   ``tests/test_core_lock_races.py``, now on a wall clock: after
   ``break_crashed`` the dead mover's block is barred forever, its
   late ``PLACE`` is fenced out, and fresh movers proceed.
"""

import pytest

from repro.core.locking import LockManager
from repro.core.moveblock import MoveBlock
from repro.errors import PolicyError
from repro.runtime.clock import WallClock
from repro.runtime.failure import HeartbeatHistory
from repro.runtime.live import wal as wal_module
from repro.runtime.live.arbiter import Down
from repro.runtime.live.node import LiveObject
from repro.runtime.live.supervisor import NodeSupervisor, SupervisorConfig
from repro.runtime.live.wire import RESTORE


class TestPhiUnderDelaySpikes:
    """The detector's verdict on realistic wall-clock interval traces."""

    def feed(self, history, intervals, start=0.0):
        now = start
        history.ensure(1, now)
        for gap in intervals:
            now += gap
            history.record(1, now)
        return now

    def test_steady_heartbeats_keep_phi_low(self):
        history = HeartbeatHistory(interval=0.1, phi_threshold=8.0)
        now = self.feed(history, [0.1] * 50)
        assert history.phi(1, now + 0.1) < 8.0
        assert not history.is_down(1, now + 0.1)

    def test_delay_spike_does_not_trigger_false_suspicion(self):
        """A 3x delay spike (loaded loop, GC pause) stays below phi=8.

        This is the property that keeps the supervisor from aborting a
        healthy in-flight migration: the mover is slow, not dead.
        """
        history = HeartbeatHistory(interval=0.1, phi_threshold=8.0)
        now = self.feed(history, [0.1] * 30)
        # The spike: next heartbeat takes 0.3s instead of 0.1s.
        assert not history.is_down(1, now + 0.3)
        assert history.phi(1, now + 0.3) < 8.0
        # After the spike lands, confidence recovers immediately.
        history.record(1, now + 0.3)
        assert not history.is_down(1, now + 0.4)

    def test_true_silence_is_eventually_suspected(self):
        history = HeartbeatHistory(interval=0.1, phi_threshold=8.0)
        now = self.feed(history, [0.1] * 30)
        assert history.is_down(1, now + 5.0), "real death must be detected"

    def test_jittery_trace_with_spikes_never_crosses_threshold(self):
        history = HeartbeatHistory(interval=0.1, phi_threshold=8.0)
        trace = ([0.08, 0.12, 0.1, 0.11, 0.09] * 6) + [0.25, 0.1, 0.3, 0.1]
        now = self.feed(history, trace)
        for probe in (0.05, 0.15, 0.25):
            assert not history.is_down(1, now + probe), (
                f"false suspicion at +{probe}s over a jittery live trace"
            )


class TestFalseSuspicionSparesHealthyMigration:
    """break_crashed with a healthy verdict must not touch live blocks."""

    class Health:
        def __init__(self, down=()):
            self.down = set(down)

        def is_down(self, node_id):
            return node_id in self.down

    def test_no_suspicion_no_breakage(self):
        locks = LockManager(clock=WallClock(), lease_duration=60.0)
        obj = LiveObject(7)
        block = MoveBlock(client_node=1, target=obj)
        locks.lock(obj, block)
        assert locks.break_crashed(self.Health(down=())) == 0
        assert locks.is_locked(obj), "healthy mover keeps its lock"
        assert not locks.was_broken(block)
        locks.check_invariant()

    def test_suspicion_of_another_node_spares_the_mover(self):
        locks = LockManager(clock=WallClock(), lease_duration=60.0)
        obj = LiveObject(7)
        block = MoveBlock(client_node=1, target=obj)
        locks.lock(obj, block)
        assert locks.break_crashed(self.Health(down={3})) == 0
        assert locks.is_locked(obj)
        locks.check_invariant()


class TestRestartLeaseRecovery:
    """Supervisor crash recovery against the real LockManager, driven
    through the arbiter's decisions (no sockets)."""

    def make_supervisor(self):
        config = SupervisorConfig(num_nodes=3, num_objects=8, wal_fsync=False)
        return NodeSupervisor(config)

    def grant(self, supervisor, mover, object_id):
        """Ask the supervisor's arbiter; return the grant reply."""
        reply, verdicts = supervisor.arbiter.grant(mover, object_id)
        assert verdicts == []
        return reply

    def test_break_crashed_recovers_lease_and_bars_block(self):
        supervisor = self.make_supervisor()
        arbiter = supervisor.arbiter
        grant = self.grant(supervisor, mover=2, object_id=0)
        assert grant["granted"]
        block = arbiter.blocks[grant["block_id"]]
        record = arbiter.records[0]
        assert arbiter.locks.is_locked(record)

        # Node 2 crashes: the monitor's recovery path, minus sockets.
        reply, _ = arbiter.break_node(2)
        assert reply["broken"] == 1
        assert not arbiter.locks.is_locked(record)
        assert arbiter.locks.was_broken(block)
        arbiter.locks.check_invariant()

        # The same-tick renewal race from test_core_lock_races: the
        # dead mover's block can never re-acquire.
        with pytest.raises(PolicyError):
            arbiter.locks.lock(record, block)

        # A fresh mover proceeds immediately — degradation, not outage.
        fresh = self.grant(supervisor, mover=3, object_id=0)
        assert fresh["granted"]

    def test_zombie_place_is_fenced_after_break(self):
        """A crash-suspected mover's late PLACE must not commit."""
        supervisor = self.make_supervisor()
        arbiter = supervisor.arbiter
        grant = self.grant(supervisor, mover=2, object_id=0)
        transfer_id = grant["transfer_id"]
        assert transfer_id is not None
        source = grant["source"]

        # Only the lease breaks; the transfer itself is left pending,
        # so the block fence alone must stop the commit.
        arbiter.locks.break_crashed(Down(2))

        # The zombie's PLACE arrives after the break.
        payload, verdicts = arbiter.place(2, transfer_id)
        assert payload == {"ok": False}, "fence must reject the zombie"
        assert verdicts == []
        assert supervisor.placement[0] == source, "placement unmoved"

    def test_crashed_destination_rolls_back_pending_transfer(self):
        supervisor = self.make_supervisor()
        arbiter = supervisor.arbiter
        grant = self.grant(supervisor, mover=2, object_id=0)
        transfer = arbiter.transfers[grant["transfer_id"]]
        assert transfer.state == "pending"

        _, verdicts = arbiter.break_node(2)

        assert transfer.state == "rolled_back"
        assert supervisor.placement[0] == transfer.src
        arbiter.locks.check_invariant()
        # The source is told to restore its held-back copy.
        assert verdicts == [
            (
                transfer.src,
                RESTORE,
                {"transfer_id": transfer.transfer_id, "object_id": 0},
                None,
            )
        ]

        # A dead *source* fails its transfer, and the journal says so.
        grant = self.grant(supervisor, mover=3, object_id=0)
        _, verdicts = arbiter.break_node(1)
        assert verdicts == []
        assert arbiter.transfers[grant["transfer_id"]].state == "failed"
        _, records = wal_module.replay(supervisor.wal_path)
        supervisor.wal.close()
        assert (wal_module.FAILED, {"transfer_id": grant["transfer_id"]}) in [
            (r.kind, r.data) for r in records
        ]


class TestTransferFence:
    def test_place_requires_pending_state_and_matching_dst(self):
        supervisor = TestRestartLeaseRecovery().make_supervisor()
        arbiter = supervisor.arbiter
        # Object 2 is seeded at node 3 (round-robin), so mover 2's
        # grant creates a real transfer.
        grant = TestRestartLeaseRecovery().grant(
            supervisor, mover=2, object_id=2
        )
        transfer_id = grant["transfer_id"]
        assert transfer_id is not None

        # Wrong claimant: node 3 cannot commit node 2's transfer.
        payload, _ = arbiter.place(3, transfer_id)
        assert payload == {"ok": False}

        # Rightful claimant commits exactly once.
        payload, _ = arbiter.place(2, transfer_id)
        assert payload == {"ok": True}
        assert supervisor.placement[2] == 2

        # Replayed commit after a rollback attempt: both fenced.
        payload, _ = arbiter.rollback(transfer_id)
        assert payload == {"ok": False}, "rollback after commit is void"

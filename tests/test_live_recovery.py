"""Supervisor crash recovery: WAL replay, in-doubt settlement, chaos.

The pure pieces run without any processes: a hand-written WAL is
replayed into a fresh :class:`NodeSupervisor` (``recover=True``) and
the three-verdict settlement plan — *rollback* a transfer whose PLACE
was never logged, *commit* one whose PLACE is logged and whose
destination inventory confirms delivery, *revert* one whose logged
PLACE never reached the destination — is checked decision-by-decision
and then executed, asserting the journaled records, restored
placements and settlement notices.

The settlement regressions run supervisor and workers in memory on a
stub network that loses chosen messages: a verdict (EVICT, RESTORE,
PLACE_NOTICE) is retried until acknowledged, dropped only when its
holder's incarnation is dead, and a copy stranded at drain is a named
audit violation, not a silent repair.

The end-to-end smoke then SIGKILLs a real arbiter mid-migration
(:class:`KillSupervisor`) under both arbitration modes and asserts the
acceptance criteria: recovery happened, migrations continued, zero
inventory-audit violations.
"""

import asyncio
import itertools
import multiprocessing
import os
import signal
import time

import pytest

from repro.availability.livechaos import (
    KillSupervisor,
    LiveChaosSchedule,
    LiveCrash,
    LivePartition,
    kill_supervisor_schedule,
)
from repro.errors import ConnectionLostError, TimeoutError
from repro.runtime.live import wal as wal_module
from repro.runtime.live.demo import run_supervised
from repro.runtime.live.supervisor import NodeSupervisor, SupervisorConfig
from repro.runtime.live.node import LiveNodeWorker
from repro.runtime.live.wal import ArbitrationWal
from repro.runtime.live.wire import (
    EVICT,
    HOME_ASSIGN,
    MOVE_REQUEST,
    PLACE,
    PLACE_NOTICE,
    RESTORE,
    SUPERVISOR,
    Envelope,
)

#: Hard ceiling for one full multi-process kill-and-recover scenario.
SMOKE_TIMEOUT = 150


def write_crash_wal(path):
    """The journal a SIGKILLed arbiter leaves behind, hand-written.

    Six objects on workers 1..3 (``oid % 3``), three transfers caught
    mid-flight: t1 granted but never placed, t2 and t3 placed but with
    the commit's delivery unknown.
    """
    with ArbitrationWal(path, fsync=False) as wal:
        wal.append(
            wal_module.INIT,
            {
                "num_objects": 6,
                "arbitration": "central",
                "workers": [1, 2, 3],
                "placement": {str(oid): 1 + oid % 3 for oid in range(6)},
            },
        )
        wal.append(wal_module.SUPER_START, {})
        wal.append(
            wal_module.GRANT,
            {
                "block_id": 1,
                "object_id": 0,
                "mover": 2,
                "source": 1,
                "transfer_id": 1,
            },
        )
        wal.append(
            wal_module.GRANT,
            {
                "block_id": 2,
                "object_id": 1,
                "mover": 3,
                "source": 2,
                "transfer_id": 2,
            },
        )
        wal.append(wal_module.PLACE, {"transfer_id": 2})
        wal.append(
            wal_module.GRANT,
            {
                "block_id": 3,
                "object_id": 2,
                "mover": 1,
                "source": 3,
                "transfer_id": 3,
            },
        )
        wal.append(wal_module.PLACE, {"transfer_id": 3})


@pytest.fixture
def recovered(tmp_path):
    """A supervisor rebuilt from the hand-written crash journal."""
    wal_path = str(tmp_path / "arbitration.wal")
    write_crash_wal(wal_path)
    config = SupervisorConfig(
        num_nodes=3,
        num_objects=6,
        socket_dir=str(tmp_path),
        wal_path=wal_path,
        wal_fsync=False,
    )
    supervisor = NodeSupervisor(config, recover=True)
    yield supervisor
    supervisor.wal.close()


class TestWalReplayRebuild:
    def test_placement_and_fences_rebuilt(self, recovered):
        # t2's PLACE moved object 1 to node 3; t3's likewise 2 -> 1.
        assert recovered.placement[1] == 3
        assert recovered.placement[2] == 1
        assert recovered.placement[0] == 1  # t1 never placed
        assert set(recovered.transfers) == {1, 2, 3}
        assert recovered.transfers[1].state == "pending"
        assert recovered.transfers[2].state == "placed"
        assert recovered._recovered_max_transfer == 3

    def test_open_blocks_revived_with_recorded_ids(self, recovered):
        assert set(recovered.blocks) == {1, 2, 3}
        for object_id in (0, 1, 2):
            assert recovered.locks.is_locked(recovered.records[object_id])
        recovered.locks.check_invariant()

    def test_recovering_supervisor_freezes_grants(self, recovered):
        from repro.runtime.live.wire import MOVE_REQUEST, SUPERVISOR, Envelope

        assert recovered._grants_frozen is True
        replies = []

        async def capture_reply(envelope, payload):
            replies.append(payload)

        recovered.transport.reply = capture_reply
        asyncio.run(
            recovered._serve_move_request(
                Envelope(
                    kind=MOVE_REQUEST,
                    src=2,
                    dst=SUPERVISOR,
                    msg_id=(2, 1),
                    payload={"object_id": 4, "mover": 2},
                )
            )
        )
        assert replies and replies[0]["granted"] is False

    def test_super_start_counted(self, recovered):
        assert recovered.supervisor_starts == 1


class TestSettlementPlan:
    def test_three_verdicts_from_inventories(self, recovered):
        plan = dict(
            (t.transfer_id, verdict)
            for verdict, t in recovered._plan_settlement(
                {
                    1: {"inventory": [0, 3]},  # object 2 missing: revert t3
                    2: {"inventory": [4]},
                    3: {"inventory": [1, 5]},  # object 1 present: commit t2
                }
            )
        )
        assert plan == {1: "rollback", 2: "commit", 3: "revert"}

    def test_dead_destination_commits_on_wal_authority(self, recovered):
        # No inventory for node 3: its restart re-seeds from placement,
        # so the logged commit stands.
        plan = dict(
            (t.transfer_id, verdict)
            for verdict, t in recovered._plan_settlement(
                {1: {"inventory": [0, 2, 3]}}
            )
        )
        assert plan[2] == "commit"

    def test_transfers_advanced_after_replay_are_not_in_doubt(
        self, recovered
    ):
        # A live PLACE served during the recovery grace window advances
        # the transfer past its WAL-recorded state: no longer in doubt.
        recovered.transfers[1].state = "placed"
        recovered.placement[0] = 2
        plan = dict(
            (t.transfer_id, verdict)
            for verdict, t in recovered._plan_settlement(
                {2: {"inventory": [0]}}
            )
        )
        assert 1 not in plan

    def test_transfers_minted_after_recovery_are_skipped(self, recovered):
        from repro.runtime.live.supervisor import Transfer

        recovered.transfers[4] = Transfer(
            transfer_id=4, object_id=5, src=3, dst=1, block_id=9
        )
        plan = dict(
            (t.transfer_id, verdict)
            for verdict, t in recovered._plan_settlement({})
        )
        assert 4 not in plan

    def test_superseded_placement_is_left_alone(self, recovered):
        # Another settled move already took object 1 elsewhere; the
        # stale placed transfer must not drag placement backwards.
        recovered.placement[1] = 2
        plan = dict(
            (t.transfer_id, verdict)
            for verdict, t in recovered._plan_settlement(
                {3: {"inventory": []}}
            )
        )
        assert 2 not in plan


    def test_copy_held_in_transit_at_destination_commits(self, recovered):
        # Node 1 installed object 2 (t3) and was handing it on under a
        # later transfer when the arbiter died: delivered, not lost.
        plan = dict(
            (t.transfer_id, verdict)
            for verdict, t in recovered._plan_settlement(
                {
                    1: {"inventory": [0, 3], "in_transit_objects": {9: 2}},
                    3: {"inventory": [1, 5]},
                }
            )
        )
        assert plan[3] == "commit"

    def test_only_the_latest_placed_transfer_is_in_doubt(self, tmp_path):
        # Object 0 went 1 -> 2 -> 3 -> 2: the first hop also names
        # node 2 as destination but was superseded long ago.
        wal_path = str(tmp_path / "arbitration.wal")
        with ArbitrationWal(wal_path, fsync=False) as wal:
            wal.append(
                wal_module.INIT,
                {
                    "num_objects": 3,
                    "arbitration": "central",
                    "workers": [1, 2, 3],
                    "placement": {"0": 1, "1": 2, "2": 3},
                },
            )
            wal.append(wal_module.SUPER_START, {})
            for tid, (src, dst) in enumerate([(1, 2), (2, 3), (3, 2)], 1):
                wal.append(
                    wal_module.GRANT,
                    {"block_id": tid, "object_id": 0, "mover": dst,
                     "source": src, "transfer_id": tid},
                )
                wal.append(wal_module.PLACE, {"transfer_id": tid})
                wal.append(wal_module.END, {"block_id": tid})
        supervisor = NodeSupervisor(
            SupervisorConfig(num_nodes=3, num_objects=3,
                             socket_dir=str(tmp_path), wal_path=wal_path,
                             wal_fsync=False),
            recover=True,
        )
        plan = [
            (verdict, t.transfer_id)
            for verdict, t in supervisor._plan_settlement(
                {2: {"inventory": [1]}, 3: {"inventory": [2]}}
            )
        ]
        supervisor.wal.close()
        assert plan == [("revert", 3)]


class TestSettlementExecution:
    """Both the commit and the rollback path (plus revert) execute:
    journaled, counted, notified — the acceptance criterion's explicit
    'one in-doubt transfer through each path'."""

    def test_settle_in_doubt_executes_all_three_paths(self, recovered):
        notices = []
        recovered.outbox.post = (
            lambda node, kind, payload, trace=None: notices.append(
                (node, kind, payload["transfer_id"])
            )
        )
        asyncio.run(
            recovered._settle_in_doubt(
                {
                    1: {"inventory": [0, 3]},
                    2: {"inventory": [4]},
                    3: {"inventory": [1, 5]},
                }
            )
        )
        # Rollback: t1's source keeps its held-back copy.
        assert recovered.transfers[1].state == "rolled_back"
        assert (1, RESTORE, 1) in notices
        # Commit: t2's source is told (again, idempotently) to evict.
        assert recovered.transfers[2].state == "placed"
        assert (2, EVICT, 2) in notices
        # Revert: t3's placement returns to the source, copy restored.
        assert recovered.transfers[3].state == "rolled_back"
        assert recovered.placement[2] == 3
        assert (3, RESTORE, 3) in notices
        assert recovered.in_doubt_rolled_back == 1
        assert recovered.in_doubt_committed == 1
        assert recovered.in_doubt_reverted == 1
        # Settled transfers released their fences; the journal shows
        # the decisions so a *second* crash replays to the same place.
        assert 1 not in recovered.blocks and 3 not in recovered.blocks
        state, _ = wal_module.replay(recovered.wal_path)
        assert state.transfers[1].state == "rolled_back"
        assert state.transfers[3].state == "rolled_back"
        assert state.placement[2] == 3


class TestPlaceIdempotence:
    """A PLACE whose ok reply was lost may be asked again: the commit
    stands, is answered ok, and is journaled and announced once."""

    @staticmethod
    def _capture(target):
        replies = []

        async def capture_reply(envelope, payload=None):
            replies.append(payload)

        target.transport.reply = capture_reply
        return replies

    def test_central_place_retry_answers_ok_once(self, tmp_path):
        config = SupervisorConfig(
            num_nodes=3,
            num_objects=6,
            socket_dir=str(tmp_path),
            wal_fsync=False,
        )
        supervisor = NodeSupervisor(config)
        replies = self._capture(supervisor)
        notices = []
        supervisor.outbox.post = (
            lambda node, kind, payload, trace=None: notices.append(kind)
        )

        async def scenario():
            await supervisor.handle(
                Envelope(MOVE_REQUEST, 2, SUPERVISOR, (2, 1), {"object_id": 0})
            )
            tid = replies[-1]["transfer_id"]
            place = {"transfer_id": tid}
            await supervisor.handle(Envelope(PLACE, 2, SUPERVISOR, (2, 2), place))
            placement = dict(supervisor.placement)
            del replies[-1]  # the ok reply is lost on the way back
            await supervisor.handle(Envelope(PLACE, 2, SUPERVISOR, (2, 3), place))
            return placement

        placement = asyncio.run(scenario())
        supervisor.wal.close()
        assert replies[-1] == {"ok": True}
        assert supervisor.placement == placement and placement[0] == 2
        assert supervisor.commits == 1
        assert notices == [EVICT]
        _, records = wal_module.replay(supervisor.wal_path)
        assert [r.kind for r in records].count(wal_module.PLACE) == 1

    def test_home_place_retry_answers_ok_once(self):
        home = LiveNodeWorker(3, ("unix", "unused"), {}, [])
        replies = self._capture(home)
        notices = []
        home.outbox.post = (
            lambda node, kind, payload, trace=None: notices.append(kind)
        )

        async def scenario():
            await home.handle(
                Envelope(HOME_ASSIGN, SUPERVISOR, 3, (SUPERVISOR, 1),
                         {"slices": [0], "placement": {0: 1}})
            )
            home.num_slices = 3
            await home.handle(Envelope(MOVE_REQUEST, 2, 3, (2, 1), {"object_id": 0}))
            tid = replies[-1]["transfer_id"]
            await home.handle(Envelope(PLACE, 2, 3, (2, 2), {"transfer_id": tid}))
            placement = dict(home.home_placement)
            del replies[-1]
            await home.handle(Envelope(PLACE, 2, 3, (2, 3), {"transfer_id": tid}))
            return placement

        placement = asyncio.run(scenario())
        assert replies[-1] == {"ok": True}
        assert home.home_placement == placement == {0: 2}
        assert notices.count(EVICT) == 1, notices

    def test_place_notice_retry_mirrors_once(self, tmp_path):
        # A home retries its notice until acknowledged, also across an
        # arbiter restart: one WAL mirror and one commit per transfer.
        config = SupervisorConfig(
            num_nodes=3,
            num_objects=6,
            socket_dir=str(tmp_path),
            wal_fsync=False,
            arbitration="home",
        )
        notice = {"transfer_id": 1_000_001, "object_id": 0, "node": 2}

        def deliver(supervisor, seqs):
            replies = self._capture(supervisor)
            for seq in seqs:
                asyncio.run(
                    supervisor.handle(
                        Envelope(PLACE_NOTICE, 1, SUPERVISOR, (1, seq),
                                 dict(notice))
                    )
                )
            supervisor.wal.close()
            return replies

        supervisor = NodeSupervisor(config)
        assert deliver(supervisor, (1, 2)) == [{"ok": True}] * 2
        assert supervisor.commits == 1 and supervisor.placement[0] == 2
        recovered = NodeSupervisor(config, recover=True)
        assert deliver(recovered, (3,)) == [{"ok": True}]
        assert recovered.commits == 0
        _, records = wal_module.replay(supervisor.wal_path)
        assert [r.kind for r in records].count(wal_module.PLACE_MIRROR) == 1


class StubNet:
    """In-memory routing of requests between endpoints; no sockets.

    A request runs the addressee's ``handle`` and returns the reply it
    sent.  ``lose(dst, kind)`` is asked on every delivery attempt and
    returns None (delivered) or the error the sender sees instead.
    """

    def __init__(self, lose=lambda dst, kind: None):
        self.endpoints = {}
        self.lose = lose
        self.attempts = []
        self.replies = {}
        self._seq = itertools.count(1)

    def attach(self, node_id, endpoint):
        self.endpoints[node_id] = endpoint

        async def request(dst, kind, payload=None, timeout=5.0, trace=None):
            self.attempts.append((dst, kind))
            error = self.lose(dst, kind)
            if error is not None:
                raise error
            envelope = Envelope(
                kind, node_id, dst, (node_id, next(self._seq)),
                dict(payload or {}), trace=trace,
            )
            await self.endpoints[dst].handle(envelope)
            return Envelope(
                "reply", dst, node_id, (dst, next(self._seq)),
                self.replies.pop(envelope.msg_id), reply_to=envelope.msg_id,
            )

        async def reply(request, payload=None):
            self.replies[request.msg_id] = payload

        endpoint.transport.request = request
        endpoint.transport.reply = reply


def lose_first(kind, count=1):
    """A loss schedule: the first ``count`` deliveries of ``kind`` time out."""
    lost = []

    def lose(dst, sent_kind):
        if sent_kind == kind and len(lost) < count:
            lost.append(dst)
            return TimeoutError(f"{kind!r} to node {dst} lost")
        return None

    return lose


def fleet(tmp_path, arbitration, lose, drain_timeout=10.0):
    """A supervisor and three in-memory workers on one :class:`StubNet`."""
    config = SupervisorConfig(
        num_nodes=3,
        num_objects=6,
        socket_dir=str(tmp_path),
        wal_fsync=False,
        arbitration=arbitration,
        drain_timeout=drain_timeout,
    )
    supervisor = NodeSupervisor(config)
    net = StubNet(lose)
    net.attach(SUPERVISOR, supervisor)
    workers = {}
    for node in supervisor.worker_ids:
        workers[node] = LiveNodeWorker(
            node, ("unix", "unused"), {}, supervisor._seed_states(node),
            arbitration=arbitration, num_slices=3,
        )
        net.attach(node, workers[node])
    return supervisor, workers, net


class TestAcknowledgedSettlement:
    """Every verdict is acknowledged or provably moot; the drain audit
    sees the fleet exactly as the settlement left it.  Objects 0..5
    start at node ``1 + oid % 3``, which is also each object's home."""

    def test_lost_first_evict_still_evicts(self, tmp_path):
        supervisor, workers, net = fleet(tmp_path, "home", lose_first(EVICT))

        async def scenario():
            await supervisor._assign_homes()
            await workers[2]._move_block(0, 1)
            await supervisor._settle_homes()

        asyncio.run(scenario())
        assert workers[2].stats.migrations == 1
        assert net.attempts.count((1, EVICT)) == 2
        assert workers[1].in_transit == {} and 0 not in workers[1].objects
        assert asyncio.run(supervisor._settle_and_audit()) == ([], 0)
        supervisor.wal.close()

    def test_lost_home_band_restore_still_restores(self, tmp_path):
        # The mover's PLACE is lost, so it rolls back at the home; the
        # home's first RESTORE to the source is lost too.
        lose_place = lose_first(PLACE)
        lose_restore = lose_first(RESTORE)
        supervisor, workers, net = fleet(
            tmp_path, "home",
            lambda dst, kind: lose_place(dst, kind) or lose_restore(dst, kind),
        )

        async def scenario():
            await supervisor._assign_homes()
            await workers[3]._move_block(0, 1)
            await supervisor._settle_homes()

        asyncio.run(scenario())
        assert workers[3].stats.aborted == 1
        assert net.attempts.count((1, RESTORE)) == 2
        assert workers[1].in_transit == {} and 0 in workers[1].objects
        assert asyncio.run(supervisor._settle_and_audit()) == ([], 0)
        supervisor.wal.close()

    def test_verdict_for_respawned_holder_is_dropped_at_once(self, tmp_path):
        # Node 1 dies holding the copy of a rolled-back transfer; its
        # RESTORE can never land, and the respawn makes it moot.
        dead = set()

        def lose(dst, kind):
            if kind == PLACE and not dead:
                dead.add(1)
                return TimeoutError("PLACE lost")
            if dst in dead:
                return ConnectionLostError(f"node {dst} is down", peer=dst)
            return None

        supervisor, workers, net = fleet(
            tmp_path, "central", lose, drain_timeout=3.0
        )

        async def no_op(*args, **kwargs):
            return None

        supervisor._spawn = lambda node: None
        supervisor._kill_worker = lambda node, sig=None: True
        supervisor._wait_for_heartbeat = no_op
        supervisor._start_workload = no_op

        async def scenario():
            await workers[2]._move_block(0, 1)
            await asyncio.sleep(0.01)  # the RESTORE finds node 1 down
            await supervisor._respawn(1)
            started = time.monotonic()
            await supervisor._settle_transfers()
            return time.monotonic() - started

        elapsed = asyncio.run(scenario())
        supervisor.wal.close()
        assert workers[2].stats.aborted == 1
        assert (1, RESTORE) in net.attempts
        assert elapsed < 0.5, f"settlement spun {elapsed:.2f}s on a moot verdict"
        assert supervisor.outbox.dropped == 1

    def test_copy_stranded_at_drain_is_a_named_violation(self, tmp_path):
        # Node 1 never acknowledges the EVICT of a committed transfer:
        # the audit names the copy instead of repairing it.
        supervisor, workers, net = fleet(
            tmp_path, "central",
            lambda dst, kind: (
                TimeoutError("EVICT lost") if kind == EVICT else None
            ),
            drain_timeout=0.3,
        )

        async def scenario():
            await workers[2]._move_block(0, 1)
            return await supervisor._settle_and_audit()

        violations, _ = asyncio.run(scenario())
        supervisor.wal.close()
        assert workers[2].stats.migrations == 1
        assert violations == [
            "transfer 1: node 1 (incarnation 0) still holds obj 0 in "
            "transit; arbiter verdict placed"
        ]


class TestSliceReassignment:
    def test_stale_mirror_cannot_lose_a_dead_homes_object(self, tmp_path):
        # Object 1 went 2 -> 1 -> 2 under home 2, and home 2 died before
        # the second commit reached the supervisor's mirror.  Node 1
        # answers without the object, so it must be re-seeded at 2.
        dead = set()
        supervisor, workers, net = fleet(
            tmp_path, "home",
            lambda dst, kind: (
                ConnectionLostError(f"node {dst} is down", peer=dst)
                if dst in dead else None
            ),
        )

        async def scenario():
            await supervisor._assign_homes()
            supervisor.placement[1] = 1
            dead.add(2)
            await supervisor._reassign_slices(2, [1], [1, 3])

        asyncio.run(scenario())
        supervisor.wal.close()
        assert 1 in workers[2].objects and 1 not in workers[1].objects
        assert supervisor.placement[1] == 2
        assert supervisor._seed_states(2)[0]["object_id"] == 1


def _run_kill_scenario(arbitration, queue):
    config = SupervisorConfig(
        num_nodes=3,
        num_objects=60,
        target_migrations=100,
        max_duration=8.0,
        wal_fsync=False,
        orphan_grace=25.0,
        arbitration=arbitration,
        rng_seed=1,
    )
    chaos = kill_supervisor_schedule(config.num_nodes)
    queue.put(run_supervised(config, chaos))


class TestKillSupervisorSmoke:
    """SIGKILL the real arbiter mid-migration; the run must recover.

    One scenario per arbitration mode, each wall-clock bounded and run
    in a child process so a wedged event loop cannot hang pytest.
    """

    @pytest.mark.parametrize("arbitration", ["central", "home"])
    def test_arbiter_death_is_survived(self, arbitration):
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        runner = ctx.Process(
            target=_run_kill_scenario, args=(arbitration, queue)
        )
        runner.start()
        try:
            report = queue.get(timeout=SMOKE_TIMEOUT)
        except Exception:
            runner.terminate()
            pytest.fail(
                f"{arbitration} kill scenario did not finish "
                f"within {SMOKE_TIMEOUT}s"
            )
        finally:
            runner.join(10)
            if runner.is_alive():
                os.kill(runner.pid, signal.SIGKILL)

        assert report["supervisor_kills_injected"] == 1
        assert report["supervisor_recoveries"] == 1
        assert report["supervisor_incarnation"] == 2
        assert report["arbitration"] == arbitration
        assert report["migrations"] >= 50
        assert report["restarts"] >= 1, "worker crash recovery never ran"
        assert report["invariant_violations"] == [], report[
            "invariant_violations"
        ]
        assert report["wal"]["records_appended"] > 0
        if arbitration == "central":
            settled = report["in_doubt"]
            assert sum(settled.values()) >= 1, (
                "the kill landed without any in-doubt transfers"
            )
        else:
            assert report["home_reassignments"] >= 1


class TestChaosScheduleSurgery:
    def test_without_supervisor_kills_strips_and_reanchors(self):
        schedule = LiveChaosSchedule(
            actions=[
                LivePartition(at=0.5, duration=0.8, groups=((1,), (2, 3))),
                KillSupervisor(at=1.2),
                LiveCrash(at=1.8, node=2),
            ]
        )
        resumed = schedule.without_supervisor_kills()
        assert resumed.supervisor_kills == 0
        # The partition fired before the kill: consumed, gone.  The
        # crash survives, re-anchored relative to the kill.
        assert [type(a).__name__ for a in resumed.actions] == ["LiveCrash"]
        assert resumed.actions[0].at == pytest.approx(0.6)

    def test_without_kills_is_identity_when_none(self):
        schedule = LiveChaosSchedule(actions=[LiveCrash(at=1.0)])
        resumed = schedule.without_supervisor_kills()
        assert resumed.actions == schedule.actions

    def test_kill_supervisor_schedule_composes(self):
        schedule = kill_supervisor_schedule(3)
        assert schedule.supervisor_kills == 1
        assert schedule.crashes == 1
        assert schedule.partitions == 1
        schedule.validate()

    def test_config_rejects_unknown_arbitration(self):
        with pytest.raises(ValueError, match="arbitration"):
            SupervisorConfig(arbitration="quorum").validate()

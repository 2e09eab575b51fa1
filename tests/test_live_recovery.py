"""Supervisor crash recovery: WAL replay, in-doubt settlement, chaos.

The pure pieces run without any processes: a hand-written WAL is
replayed into a fresh :class:`NodeSupervisor` (``recover=True``) and
the three-verdict settlement plan — *rollback* a transfer whose PLACE
was never logged, *commit* one whose PLACE is logged and whose
destination inventory confirms delivery, *revert* one whose logged
PLACE never reached the destination — is checked decision-by-decision
and then executed, asserting the journaled records, restored
placements and settlement notices.

The end-to-end smoke then SIGKILLs a real arbiter mid-migration
(:class:`KillSupervisor`) under both arbitration modes and asserts the
acceptance criteria: recovery happened, migrations continued, zero
inventory-audit violations.
"""

import asyncio
import multiprocessing
import os
import signal

import pytest

from repro.availability.livechaos import (
    KillSupervisor,
    LiveChaosSchedule,
    LiveCrash,
    LivePartition,
    kill_supervisor_schedule,
)
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
        recovered._notify = lambda node, kind, transfer: notices.append(
            (node, kind, transfer.transfer_id)
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
        supervisor._notify = lambda node, kind, transfer: notices.append(kind)

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
        home._notify = lambda node, kind, payload, trace=None: notices.append(
            kind
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

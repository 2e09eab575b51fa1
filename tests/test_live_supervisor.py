"""Bounded multi-process smoke: the acceptance scenario under pytest.

Spawns a real supervisor + 3 worker OS processes over Unix sockets,
injects one data-plane partition and one node crash, and asserts the
acceptance criteria: >= 100 migrations, crash survived (restart with
lease recovery), partition survived, zero lock/placement invariant
violations.  The whole scenario runs under a hard wall-clock timeout
so CI cannot hang on a wedged worker.

Pure-logic pieces (config/schedule validation, the sim analog, the
loss estimator, the supervisor's event-driven phase wake-ups, the
incarnation fence on transfers) are tested alongside without any
processes.
"""

import asyncio
import multiprocessing
import os
import signal

import pytest

from repro.availability.livechaos import (
    LiveChaosSchedule,
    LiveCrash,
    LiveFaultWindow,
    LivePartition,
    demo_schedule,
)
from repro.runtime.live.demo import (
    estimate_transfer_loss,
    format_report,
    run_live_demo,
    run_supervised,
    simulate_analog,
)
from repro.runtime.live.node import LiveNodeWorker, LiveObject
from repro.runtime.live.supervisor import NodeSupervisor, SupervisorConfig
from repro.runtime.live.wire import (
    HEARTBEAT,
    HOME_ASSIGN,
    HOME_MAP,
    MOVE_REQUEST,
    OBJECT_TRANSFER,
    PLACE,
    PLACE_NOTICE,
    SUPERVISOR,
    Envelope,
)

#: Hard ceiling for the full multi-process scenario.
SMOKE_TIMEOUT = 120


def _run_demo_in_child(queue):
    config = SupervisorConfig(
        num_nodes=3,
        num_objects=120,
        target_migrations=150,
        max_duration=20.0,
    )
    queue.put(run_live_demo(config))


def _run_first_migration_in_child(queue):
    config = SupervisorConfig(
        num_nodes=3, num_objects=12, target_migrations=1, max_duration=20.0
    )
    queue.put(run_supervised(config))


def _watched(target):
    """Run ``target(queue)`` in a child; its report, or fail on timeout.

    A wedged event loop is killed by the watchdog join instead of
    hanging pytest.
    """
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    runner = ctx.Process(target=target, args=(queue,))
    runner.start()
    try:
        return queue.get(timeout=SMOKE_TIMEOUT)
    except Exception:
        runner.terminate()
        pytest.fail(f"{target.__name__} did not finish within {SMOKE_TIMEOUT}s")
    finally:
        runner.join(10)
        if runner.is_alive():
            os.kill(runner.pid, signal.SIGKILL)


class TestLiveSmoke:
    def test_demo_survives_crash_and_partition(self):
        """The ISSUE acceptance scenario, wall-clock bounded."""
        report = _watched(_run_demo_in_child)
        measured = report["measured"]
        assert measured["workers"] == 3
        assert measured["objects"] == 120
        assert measured["migrations"] >= 100, (
            f"only {measured['migrations']} migrations"
        )
        assert measured["crashes_injected"] >= 1
        assert measured["partitions_injected"] >= 1
        assert measured["restarts"] >= 1, "crash recovery never ran"
        assert measured["invariant_violations"] == [], (
            measured["invariant_violations"]
        )
        # The report carries both sides of the comparison.
        assert 0.0 <= report["comparison"]["conflict_rate_predicted"] < 1.0
        assert 0.0 <= report["comparison"]["conflict_rate_measured"] < 1.0
        # And it renders.
        text = format_report(report)
        assert "invariant violations" in text
        assert "predicted" in text

    def test_first_migration_run_reaches_its_target(self):
        # The stop check wakes on the target-th commit rather than a
        # fixed poll; the run must still end at or above target.
        report = _watched(_run_first_migration_in_child)
        assert report["migrations"] >= 1
        assert report["invariant_violations"] == []


@pytest.fixture
def supervisor(tmp_path):
    """A central-mode supervisor with no processes, replies captured."""
    config = SupervisorConfig(
        num_nodes=3,
        num_objects=6,
        target_migrations=2,
        socket_dir=str(tmp_path),
        wal_fsync=False,
    )
    sup = NodeSupervisor(config)
    sup.replies = []

    async def capture_reply(envelope, payload=None):
        sup.replies.append(payload)

    sup.transport.reply = capture_reply
    sup.outbox.post = lambda node, kind, payload, trace=None: None
    yield sup
    sup.wal.close()


def _envelope(kind, src, seq, **payload):
    return Envelope(
        kind=kind, src=src, dst=SUPERVISOR, msg_id=(src, seq), payload=payload
    )


class TestPhaseWakeups:
    """The supervisor's phase waits are woken by the messages they wait
    for, not by a poll quantum — checked with no wall-clock sleeps."""

    def test_heartbeat_completes_pending_wait(self, supervisor):
        async def scenario():
            wait = asyncio.ensure_future(supervisor._wait_for_heartbeat(2))
            await asyncio.sleep(0)  # let the wait register
            await supervisor.handle(_envelope(HEARTBEAT, 3, 1, pid=0))
            assert not wait.done()  # another node's beat is no answer
            await supervisor.handle(_envelope(HEARTBEAT, 2, 1, pid=0))
            await asyncio.wait_for(wait, 0.05)

        asyncio.run(scenario())

    def test_stop_signal_fires_on_target_th_central_commit(self, supervisor):
        async def scenario():
            # Objects 0 and 1 live at nodes 1 and 2; movers 2 and 3.
            for seq, (mover, oid) in enumerate([(2, 0), (3, 1)], start=1):
                await supervisor.handle(
                    _envelope(MOVE_REQUEST, mover, seq, object_id=oid)
                )
            first, second = (r["transfer_id"] for r in supervisor.replies)
            wake = supervisor._commit_wake
            # Fenced: wrong destination.  A retry of a placed one is
            # answered ok but commits nothing new.
            await supervisor.handle(_envelope(PLACE, 3, 10, transfer_id=first))
            assert supervisor.commits == 0 and not wake.is_set()
            await supervisor.handle(_envelope(PLACE, 2, 11, transfer_id=first))
            assert supervisor.commits == 1 and not wake.is_set()
            await supervisor.handle(_envelope(PLACE, 2, 12, transfer_id=first))
            assert supervisor.replies[-1] == {"ok": True}
            assert supervisor.commits == 1 and not wake.is_set()
            await supervisor.handle(_envelope(PLACE, 3, 13, transfer_id=second))
            assert supervisor.commits == 2 and wake.is_set()

        asyncio.run(scenario())

    def test_stop_signal_fires_on_target_th_home_notice(self, supervisor):
        async def scenario():
            wake = supervisor._commit_wake
            await supervisor.handle(
                _envelope(PLACE_NOTICE, 1, 1, object_id=1, node=1,
                          transfer_id=1_000_001)
            )
            assert supervisor.commits == 1 and not wake.is_set()
            await supervisor.handle(
                _envelope(PLACE_NOTICE, 2, 1, object_id=2, node=2,
                          transfer_id=2_000_001)
            )
            assert supervisor.commits == 2 and wake.is_set()
            assert supervisor.placement[1] == 1
            assert supervisor.placement[2] == 2

        asyncio.run(scenario())


def _worker(node_id, incarnation=0, objects=()):
    """A worker with no sockets or tasks; its replies are captured."""
    worker = LiveNodeWorker(
        node_id,
        ("unix", "unused"),
        {},
        [LiveObject(oid).state() for oid in objects],
        incarnation=incarnation,
    )
    worker.replies = []

    async def capture_reply(envelope, payload=None):
        worker.replies.append(payload)

    worker.transport.reply = capture_reply
    return worker


class TestIncarnationFence:
    """A transfer granted to a dead worker's incarnation can never be
    served by its respawned successor."""

    def test_successor_refuses_its_predecessors_pull(self):
        successor = _worker(1, incarnation=1, objects=[0, 3])
        pull = Envelope(
            kind=OBJECT_TRANSFER,
            src=2,
            dst=1,
            msg_id=(2, 7),
            payload={"object_id": 0, "transfer_id": 4, "incarnation": 0},
        )
        asyncio.run(successor.handle(pull))
        assert successor.replies == [{"state": None}]
        assert 0 in successor.objects
        assert successor.in_transit == {}
        assert successor.stats.stale_pulls_refused == 1
        # The current incarnation's pull is served as before.
        pull.msg_id = (2, 8)
        pull.payload["incarnation"] = 1
        asyncio.run(successor.handle(pull))
        assert successor.replies[-1]["state"]["object_id"] == 0
        assert set(successor.in_transit) == {4}

    @pytest.mark.parametrize("arbitration", ["central", "home"])
    def test_grant_after_respawn_names_the_new_incarnation(
        self, tmp_path, arbitration
    ):
        config = SupervisorConfig(
            num_nodes=3,
            num_objects=6,
            socket_dir=str(tmp_path),
            wal_fsync=False,
            arbitration=arbitration,
        )
        sup = NodeSupervisor(config)
        sent = []

        async def request(node, kind, payload=None, timeout=5.0, trace=None):
            sent.append((node, kind, payload))

        async def nothing(*args, **kwargs):
            return None

        sup.transport.request = request
        sup._spawn = lambda node_id: None
        sup._kill_worker = lambda node_id: False
        sup._wait_for_heartbeat = nothing
        sup._start_workload = nothing
        asyncio.run(sup._respawn(1))
        sup.wal.close()
        assert sup.incarnations[1] == 1
        if arbitration == "central":
            sup.transport.reply = nothing
            grant = sup._move_decision(_envelope(MOVE_REQUEST, 2, 1, object_id=0))
        else:
            # Every worker hears the new incarnation with the home map,
            # so a home's grant names it too.
            maps = [p for node, kind, p in sent if kind == HOME_MAP]
            assert sorted(n for n, k, _ in sent if k == HOME_MAP) == [1, 2, 3]
            home = _worker(3)
            asyncio.run(
                home.handle(
                    Envelope(HOME_ASSIGN, SUPERVISOR, 3, (SUPERVISOR, 1),
                             {"slices": [0], "placement": {0: 1, 3: 1}})
                )
            )
            asyncio.run(
                home.handle(
                    Envelope(HOME_MAP, SUPERVISOR, 3, (SUPERVISOR, 2),
                             maps[-1])
                )
            )
            grant = home._home_move_decision(
                _envelope(MOVE_REQUEST, 2, 1, object_id=0)
            )
        assert grant["granted"] and grant["source"] == 1
        assert grant["incarnation"] == sup.incarnations[1] == 1


class TestSimAnalog:
    def test_deterministic_under_fixed_seed(self):
        config = SupervisorConfig(num_nodes=3, num_objects=60, rng_seed=7)
        one = simulate_analog(config, transfer_loss=0.1)
        two = simulate_analog(config, transfer_loss=0.1)
        assert one == two

    def test_contention_rises_with_fewer_objects(self):
        crowded = simulate_analog(
            SupervisorConfig(num_nodes=4, num_objects=5)
        )
        sparse = simulate_analog(
            SupervisorConfig(num_nodes=4, num_objects=500)
        )
        assert crowded["conflict_rate"] > sparse["conflict_rate"]

    def test_transfer_loss_produces_aborts(self):
        config = SupervisorConfig(num_nodes=3, num_objects=100)
        clean = simulate_analog(config, transfer_loss=0.0)
        lossy = simulate_analog(config, transfer_loss=0.3)
        assert clean["abort_rate"] == 0.0
        assert lossy["abort_rate"] > 0.1


class TestLossEstimator:
    def test_no_chaos_no_loss(self):
        config = SupervisorConfig()
        assert estimate_transfer_loss(config, LiveChaosSchedule()) == 0.0

    def test_partition_contributes_cross_group_share(self):
        config = SupervisorConfig(max_duration=10.0)
        schedule = LiveChaosSchedule(
            actions=[LivePartition(at=0.0, duration=5.0, groups=((1,), (2,)))]
        )
        loss = estimate_transfer_loss(config, schedule)
        assert loss == pytest.approx(0.5 * 0.5)  # half the run, half cross

    def test_drop_window_needs_request_and_reply(self):
        config = SupervisorConfig(max_duration=10.0)
        schedule = LiveChaosSchedule(
            actions=[
                LiveFaultWindow(at=0.0, duration=10.0, drop_rate=0.5)
            ]
        )
        loss = estimate_transfer_loss(config, schedule)
        assert loss == pytest.approx(1.0 - 0.25)

    def test_crashes_do_not_count_as_loss_windows(self):
        config = SupervisorConfig()
        schedule = LiveChaosSchedule(actions=[LiveCrash(at=1.0)])
        assert estimate_transfer_loss(config, schedule) == 0.0


class TestValidation:
    def test_config_rejects_nonsense(self):
        with pytest.raises(ValueError):
            SupervisorConfig(num_nodes=0).validate()
        with pytest.raises(ValueError):
            SupervisorConfig(num_objects=0).validate()
        with pytest.raises(ValueError):
            SupervisorConfig(heartbeat_interval=0).validate()

    def test_schedule_rejects_bad_actions(self):
        with pytest.raises(ValueError):
            LiveChaosSchedule(actions=[LiveCrash(at=-1.0)]).validate()
        with pytest.raises(ValueError):
            LiveChaosSchedule(
                actions=[LivePartition(at=0, duration=0, groups=((1,),))]
            ).validate()
        with pytest.raises(ValueError):
            LiveChaosSchedule(
                actions=[LiveFaultWindow(at=0, duration=1, drop_rate=1.5)]
            ).validate()

    def test_demo_schedule_has_crash_and_partition(self):
        schedule = demo_schedule(3)
        assert schedule.crashes >= 1
        assert schedule.partitions >= 1
        schedule.validate()

    def test_demo_schedule_needs_two_nodes(self):
        with pytest.raises(ValueError):
            demo_schedule(1)

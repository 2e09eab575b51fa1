"""The ``repro-experiment live`` demo: sim-predicted vs. measured.

Runs the same concurrent-movers workload twice:

1. :func:`simulate_analog` — a discrete-event model of the deployment
   on the sim kernel: N mover processes contending for M objects under
   the same :class:`~repro.core.locking.LockManager`, with per-block
   hold times and think times matching the live configuration, and
   a transfer-loss probability matching the injected fault windows.
   Deterministic (seeded streams), instant, no sockets.
2. :class:`~repro.runtime.live.supervisor.NodeSupervisor` — the real
   thing: N OS processes, real sockets, one injected crash, one
   injected partition.

The supervisor itself runs as a *child process* of this runner
(:func:`run_supervised`), which is what makes
:class:`~repro.availability.livechaos.KillSupervisor` survivable: when
the chaos schedule SIGKILLs the arbiter, the runner notices the child
died without reporting, respawns it in recovery mode (WAL replay +
in-doubt settlement against the orphaned workers' inventories) with
the already-consumed chaos prefix stripped, and the run continues.

The report places the sim's predicted conflict/abort rates next to the
measured ones.  They will not match to the digit — the sim does not
model GIL scheduling or socket latency jitter — but they must land in
the same regime: that is the paper's claim that the simulated
place-policy contention predicts deployed behaviour.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue as queue_module
import shutil
import tempfile
from typing import Any, Dict, Optional

from repro.availability.livechaos import LiveChaosSchedule, demo_schedule
from repro.core.locking import LockManager
from repro.core.moveblock import MoveBlock
from repro.errors import SupervisionError
from repro.runtime.live.node import LiveObject
from repro.runtime.live.supervisor import NodeSupervisor, SupervisorConfig
from repro.runtime.live.wire import SUPERVISOR
from repro.telemetry.core import Telemetry
from repro.telemetry.live import (
    TelemetryHub,
    clean_telemetry_dir,
    process_id_base,
)


def simulate_analog(
    config: SupervisorConfig,
    transfer_loss: float = 0.0,
    sim_rounds: int = 2000,
) -> Dict[str, float]:
    """Predict conflict/abort rates for ``config`` on the sim kernel.

    ``transfer_loss`` is the probability a granted move's transfer
    phase fails (the live analog: a frame lost to drops or a partition
    window), aborting the block.  Rates are per move attempt, the same
    denominators the live report uses.
    """
    # Imported here, not at module level: the supervisor child imports
    # this module too, and a live process must not load numpy.
    from repro.sim.kernel import Environment
    from repro.sim.rng import RandomStreams

    env = Environment()
    streams = RandomStreams(config.rng_seed)
    locks = LockManager(env=env, lease_duration=config.lease_duration)
    records = [LiveObject(oid) for oid in range(config.num_objects)]
    # One block's critical section ~ invocations + transfer round trips.
    hold_time = config.think_time * (1 + config.invocations_per_block)
    counters = {"attempts": 0, "denied": 0, "aborted": 0, "migrations": 0}
    rounds_per_node = max(1, sim_rounds // config.num_nodes)

    def mover(node_id: int):
        stream = streams.stream(f"live.mover.{node_id}")
        for _ in range(rounds_per_node):
            record = records[int(stream.uniform() * config.num_objects)]
            counters["attempts"] += 1
            if locks.is_locked(record):
                counters["denied"] += 1
            else:
                block = MoveBlock(client_node=node_id, target=record)
                locks.lock(record, block)
                if transfer_loss > 0 and stream.uniform() < transfer_loss:
                    counters["aborted"] += 1
                else:
                    counters["migrations"] += 1
                yield env.sleep(hold_time)
                locks.release_block(block)
            yield env.sleep(stream.uniform() * 2 * config.think_time)

    for node in range(1, config.num_nodes + 1):
        env.process(mover(node), name=f"mover-{node}")
    env.run()
    attempts = max(1, counters["attempts"])
    return {
        "attempts": counters["attempts"],
        "migrations": counters["migrations"],
        "conflict_rate": counters["denied"] / attempts,
        "abort_rate": counters["aborted"] / attempts,
    }


def estimate_transfer_loss(
    config: SupervisorConfig, chaos: LiveChaosSchedule
) -> float:
    """Fraction of the run a granted transfer is expected to fail.

    Partitions cut roughly the cross-group share of transfers for
    their window; fault windows lose a transfer with their drop rate
    (a transfer needs its request *and* reply to survive).  Scaled by
    each window's share of the expected run duration.
    """
    horizon = max(config.max_duration, 1e-9)
    loss = 0.0
    for action in chaos.actions:
        duration = getattr(action, "duration", None)
        if duration is None:
            continue
        window_share = min(duration, horizon) / horizon
        if hasattr(action, "groups"):
            groups = action.groups
            total = sum(len(g) for g in groups) or 1
            cross = 1.0 - sum((len(g) / total) ** 2 for g in groups)
            loss += window_share * cross
        elif getattr(action, "drop_rate", 0.0) > 0:
            survive = (1.0 - action.drop_rate) ** 2
            loss += window_share * (1.0 - survive)
    return min(loss, 0.95)


def _supervisor_child(
    config: SupervisorConfig,
    chaos: LiveChaosSchedule,
    recover: bool,
    out: multiprocessing.queues.Queue,
    incarnation: int = 0,
) -> None:
    """``multiprocessing`` spawn target: one supervisor incarnation.

    Reports ``("ok", report)`` or ``("error", repr)`` on the queue;
    reporting *nothing* is the KillSupervisor signature the runner
    keys recovery on.  A crashing incarnation SIGKILLs its fleet so a
    failed run never leaks workers.

    ``incarnation`` (the runner's recovery count) bands this process's
    span ids when cross-process telemetry is on: the supervisor mints
    spans during WAL replay in ``__init__``, before ``run()`` could
    learn its own start count, so the band must come from outside.
    """
    try:
        if config.telemetry_dir is not None:
            telemetry = Telemetry(
                id_base=process_id_base(SUPERVISOR, incarnation)
            )
        else:
            telemetry = Telemetry()
        supervisor = NodeSupervisor(
            config, chaos, recover=recover, telemetry=telemetry
        )
        try:
            report = asyncio.run(supervisor.run())
        except BaseException:
            supervisor.kill_workers()
            raise
        out.put(("ok", report))
    except BaseException as exc:  # noqa: BLE001 - relayed to the runner
        try:
            out.put(("error", repr(exc)))
        except Exception:
            pass


def run_supervised(
    config: SupervisorConfig,
    chaos: Optional[LiveChaosSchedule] = None,
    max_recoveries: int = 2,
) -> Dict[str, Any]:
    """Run the supervisor as a child, recovering it if chaos kills it.

    The runner loop: spawn a supervisor child; if it exits *without*
    posting a report (SIGKILLed by :class:`~repro.availability.
    livechaos.KillSupervisor`, or by anything else), respawn it with
    ``recover=True`` — same socket dir, same WAL — and the chaos
    schedule's already-consumed prefix stripped.  Gives up after
    ``max_recoveries`` silent deaths.

    The final report is patched with the *original* schedule's
    injection counts (the recovered incarnation only saw the suffix)
    plus ``supervisor_recoveries``.
    """
    config.validate()
    chaos = chaos if chaos is not None else LiveChaosSchedule()
    owns_dir = config.socket_dir is None
    if owns_dir:
        # Pin the dir on the config: every incarnation must compute the
        # same socket addresses and find the same WAL.
        config.socket_dir = tempfile.mkdtemp(prefix="repro-live-")
    if config.telemetry_dir is not None:
        # Stale artifacts from a previous run in a reused directory
        # would pollute the merged timeline.
        clean_telemetry_dir(config.telemetry_dir)
    context = multiprocessing.get_context("spawn")
    schedule = chaos
    recover = False
    recoveries = 0
    try:
        while True:
            out = context.Queue()
            child = context.Process(
                target=_supervisor_child,
                args=(config, schedule, recover, out, recoveries),
                daemon=False,
            )
            child.start()
            result = None
            while True:
                try:
                    result = out.get(timeout=0.25)
                    break
                except queue_module.Empty:
                    if not child.is_alive():
                        try:  # the report may have raced the exit
                            result = out.get(timeout=1.0)
                        except queue_module.Empty:
                            result = None
                        break
            child.join(5.0)
            if child.is_alive():
                child.kill()
            if result is not None:
                status, payload = result
                if status == "error":
                    raise SupervisionError(
                        f"supervisor incarnation failed: {payload}"
                    )
                report = payload
                report["supervisor_recoveries"] = recoveries
                report["crashes_injected"] = chaos.crashes
                report["partitions_injected"] = chaos.partitions
                report["supervisor_kills_injected"] = chaos.supervisor_kills
                if config.telemetry_dir is not None:
                    # Merge *here*, in the runner: it outlives every
                    # incarnation, so the hub sees killed supervisors'
                    # files too.
                    try:
                        merged = TelemetryHub(config.telemetry_dir).merge()
                    except (OSError, ValueError) as exc:
                        merged = {"error": repr(exc)}
                    report.setdefault("telemetry", {})["merged"] = merged
                return report
            # Child died with no goodbye: the KillSupervisor signature.
            recoveries += 1
            if recoveries > max_recoveries:
                raise SupervisionError(
                    f"supervisor died {recoveries} times without "
                    f"reporting; giving up"
                )
            recover = True
            schedule = schedule.without_supervisor_kills()
    finally:
        if owns_dir:
            shutil.rmtree(config.socket_dir, ignore_errors=True)
            config.socket_dir = None


def run_live_demo(
    config: Optional[SupervisorConfig] = None,
    chaos: Optional[LiveChaosSchedule] = None,
) -> Dict[str, Any]:
    """Run sim prediction + live deployment; return the joint report.

    The top-level ``violations`` key mirrors the measured run's
    ``invariant_violations`` so callers (the CLI, CI gates) can check
    one stable place without digging through the nesting.
    """
    config = config or SupervisorConfig()
    if chaos is None:
        chaos = demo_schedule(config.num_nodes)
    predicted = simulate_analog(
        config, transfer_loss=estimate_transfer_loss(config, chaos)
    )
    measured = run_supervised(config, chaos)
    return {
        "violations": list(measured["invariant_violations"]),
        "config": {
            "num_nodes": config.num_nodes,
            "num_objects": config.num_objects,
            "target_migrations": config.target_migrations,
            "max_duration": config.max_duration,
            "lease_duration": config.lease_duration,
            "rng_seed": config.rng_seed,
            "arbitration": config.arbitration,
        },
        "predicted": predicted,
        "measured": measured,
        "comparison": {
            "conflict_rate_predicted": predicted["conflict_rate"],
            "conflict_rate_measured": measured["conflict_rate"],
            "abort_rate_predicted": predicted["abort_rate"],
            "abort_rate_measured": measured["abort_rate"],
        },
    }


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable sim-vs-measured table."""
    measured = report["measured"]
    comparison = report["comparison"]
    lines = [
        "live demo: sim-predicted vs. measured",
        "=" * 53,
        f"{'metric':<28}{'predicted':>12}{'measured':>12}",
        "-" * 53,
        (
            f"{'conflict rate':<28}"
            f"{comparison['conflict_rate_predicted']:>12.4f}"
            f"{comparison['conflict_rate_measured']:>12.4f}"
        ),
        (
            f"{'abort rate':<28}"
            f"{comparison['abort_rate_predicted']:>12.4f}"
            f"{comparison['abort_rate_measured']:>12.4f}"
        ),
        "-" * 53,
        f"workers (OS processes)      {measured['workers']:>12}",
        f"objects                     {measured['objects']:>12}",
        f"arbitration                 {measured.get('arbitration', '?'):>12}",
        f"migrations                  {measured['migrations']:>12}",
        f"distinct objects moved      {measured['distinct_objects_moved']:>12}",
        f"crashes injected            {measured['crashes_injected']:>12}",
        f"partitions injected         {measured['partitions_injected']:>12}",
        f"supervisor kills injected   "
        f"{measured.get('supervisor_kills_injected', 0):>12}",
        f"supervisor recoveries       "
        f"{measured.get('supervisor_recoveries', 0):>12}",
        f"restarts                    {measured['restarts']:>12}",
        f"leases broken               {measured['leases_broken']:>12}",
        f"home reassignments          "
        f"{measured.get('home_reassignments', 0):>12}",
        f"wal records appended        "
        f"{measured.get('wal', {}).get('records_appended', 0):>12}",
        f"invariant violations        "
        f"{len(measured['invariant_violations']):>12}",
    ]
    in_doubt = measured.get("in_doubt", {})
    if any(in_doubt.values()):
        lines.append(
            "in-doubt settled            "
            f"{in_doubt.get('committed', 0)} committed / "
            f"{in_doubt.get('rolled_back', 0)} rolled back / "
            f"{in_doubt.get('reverted', 0)} reverted"
        )
    for violation in measured["invariant_violations"]:
        lines.append(f"  !! {violation}")
    return "\n".join(lines)


__all__ = [
    "estimate_transfer_loss",
    "format_report",
    "run_live_demo",
    "run_supervised",
    "simulate_analog",
]

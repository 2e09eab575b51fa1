"""The two live workloads, their watchdog, and the in-process probes.

A live run is ``run_supervised`` with a fixed ``target_migrations``: a
supervisor process plus three worker processes over Unix sockets, with
one fsync'd WAL append per grant/place/end.  Each run happens in a
child interpreter that leads its own process session, so a watchdog can
SIGKILL everything the run left behind and report failed ops instead
of hanging.  Run as a script, this module *is* that child.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from spec import NOMINAL_SECONDS, ROOT, SUITE, percentile

#: Target migrations at NOMINAL_SECONDS (ISSUE 13's measured sizes).
NOMINAL_TARGET = {"live_steady": 6000, "live_faults": 3500}
WATCHDOG_SECONDS = 90.0
#: Span name -> per-layer metric stem it feeds.
SPAN_METRICS = {
    "live.grant": "live.supervisor.grant_ms",
    "live.place": "live.supervisor.place_ms",
    "live.move": "live.node.move_ms",
    "live.transfer": "live.node.transfer_ms",
    "live.transfer.serve": "live.node.serve_ms",
    "live.evict": "live.node.evict_ms",
}
PROBE_SAMPLES = 2000


def target_for(name: str, seconds: float) -> int:
    return max(1, round(NOMINAL_TARGET[name] * seconds / NOMINAL_SECONDS))


def chaos_spec(name: str, scale: float) -> List[dict]:
    """The fault schedule, as plain data the child can rebuild.

    ``scale`` shrinks the wall-clock timeline together with the target
    so a short run still meets every fault before it stops.
    """
    if name != "live_faults":
        return []
    s = min(1.0, scale)
    return [
        {"kind": "partition", "at": 1.0 * s, "duration": 1.0 * s,
         "groups": [[1], [2, 3]]},
        {"kind": "crash", "at": 3.0 * s, "node": 2},
        {"kind": "faults", "at": 5.0 * s, "duration": 1.5 * s,
         "drop_rate": 0.05, "duplicate_rate": 0.05, "delay_range": [0, 0.01]},
        {"kind": "crash", "at": 7.0 * s, "node": 3},
    ]


# -- the child: one run_supervised ---------------------------------------------


def _build_chaos(actions: List[dict]):
    from repro.availability.livechaos import (
        LiveChaosSchedule,
        LiveCrash,
        LiveFaultWindow,
        LivePartition,
    )

    built = []
    for action in actions:
        kind = action["kind"]
        if kind == "partition":
            built.append(
                LivePartition(
                    at=action["at"],
                    duration=action["duration"],
                    groups=tuple(tuple(g) for g in action["groups"]),
                )
            )
        elif kind == "crash":
            built.append(LiveCrash(at=action["at"], node=action["node"]))
        elif kind == "faults":
            built.append(
                LiveFaultWindow(
                    at=action["at"],
                    duration=action["duration"],
                    drop_rate=action["drop_rate"],
                    duplicate_rate=action["duplicate_rate"],
                    delay_range=tuple(action["delay_range"]),
                )
            )
        else:
            raise ValueError(f"unknown chaos action {kind!r}")
    return LiveChaosSchedule(built)


def child_main(spec_path: str) -> int:
    """Run one supervised deployment described by ``spec_path``."""
    from repro.runtime.live.demo import run_supervised
    from repro.runtime.live.supervisor import SupervisorConfig

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    config = SupervisorConfig(
        num_nodes=3,
        num_objects=12,
        target_migrations=spec["target"],
        max_duration=120,
        arbitration="central",
        wal_fsync=True,
        think_time=0.002,
        invocations_per_block=3,
        rng_seed=spec["seed"],
        socket_dir=spec["socket_dir"],
        telemetry_dir=spec["telemetry_dir"],
    )
    start = time.perf_counter()
    report = run_supervised(config, _build_chaos(spec["chaos"]))
    wall = time.perf_counter() - start
    counters = {
        m["name"]: m["value"]
        for m in report.pop("metrics", [])
        if m.get("type") == "counter" and not m.get("labels")
    }
    report.pop("telemetry", None)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "report": report, "counters": counters}, fh)
    return 0


# -- the parent: watchdog and hygiene ---------------------------------------------


def _session_running(pgid: int) -> bool:
    """Whether any process of the group is still running.

    Killed orphans stay zombies until init reaps them, and a signal
    probe counts those as alive, so read the states from /proc.
    """
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, encoding="ascii", errors="replace") as fh:
                # "pid (comm) state ppid pgrp ..."; comm may hold spaces.
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we were looking
        if len(fields) > 2 and int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _kill_session(pgid: int) -> None:
    """SIGKILL whatever is left of the child's session and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while _session_running(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def run_live(
    workdir: str,
    label: str,
    target: int,
    seed: int,
    chaos: List[dict],
    traced: bool = False,
    watchdog: float = WATCHDOG_SECONDS,
) -> Dict[str, Any]:
    """One supervised run under the watchdog.

    Returns ``{"wall_s", "report", "counters", "dir"}`` on success and
    ``{"error": ...}`` when the run raised, hung or was killed; either
    way no process of the run survives this call.  ``workdir`` is
    relative to ROOT (socket paths must stay short).
    """
    run_dir = os.path.join(workdir, label)
    socket_dir = os.path.join(run_dir, "s")
    os.makedirs(os.path.join(ROOT, socket_dir))
    spec = {
        "target": target,
        "seed": seed,
        "chaos": chaos,
        "socket_dir": socket_dir,
        "telemetry_dir": os.path.join(run_dir, "t") if traced else None,
        "result": os.path.join(run_dir, "result.json"),
    }
    spec_path = os.path.join(ROOT, run_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(SUITE)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    log_path = os.path.join(ROOT, run_dir, "child.log")
    error: Optional[str] = None
    with open(log_path, "wb") as log:
        child = subprocess.Popen(
            [sys.executable, str(SUITE / "livebench.py"), spec_path],
            cwd=str(ROOT),
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = child.wait(timeout=watchdog)
            if code != 0:
                error = f"live run exited with code {code}"
        except subprocess.TimeoutExpired:
            error = f"live run exceeded its {watchdog:.0f} s watchdog"
        finally:
            # Workers are non-daemon by design; after a failed run they
            # would otherwise outlive the benchmark.
            _kill_session(child.pid)
            child.wait()
    result_path = os.path.join(ROOT, spec["result"])
    if error is None and not os.path.exists(result_path):
        error = "live run wrote no result"
    if error is not None:
        with open(log_path, "rb") as log:
            tail = log.read()[-2000:].decode("utf-8", "replace")
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
        return {"error": f"{error}\n{tail}".strip()}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["dir"] = run_dir
    return result


def setup_seconds(workdir: str, seed: int, samples: int) -> List[float]:
    """Wall time of the smallest run: spawn, first migration, drain, audit."""
    times = []
    for i in range(samples):
        result = run_live(workdir, f"setup{i}", 1, seed, [])
        if "error" in result:
            raise RuntimeError(f"set-up run failed: {result['error']}")
        times.append(result["wall_s"])
        shutil.rmtree(os.path.join(ROOT, result["dir"]), ignore_errors=True)
    return times


def ops(result: Dict[str, Any], target: int) -> Dict[str, Any]:
    """Attempted / failed move attempts of one run, with reasons."""
    if "error" in result:
        return {"attempted": max(1, target), "failed": max(1, target),
                "failures": [result["error"]]}
    report = result["report"]
    attempted = max(1, report["attempts"])
    failures = list(report["invariant_violations"])
    failed = len(failures)
    if report["migrations"] < target:
        failures.append(
            f"ended at {report['migrations']} of {target} migrations"
        )
        failed = attempted
    return {"attempted": attempted, "failed": min(failed, attempted),
            "failures": failures}


def report_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer numbers every run's report carries, traced or not."""
    report = result["report"]
    migrations = max(1, report["migrations"])
    transport = report["transport"]
    return {
        "live.node.transfer_latency_mean_ms": (
            report["transfer_latency_mean_s"] * 1000.0
        ),
        "live.node.conflict_rate": report["conflict_rate"],
        "live.node.abort_share": report["abort_rate"],
        "live.supervisor.restarts": report["restarts"],
        "live.supervisor.leases_broken": report["leases_broken"],
        "live.wal.records_per_migration": (
            report["wal"]["records_appended"] / migrations
        ),
        # The report exposes the supervisor's endpoint only.
        "live.transport.reconnects": transport["reconnects"],
        "live.transport.duplicates_suppressed": (
            transport["duplicates_suppressed"]
        ),
        "live.transport.dropped_messages": transport["dropped_messages"],
    }


# -- reading the program's own spans ---------------------------------------------


def read_spans(telemetry_dir: str) -> List[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(telemetry_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    spans.append(json.loads(line))
    return spans


def span_metrics(spans: List[dict]) -> Dict[str, float]:
    """p50/p99 of each protocol span's duration, in ms."""
    durations: Dict[str, List[float]] = {name: [] for name in SPAN_METRICS}
    for span in spans:
        bucket = durations.get(span["name"])
        if bucket is not None and span.get("end") is not None:
            bucket.append((span["end"] - span["start"]) * 1000.0)
    out: Dict[str, float] = {}
    for name, stem in SPAN_METRICS.items():
        values = durations[name]
        out[f"{stem}_p50"] = percentile(values, 50) if values else 0.0
        out[f"{stem}_p99"] = percentile(values, 99) if values else 0.0
    return out


def span_summary(spans: List[dict], keep_traces: int = 200) -> Dict[str, Any]:
    """Per-name aggregates and the first complete migration traces."""
    names: Dict[str, List[float]] = {}
    traces: Dict[int, List[dict]] = {}
    for span in spans:
        if span.get("end") is None:
            continue
        names.setdefault(span["name"], []).append(span["end"] - span["start"])
        traces.setdefault(span["trace_id"], []).append(span)
    migrated = [
        members
        for members in traces.values()
        if any(
            s["name"] == "live.move"
            and s.get("tags", {}).get("outcome") == "migrated"
            for s in members
        )
    ]
    return {
        "names": {
            name: {
                "count": len(values),
                "total_s": sum(values),
                "p50_ms": percentile(values, 50) * 1000.0,
                "p99_ms": percentile(values, 99) * 1000.0,
            }
            for name, values in sorted(names.items())
        },
        "traces_kept": min(keep_traces, len(migrated)),
        "traces": [
            sorted(
                (
                    {k: s.get(k) for k in
                     ("name", "node", "span_id", "parent_id", "start", "end")}
                    for s in members
                ),
                key=lambda s: s["span_id"],
            )
            for members in migrated[:keep_traces]
        ],
    }


# -- in-process probes of single layers -------------------------------------------


def probe_framing() -> float:
    """frames/s through ``encode_frame`` + ``FrameDecoder.feed``."""
    from repro.runtime.live.framing import FrameDecoder, encode_frame

    payload = bytes(range(256))
    batch = 20_000
    rates = []
    for _ in range(5):
        decoder = FrameDecoder()
        start = time.perf_counter()
        for _ in range(batch):
            frames = decoder.feed(encode_frame(payload))
        rates.append(batch / (time.perf_counter() - start))
    if frames != [payload]:
        raise AssertionError("frame did not survive encode + feed")
    return statistics.median(rates)


def probe_wire() -> float:
    """µs for one ``Envelope.encode`` + ``Envelope.decode``."""
    from repro.runtime.live.wire import Envelope

    envelope = Envelope(
        kind="move.request",
        src=1,
        dst=-1,
        msg_id=(1, 12345),
        payload={"object_id": 7, "block_id": 4321, "mover": 1},
        trace=(3000000000001, 3000000000002),
    )
    batch = 20_000
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(batch):
            decoded = Envelope.decode(envelope.encode())
        costs.append((time.perf_counter() - start) / batch * 1e6)
    if decoded != envelope:
        raise AssertionError("envelope did not survive encode + decode")
    return statistics.median(costs)


async def _echo(socket_dir: str, samples: int) -> List[float]:
    from repro.runtime.live.transport import AsyncioTransport

    peers = {
        node: ("unix", os.path.join(socket_dir, f"echo{node}.sock"))
        for node in (1, 2)
    }
    server = AsyncioTransport(1, peers[1], peers)
    client = AsyncioTransport(2, peers[2], peers)

    async def answer(envelope):
        await server.reply(envelope, {"echo": envelope.payload["i"]})

    server.handler = answer
    await server.start()
    await client.start()
    rtts = []
    try:
        for i in range(samples + 200):
            start = time.perf_counter()
            reply = await client.request(1, "echo", {"i": i}, timeout=5.0)
            elapsed = time.perf_counter() - start
            if reply.payload["echo"] != i:
                raise AssertionError("echo reply does not match its request")
            if i >= 200:  # connections and code paths are warm by now
                rtts.append(elapsed * 1e6)
    finally:
        await client.close()
        await server.close()
    return rtts


def probe_transport(socket_dir: str) -> Dict[str, float]:
    """request/reply round trip between two transports in one process."""
    rtts = asyncio.run(_echo(socket_dir, PROBE_SAMPLES))
    return {
        "live.transport.echo_rtt_us_p50": percentile(rtts, 50),
        "live.transport.echo_rtt_us_p99": percentile(rtts, 99),
    }


def probe_wal(run_wal: str, scratch_dir: str) -> Dict[str, float]:
    """Append cost with and without fsync, and replay speed.

    The appended records are the run's own (grant/place/end with their
    real payloads), and the replayed log is the one the run wrote.
    """
    from repro.runtime.live.wal import ArbitrationWal, read_records, replay

    start = time.perf_counter()
    _, records = replay(run_wal)
    replay_s = time.perf_counter() - start
    if not records:
        raise AssertionError(f"run left an empty WAL at {run_wal}")
    body = [r for r in records if r.kind in ("grant", "place", "end")]
    out = {"live.wal.replay_records_per_s": len(records) / replay_s}
    for fsync in (True, False):
        path = os.path.join(scratch_dir, f"probe-{int(fsync)}.wal")
        costs = []
        with ArbitrationWal(path, fsync=fsync) as wal:
            for i in range(PROBE_SAMPLES):
                record = body[i % len(body)]
                start = time.perf_counter()
                wal.append(record.kind, record.data)
                costs.append((time.perf_counter() - start) * 1e6)
        written, torn = read_records(path)
        if len(written) != PROBE_SAMPLES or torn:
            raise AssertionError("probe WAL does not read back whole")
        key = "append_fsync_us_p50" if fsync else "append_nofsync_us_p50"
        out[f"live.wal.{key}"] = percentile(costs, 50)
    return out


if __name__ == "__main__":
    # The spawn context re-imports this file in every worker; without
    # the guard each of them would start a deployment of its own.
    sys.exit(child_main(sys.argv[1]))

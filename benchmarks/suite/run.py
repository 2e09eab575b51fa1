"""Benchmark suite entry point.

Driver form (one workload, one fresh interpreter)::

    python3 benchmarks/suite/run.py --workload sim_invoke --seed 7 \
        --seconds 15 --trace 0

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` lists.

Suite form (no ``--workload``) runs all five workloads, each in a fresh
interpreter, and writes one result set with provenance for
``compare.py``::

    python3 benchmarks/suite/run.py --seed 7 [--trace] [--smoke] \
        [--repeat 3] [--record baseline.json]
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from spec import (  # noqa: E402
    NOMINAL_SECONDS,
    OUT,
    ROOT,
    SIM_WORKLOADS,
    SMOKE_SECONDS,
    SUITE,
    load_benchmark,
    units,
    workload_names,
)

#: Set-up is sampled this many times per run and reported as a median.
SETUP_SAMPLES = {"sim_fig12_regen": 3, "live_steady": 3, "live_faults": 3}
DEFAULT_SETUP_SAMPLES = 5


def enter_checkout() -> None:
    """Work from the checkout root with ``src`` importable, or give up.

    Live socket paths are relative to the root, and workers spawned by
    the program inherit both the directory and ``PYTHONPATH``.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"benchmark: no program to measure: {src / 'repro'} is missing\n"
        )
        sys.exit(2)
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    inherited = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in inherited.split(os.pathsep) if p]
    )


# -- one workload ------------------------------------------------------------------


def sample_sim_setup(name: str, seed: int, seconds: float, samples: int) -> List[float]:
    """Set-up time of ``samples`` fresh interpreters (import + build)."""
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, str(SUITE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", repr(seconds), "--setup-only"],
            cwd=str(ROOT), check=True, capture_output=True, text=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_sim(name: str, seed: int, seconds: float, trace: bool, samples: int):
    import simbench

    try:
        if trace:
            calls = simbench.calls_for(name, seconds * simbench.TRACE_SCALE)
            return simbench.run_traced(name, seed, calls)
        calls = simbench.calls_for(name, seconds)
        started = time.perf_counter() - PROCESS_START
        setups = sample_sim_setup(name, seed, seconds, samples)
        # This interpreter's own set-up is one more sample: its start-up
        # so far plus the build, without the time spent sampling.
        build_start = time.perf_counter()
        prepared = simbench.setup(name, seed, calls)
        setups.append(started + time.perf_counter() - build_start)
        record = simbench.run_untraced(name, seed, calls, prepared)
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["setup_samples_s"] = setups
        return record
    finally:
        simbench.stop_pools()


def run_live_workload(
    name: str, seed: int, seconds: float, trace: bool, samples: int, workdir: str
):
    import livebench

    target = livebench.target_for(name, seconds)
    chaos = livebench.chaos_spec(name, seconds / NOMINAL_SECONDS)
    # The traced run reports no end-to-end metric, so it skips set-up.
    setups = [] if trace else livebench.setup_seconds(workdir, seed, samples)

    plain = livebench.run_live(workdir, "plain", target, seed, chaos)
    ops = livebench.ops(plain, target)
    record: Dict[str, Any] = {
        "metrics": {},
        "ops_attempted": ops["attempted"],
        "ops_failed": ops["failed"],
        "failures": ops["failures"],
        "setup_samples_s": setups,
    }
    if "error" in plain:
        return record
    report = plain["report"]
    record["metrics"] = livebench.report_metrics(plain)
    record["work"] = {
        k: report[k]
        for k in ("attempts", "granted", "migrations", "denied", "aborted")
    }
    if not trace:
        setup_s = statistics.median(setups)
        record["metrics"].update(
            {
                "setup_s": setup_s,
                # Spawn, drain and audit are set-up, not migration work.
                "work_per_s": report["migrations"]
                / max(plain["wall_s"] - setup_s, 1e-9),
                "wall_s": plain["wall_s"],
            }
        )
        return record

    traced = livebench.run_live(workdir, "traced", target, seed, chaos, traced=True)
    traced_ops = livebench.ops(traced, target)
    record["ops_attempted"] += traced_ops["attempted"]
    record["ops_failed"] += traced_ops["failed"]
    record["failures"] += traced_ops["failures"]
    if "error" in traced:
        return record
    treport = traced["report"]
    spans = livebench.read_spans(os.path.join(traced["dir"], "t"))
    metrics = livebench.report_metrics(traced)
    metrics.update(livebench.span_metrics(spans))
    metrics["live.transport.frames_per_migration"] = traced["counters"].get(
        "live.transport.frames_sent", 0.0
    ) / max(1, treport["migrations"])
    per_migration = traced["wall_s"] / max(1, treport["migrations"])
    plain_per_migration = plain["wall_s"] / max(1, report["migrations"])
    metrics["trace_overhead_pct"] = (
        per_migration / plain_per_migration - 1.0
    ) * 100.0
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir)
    metrics["live.framing.frames_per_s"] = livebench.probe_framing()
    metrics["live.wire.envelope_roundtrip_us"] = livebench.probe_wire()
    metrics.update(livebench.probe_transport(probe_dir))
    metrics.update(
        livebench.probe_wal(
            os.path.join(traced["dir"], "s", "arbitration.wal"), probe_dir
        )
    )
    record["metrics"] = metrics
    record["trace"] = livebench.span_summary(spans)
    record["trace"]["wall_s"] = {
        "untraced": plain["wall_s"], "traced": traced["wall_s"]
    }
    return record


def run_workload(args, benchmark: dict) -> None:
    """Measure one workload; print its metrics and the result line."""
    name, trace, seconds = args.workload, bool(args.trace), args.seconds
    samples = 1 if args.smoke else SETUP_SAMPLES.get(name, DEFAULT_SETUP_SAMPLES)
    workdir = os.path.join(OUT, f"w{os.getpid()}")
    os.makedirs(workdir)
    try:
        try:
            if name in SIM_WORKLOADS:
                record = run_sim(name, args.seed, seconds, trace, samples)
            else:
                record = run_live_workload(
                    name, args.seed, seconds, trace, samples, workdir
                )
        except Exception as exc:  # the program under test raised
            traceback.print_exc()
            record = {
                "metrics": {},
                "ops_attempted": 1,
                "ops_failed": 1,
                "failures": [f"run raised {exc!r}"],
            }
        if trace and "trace" in record:
            path = os.path.join(OUT, f"trace_{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record.pop("trace"), fh)
            print(f"{name} trace_file {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unit_of = units(benchmark)
    required = [
        m["name"] for m in benchmark["per_layer" if trace else "end_to_end"]
    ]
    measured = record["metrics"]
    # Every path that leaves a metric unmeasured also reports failed ops.
    correct = record["ops_failed"] == 0
    # A layer the workload does not exercise reports 0.
    emitted = {k: float(measured.get(k, 0.0)) for k in required}
    for key in sorted(measured):
        print(f"{name} {key} {float(measured[key])!r} {unit_of[key]}")
    if "sim_digest" in record:
        print(f"{name} sim_digest {record['sim_digest']}")
    print(f"{name} ops_attempted {record['ops_attempted']} count")
    print(f"{name} ops_failed {record['ops_failed']} count")
    for reason in record["failures"]:
        print(f"{name} failure: {reason}")

    detail = {
        "workload": name,
        "seed": args.seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": correct,
        "ops_attempted": record["ops_attempted"],
        "ops_failed": record["ops_failed"],
        "failures": record["failures"],
        "wall_time_s": time.perf_counter() - PROCESS_START,
        "metrics": {
            k: {"value": float(v), "unit": unit_of[k]}
            for k, v in sorted(measured.items())
        },
        "sim_digest": record.get("sim_digest"),
        "work": record.get("work"),
        "setup_samples_s": record.get("setup_samples_s"),
    }
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(detail, fh)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(record["ops_attempted"]),
                "failed": int(record["ops_failed"]),
                "metrics": {
                    k: {"value": v, "unit": unit_of[k]}
                    for k, v in emitted.items()
                },
            }
        )
    )


# -- the whole suite ---------------------------------------------------------------


def git(*argv: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *argv], cwd=str(ROOT), capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args) -> Dict[str, Any]:
    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(bool(args.trace)),
        "smoke": bool(args.smoke),
        "repeat": args.repeat,
    }


def run_suite(args, benchmark: dict) -> int:
    """All workloads, each in a fresh interpreter; one result set."""
    facts = provenance(args)
    if args.record and facts["dirty"] is not False:
        sys.stderr.write(
            "benchmark: --record needs a clean git tree "
            f"(dirty={facts['dirty']!r}); commit or stash first\n"
        )
        return 2
    os.makedirs(OUT, exist_ok=True)
    runs = []
    all_correct = True
    for round_index in range(args.repeat):
        seed = args.seed + round_index
        details = {}
        for name in workload_names(benchmark):
            detail_path = os.path.join(OUT, f"detail-{os.getpid()}.json")
            command = [
                sys.executable, str(SUITE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", repr(args.seconds),
                "--trace", str(int(bool(args.trace))), "--detail", detail_path,
            ] + (["--smoke"] if args.smoke else [])
            code = subprocess.run(command, cwd=str(ROOT)).returncode
            if code != 0 or not os.path.exists(detail_path):
                sys.stderr.write(f"benchmark: {name} exited with {code}\n")
                all_correct = False
                continue
            with open(detail_path, encoding="utf-8") as fh:
                details[name] = json.load(fh)
            os.remove(detail_path)
            all_correct = all_correct and details[name]["correct"]
        runs.append({"seed": seed, "workloads": details})
    result_set = {"schema": 1, "provenance": facts, "runs": runs}
    path = args.record or os.path.join(
        OUT, "results_trace.json" if args.trace else "results.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_set, fh, indent=1, sort_keys=True)
    print(f"result set written to {path}")
    return 0 if all_correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names(benchmark))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"]),
        help="work is sized for about this long on the reference box",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite form: rounds, seeds seed..seed+N-1")
    parser.add_argument("--record", metavar="FILE",
                        help="suite form: write the result set here; "
                        "refuses a dirty tree")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds must be > 0 and --repeat >= 1")
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    enter_checkout()

    if args.workload is None:
        return run_suite(args, benchmark)
    if args.setup_only:
        import simbench

        calls = simbench.calls_for(args.workload, args.seconds)
        try:
            simbench.setup(args.workload, args.seed, calls)
            print(repr(time.perf_counter() - PROCESS_START))
        finally:
            simbench.stop_pools()
        return 0
    run_workload(args, benchmark)
    return 0


if __name__ == "__main__":
    # Tests and worker processes import this file; only the command
    # itself may start a measurement.
    sys.exit(main())

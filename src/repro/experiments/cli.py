"""Command-line entry point: ``repro-experiment``.

Examples::

    repro-experiment fig12 --fast
    repro-experiment fig16 --seed 7 --workers 4 --csv fig16.csv
    repro-experiment all --fast --check
    repro-experiment replication --fast --check
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.executor import ParallelExecutor, resolve_workers
from repro.experiments.expectations import format_verdicts, verify_expectations
from repro.experiments.figures import FIGURES, make_figure
from repro.experiments.outlook import format_outlook_table
from repro.experiments.report import format_table, to_csv
from repro.experiments.runner import run_figure
from repro.sim.stopping import StoppingConfig


def _workers_type(text: str) -> int:
    """argparse type for --workers: a positive int or 'auto'."""
    try:
        return resolve_workers(text if text == "auto" else int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """Build the repro-experiment argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Regenerate the evaluation figures of 'Object Migration in "
            "Non-Monolithic Distributed Applications' (ICDCS 1996)."
        ),
    )
    parser.add_argument(
        "figure",
        choices=sorted(FIGURES)
        + ["chaos", "deploy", "all", "telemetry", "live"],
        help=(
            "which figure to regenerate (figN), one of the ablations "
            "(guard / locator / nm_ratio / exclusive / visit / topology), "
            "one of the outlook "
            "studies (replication / fragmentation / availability / "
            "faulttolerance / chaos / deploy), 'telemetry' for one "
            "fully instrumented run with exported traces, or 'live' "
            "for the multi-process runtime demo (sim-predicted vs. "
            "measured conflict/abort rates)"
        ),
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=3,
        help="live only: worker OS processes to spawn (default 3)",
    )
    parser.add_argument(
        "--objects",
        type=int,
        default=120,
        help="live only: mobile objects to migrate (default 120)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=20.0,
        help="live only: hard wall-clock budget in seconds (default 20)",
    )
    parser.add_argument(
        "--no-chaos",
        action="store_true",
        help="live only: skip the injected crash and partition",
    )
    parser.add_argument(
        "--arbitration",
        choices=["central", "home"],
        default="central",
        help="live only: who grants move-block leases — the supervisor "
        "('central') or per-slice home nodes, peer-to-peer ('home')",
    )
    parser.add_argument(
        "--kill-supervisor",
        action="store_true",
        help="live only: SIGKILL the arbiter itself mid-run and recover "
        "it from the arbitration WAL (implies the demo chaos schedule)",
    )
    parser.add_argument(
        "--scenario",
        type=str,
        default=None,
        help="chaos/deploy/telemetry only: run a single named scenario "
        "(e.g. crash-storm, crash-coordinator) instead of the full "
        "matrix",
    )
    parser.add_argument(
        "--telemetry",
        type=str,
        default=None,
        metavar="DIR",
        help="faulttolerance/chaos/deploy: run ONE instrumented seeded "
        "cell (not the sweep) and export metrics.jsonl, spans.jsonl "
        "and a Perfetto-loadable trace.json into DIR.  live: record "
        "per-process spans/metrics + flight recorders across the OS "
        "processes and merge them into one Perfetto trace in DIR",
    )
    parser.add_argument(
        "--markdown",
        type=str,
        default=None,
        metavar="FILE",
        help="deploy only: also write the full plan/deploy report "
        "(stage timelines, rollbacks, digests) as markdown to FILE",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root random seed (default 0)"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="thin sweep + loose stopping rule (smoke mode)",
    )
    parser.add_argument(
        "--paper-precision",
        action="store_true",
        help="use the paper's 1%% CI at p=0.99 stopping rule (slow)",
    )
    parser.add_argument(
        "--workers",
        type=_workers_type,
        default=1,
        help="parallel worker processes: a positive int or 'auto' "
        "(= CPU count)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="partition every cell that can split across N kernel "
        "instances under conservative time-window synchronization "
        "(1 = the unsharded kernel); cells still fan out over "
        "--workers and are cached by --cache",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="reuse cached cell results for unchanged parameters "
        "(content-addressed; location: $REPRO_CACHE_DIR or "
        "~/.cache/repro-objmig)",
    )
    parser.add_argument(
        "--csv", type=str, default=None, help="also write results to CSV file"
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render an ASCII chart of the curves after the table",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="persist full results (parameters + metrics) to a JSON file",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the claims about this figure, ablation or outlook "
        "study (PASS/FAIL per claim; exit 1 if any fails)",
    )
    return parser


def _check(result) -> bool:
    """Print the result's claim verdicts; True when every claim holds."""
    verdicts = verify_expectations(result)
    print(format_verdicts(verdicts))
    print()
    return all(v.passed for v in verdicts)


def _stopping(args) -> StoppingConfig:
    if args.paper_precision:
        return StoppingConfig.paper()
    if args.fast:
        return StoppingConfig.fast()
    return StoppingConfig()


def _run_telemetry(args) -> int:
    """One instrumented run + artifact export (see telemetry_run.py).

    ``repro-experiment telemetry`` runs the default fault-tolerance
    cell (or, with ``--scenario``, one chaos scenario).  The study
    commands with ``--telemetry DIR`` run their single-cell equivalent:
    a sweep would pool many environments into one trace, so the
    instrumented path always runs exactly one seeded cell.
    ``repro-experiment deploy --telemetry DIR`` exports the deploy
    span tree (stages, per-object upgrades, rollbacks) the same way.
    """
    from repro.experiments.telemetry_run import (
        describe_run,
        run_instrumented_chaos,
        run_instrumented_deploy,
        run_instrumented_faulttolerance,
    )
    from repro.telemetry.export import summary_table

    out_dir = args.telemetry or "telemetry-out"
    if args.figure == "deploy":
        scenario = args.scenario or "crash-coordinator"
        print(
            f"instrumented deploy scenario {scenario!r} "
            f"(seed {args.seed}) -> {out_dir}",
            file=sys.stderr,
        )
        _, telemetry, paths = run_instrumented_deploy(
            out_dir, scenario=scenario, seed=args.seed
        )
        print(summary_table(telemetry))
        print()
        print(describe_run(telemetry, paths))
        return 0
    use_chaos = args.figure == "chaos" or args.scenario is not None
    if use_chaos:
        scenario = args.scenario or "crash-storm"
        print(
            f"instrumented chaos scenario {scenario!r} "
            f"(seed {args.seed}) -> {out_dir}",
            file=sys.stderr,
        )
        _, telemetry, paths = run_instrumented_chaos(
            out_dir, scenario=scenario, seed=args.seed
        )
    else:
        print(
            f"instrumented fault-tolerance cell (seed {args.seed}) "
            f"-> {out_dir}",
            file=sys.stderr,
        )
        _, telemetry, paths = run_instrumented_faulttolerance(
            out_dir, seed=args.seed
        )
    print(summary_table(telemetry))
    print()
    print(describe_run(telemetry, paths))
    return 0


def _run_live(args) -> int:
    """The multi-process live demo: sim-predicted vs. measured rates.

    Spawns ``--nodes`` worker OS processes under the supervisor,
    injects the demo chaos schedule (one partition + one crash) unless
    ``--no-chaos``, and prints the side-by-side report.
    ``--kill-supervisor`` adds an arbiter SIGKILL to the schedule; the
    run must then recover from the arbitration WAL.  ``--json``
    persists the full report (the CI artifact) with a top-level
    ``violations`` list.  Exit code 1 means the run finished but
    violated a lock/placement invariant, or the supervisor could not
    be recovered.
    """
    from repro.availability.livechaos import (
        LiveChaosSchedule,
        demo_schedule,
        kill_supervisor_schedule,
    )
    from repro.errors import SupervisionError
    from repro.runtime.live.demo import format_report, run_live_demo
    from repro.runtime.live.supervisor import SupervisorConfig

    config = SupervisorConfig(
        num_nodes=args.nodes,
        num_objects=args.objects,
        max_duration=args.duration,
        target_migrations=60 if args.fast else 250,
        rng_seed=args.seed,
        arbitration=args.arbitration,
        telemetry_dir=args.telemetry,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"invalid live config: {exc}", file=sys.stderr)
        return 2
    chaos = (
        LiveChaosSchedule()
        if args.no_chaos
        else demo_schedule(config.num_nodes)
    )
    if args.kill_supervisor:
        chaos = kill_supervisor_schedule(config.num_nodes, base=chaos)
    print(
        f"live demo: {config.num_nodes} worker processes, "
        f"{config.num_objects} objects, {args.arbitration} arbitration, "
        f"{chaos.crashes} crash(es) + {chaos.partitions} partition(s) + "
        f"{chaos.supervisor_kills} supervisor kill(s), "
        f"budget {config.max_duration:.0f}s (seed {args.seed})",
        file=sys.stderr,
    )
    try:
        report = run_live_demo(config, chaos=chaos)
    except SupervisionError as exc:
        print(f"live demo failed: {exc}", file=sys.stderr)
        return 1
    print(format_report(report))
    merged = report["measured"].get("telemetry", {}).get("merged", {})
    if merged.get("trace"):
        print(
            f"telemetry: merged {merged['spans']} spans from "
            f"{len(merged['processes'])} process files into "
            f"{merged['trace']} (open in Perfetto); "
            f"summary {merged['summary']}",
            file=sys.stderr,
        )
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}", file=sys.stderr)
    if report["violations"]:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    stopping = _stopping(args)

    if args.figure != "live" and (
        args.nodes != 3
        or args.objects != 120
        or args.duration != 20.0
        or args.no_chaos
        or args.arbitration != "central"
        or args.kill_supervisor
    ):
        print(
            "--nodes/--objects/--duration/--no-chaos/--arbitration/"
            "--kill-supervisor only apply to the live demo",
            file=sys.stderr,
        )
        return 2

    # The experiment sweeps read the output and execution flags, the
    # live demo reads --json and --fast, and the scenario tables and
    # instrumented (--telemetry) runs read none of them.
    sweeps = (*FIGURES, "all") if args.telemetry is None else ()
    sweep_only = (
        "only applies to experiment runs (figN, ablations, outlook "
        "studies or 'all') without --telemetry"
    )
    # (flag given, the commands it applies to, the error otherwise)
    for given, commands, error in (
        (
            args.scenario is not None,
            ("chaos", "deploy", "telemetry"),
            "--scenario only applies to the chaos and deploy studies "
            "and telemetry runs",
        ),
        (
            args.telemetry is not None,
            ("faulttolerance", "chaos", "deploy", "telemetry", "live"),
            "--telemetry only applies to faulttolerance, chaos, deploy, "
            "telemetry and live runs",
        ),
        (
            args.markdown is not None,
            ("deploy",),
            "--markdown only applies to the deploy study",
        ),
        (args.shards != 1, sweeps, f"--shards {sweep_only}"),
        (args.csv is not None, sweeps, f"--csv {sweep_only}"),
        (args.plot, sweeps, f"--plot {sweep_only}"),
        (args.check, sweeps, f"--check {sweep_only}"),
        (args.cache, sweeps, f"--cache {sweep_only}"),
        (args.workers != 1, sweeps, f"--workers {sweep_only}"),
        (args.paper_precision, sweeps, f"--paper-precision {sweep_only}"),
        (
            args.json is not None,
            (*sweeps, "live"),
            f"--json {sweep_only}, or to the live demo",
        ),
        (
            args.fast,
            (*sweeps, "live"),
            f"--fast {sweep_only}, or to the live demo",
        ),
    ):
        if given and args.figure not in commands:
            print(error, file=sys.stderr)
            return 2

    if args.figure == "live":
        return _run_live(args)

    if args.scenario is not None:
        # A deploy scenario for deploy, a chaos scenario otherwise.
        if args.figure == "deploy":
            from repro.versioning.study import DEPLOY_SCENARIOS as known
        else:
            from repro.availability.chaos import SCENARIOS as known
        if args.scenario not in known:
            kind = "deploy scenario" if args.figure == "deploy" else "scenario"
            print(
                f"unknown {kind} {args.scenario!r}; choose from "
                f"{sorted(known)}",
                file=sys.stderr,
            )
            return 2

    if args.figure == "telemetry" or args.telemetry is not None:
        return _run_telemetry(args)

    if args.figure == "chaos":
        from repro.experiments.outlook import chaos_sweep

        scenarios = None if args.scenario is None else [args.scenario]
        print(f"running chaos scenarios (seed {args.seed})", file=sys.stderr)
        header, rows = chaos_sweep(seed=args.seed, scenarios=scenarios)
        print(format_outlook_table("chaos", header, rows))
        return 0

    if args.figure == "deploy":
        from repro.versioning.study import (
            DEPLOY_SCENARIOS,
            deploy_report_markdown,
            deploy_rows,
            run_deploy_matrix,
        )

        scenarios = (
            DEPLOY_SCENARIOS if args.scenario is None else (args.scenario,)
        )
        print(
            f"running deploy scenarios: {', '.join(scenarios)}",
            file=sys.stderr,
        )
        results = run_deploy_matrix(seed=args.seed, scenarios=scenarios)
        header, rows = deploy_rows(results)
        print(format_outlook_table("deploy", header, rows))
        if args.markdown is not None:
            with open(args.markdown, "w") as fh:
                fh.write(deploy_report_markdown(results))
            print(f"wrote {args.markdown}", file=sys.stderr)
        return 0

    names = sorted(FIGURES) if args.figure == "all" else [args.figure]

    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2

    cache = None
    if args.cache:
        from repro.experiments.cache import CellCache

        cache = CellCache()
    # One executor for the whole invocation: the process pool (and the
    # cache-hit counters) are shared across every figure.
    executor = ParallelExecutor(workers=args.workers, cache=cache)

    status = 0
    for name in names:
        definition = make_figure(name, seed=args.seed, fast=args.fast)
        print(
            f"running {definition.exp_id}: {definition.cell_count()} cells "
            f"({len(definition.series)} series x {len(definition.x_values)} points)"
            + (f" across {args.shards} shards" if args.shards > 1 else ""),
            file=sys.stderr,
        )
        result = run_figure(
            definition, stopping=stopping, executor=executor, shards=args.shards
        )
        print(format_table(result))
        print()
        if args.plot:
            from repro.experiments.plot import render_plot

            print(render_plot(result))
            print()
        if args.csv:
            path = args.csv if len(names) == 1 else f"{name}_{args.csv}"
            with open(path, "w", newline="") as fh:
                fh.write(to_csv(result))
            print(f"wrote {path}", file=sys.stderr)
        if args.json:
            from repro.experiments.persistence import save_result

            path = args.json if len(names) == 1 else f"{name}_{args.json}"
            save_result(result, path)
            print(f"wrote {path}", file=sys.stderr)
        # Every experiment runs and prints its verdicts; one failed
        # claim fails the invocation at the end, not the loop.
        if args.check and not _check(result):
            status = 1
    if cache is not None:
        print(
            f"cache: {executor.cache_hits} hits, "
            f"{executor.cache_misses} misses "
            f"({executor.cells_executed} cells simulated)",
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

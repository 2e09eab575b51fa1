"""Compare two result sets of the suite: parent A against change B.

    python3 benchmarks/suite/compare.py A.json B.json

One row per (workload, metric) with both medians, the ratio B/A (A is
the base), the bound and a verdict:

PASS        B's median is not worse than A's by more than the bound.
REGRESSED   it is.
UNRESOLVED  within the bound, but A's own runs spread wider than the
            bound (needs ``--repeat`` >= 4 on both sides), or the two
            sets were measured on different core counts.  A metric
            whose every B run beats every A run passes regardless.
info        the metric has no bound; shown so a moved layer is visible.

Simulated work must be identical: for every seed both sets ran, the
``sim_digest`` and every exact count are compared for equality.  Exit
code 1 on any regression, any exact mismatch, or a larger share of
failed ops in B.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Optional, Tuple

from spec import EXACT_COUNTS, SIM_WORKLOADS, load_benchmark, workload_names

#: Bounds on workload-specific metrics that cannot be end-to-end in
#: BENCHMARK.json (every workload must report every end-to-end metric).
#: ("relative", share of A's median) or ("points", absolute increase).
EXTRA_BOUNDS = {
    "live.node.transfer_latency_mean_ms": ("relative", 0.10),
    "experiments.model_error_pct": ("points", 0.5),
}


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        result_set = json.load(fh)
    if result_set.get("schema") != 1 or "runs" not in result_set:
        raise SystemExit(f"{path}: not a result set of this suite")
    return result_set


def values(result_set: dict, workload: str, metric: str) -> List[float]:
    out = []
    for run in result_set["runs"]:
        detail = run["workloads"].get(workload)
        if detail and metric in detail["metrics"]:
            out.append(detail["metrics"][metric]["value"])
    return out


def spread(sample: List[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (>= 4 runs)."""
    if len(sample) < 4:
        return None
    low, _, high = statistics.quantiles(sample, n=4)
    middle = statistics.median(sample)
    return (high - low) / abs(middle) if middle else None


def verdict(
    a: List[float],
    b: List[float],
    better: str,
    bound: Optional[Tuple[str, float]],
    comparable: bool,
) -> str:
    """PASS / REGRESSED / UNRESOLVED, or info for an unbounded metric."""
    if bound is None:
        return "info"
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    kind, limit = bound
    worse = sign * (new - base)
    if kind == "relative":
        worse = worse / abs(base) if base else 0.0
    if worse > limit:
        return "REGRESSED"
    if max(b) < min(a) if better == "lower" else min(b) > max(a):
        return "PASS"
    if not comparable:
        return "UNRESOLVED"
    noise = spread(a)
    if kind == "relative" and noise is not None and noise > limit:
        return "UNRESOLVED"
    return "PASS"


def exact_rows(a: dict, b: dict) -> List[Tuple[str, int, str, str]]:
    """(workload, seed, what, MATCH/DIFFERS) for every shared sim run."""
    rows = []
    by_seed = {run["seed"]: run for run in b["runs"]}
    for run_a in a["runs"]:
        run_b = by_seed.get(run_a["seed"])
        if run_b is None:
            continue
        for workload in SIM_WORKLOADS:
            da = run_a["workloads"].get(workload)
            db = run_b["workloads"].get(workload)
            if not da or not db or da["seconds"] != db["seconds"]:
                continue
            checks = [("sim_digest", da["sim_digest"], db["sim_digest"])]
            for name in EXACT_COUNTS:
                if name in da["metrics"] and name in db["metrics"]:
                    checks.append(
                        (name, da["metrics"][name]["value"],
                         db["metrics"][name]["value"])
                    )
            for what, left, right in checks:
                rows.append(
                    (workload, run_a["seed"], what,
                     "MATCH" if left == right else "DIFFERS")
                )
    return rows


def failure_share(result_set: dict, workload: str) -> Optional[float]:
    attempted = failed = 0
    for run in result_set["runs"]:
        detail = run["workloads"].get(workload)
        if detail:
            attempted += detail["ops_attempted"]
            failed += detail["ops_failed"]
    return failed / attempted if attempted else None


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = load(argv[0]), load(argv[1])
    benchmark = load_benchmark()
    catalogue = benchmark["end_to_end"] + benchmark["per_layer"]
    for side, result_set in (("A", a), ("B", b)):
        p = result_set["provenance"]
        print(
            f"{side}: commit {p['commit']} dirty={p['dirty']} "
            f"nproc={p['nproc']} python={p['python']} seed={p['seed']} "
            f"seconds={p['seconds']} trace={p['trace']} runs={len(result_set['runs'])}"
        )
    comparable = a["provenance"]["nproc"] == b["provenance"]["nproc"]
    if not comparable:
        print("core counts differ: bounded rows cannot pass, only regress")

    bad = 0
    header = f"{'workload':<16}{'metric':<42}{'A':>12}{'B':>12} {'unit':<6}{'B/A':>7}{'bound':>8}  verdict"
    print(header)
    print("-" * len(header))
    for workload in workload_names(benchmark):
        for metric in catalogue:
            name = metric["name"]
            va, vb = values(a, workload, name), values(b, workload, name)
            if not va or not vb:
                continue
            if "bound" in metric:
                bound = ("relative", metric["bound"])
            else:
                bound = EXTRA_BOUNDS.get(name)
            outcome = verdict(va, vb, metric["better"], bound, comparable)
            base, new = statistics.median(va), statistics.median(vb)
            ratio = f"{new / base:7.3f}" if base else "    n/a"
            if bound is None:
                shown = "-"
            elif bound[0] == "points":
                shown = f"+{bound[1]}pt"
            else:
                shown = f"{bound[1]:.0%}"
            print(
                f"{workload:<16}{name:<42}{base:>12.5g}{new:>12.5g} "
                f"{metric['unit']:<6}{ratio}{shown:>8}  {outcome}"
            )
            bad += outcome == "REGRESSED"

    print()
    for workload, seed, what, outcome in exact_rows(a, b):
        if outcome == "DIFFERS" or what == "sim_digest":
            print(f"exact {workload} seed={seed} {what}: {outcome}")
        bad += outcome == "DIFFERS"
    for workload in workload_names(benchmark):
        share_a, share_b = failure_share(a, workload), failure_share(b, workload)
        if share_a is None or share_b is None:
            continue
        worse = share_b > share_a
        print(
            f"failed ops {workload}: A {share_a:.4%}  B {share_b:.4%}"
            + ("  LARGER" if worse else "")
        )
        bad += worse
    print("RESULT:", "FAIL" if bad else "OK")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

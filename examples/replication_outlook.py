#!/usr/bin/env python3
"""Replication outlook: the paper's closing question, answered live.

§5: "It seems worthwhile to investigate whether similar negative
effects as we have shown for object migration arise for other
mechanisms like replication and fragmentation."

This example sweeps the read ratio of a shared-object workload under
three replication policies and prints the crossover: eager replication
(every autonomous component replicates on first remote read) wins
easily when reads dominate and then degrades *below the no-replication
baseline* once writes appear — exactly the migration story transposed.
A bounded threshold policy plays the place-policy's role.

Run:  python examples/replication_outlook.py
"""

from repro.experiments.figures import make_figure
from repro.experiments.runner import run_figure
from repro.sim.stopping import StoppingConfig

STOPPING = StoppingConfig(
    relative_precision=0.05,
    confidence=0.95,
    batch_size=200,
    warmup=200,
    min_batches=5,
    max_observations=20_000,
)


def main() -> None:
    # The same sweep as `repro-experiment replication`, on a tighter
    # stopping rule: read ratios 0.99 .. 0.5, policies none / eager /
    # threshold.
    result = run_figure(make_figure("replication"), stopping=STOPPING)
    curves = {policy: result.series(policy) for policy in result.labels}

    print("replication in a non-monolithic system (D=12, C=8, 3 objects)")
    print("mean operation time by read ratio (lower is better):\n")

    header = f"{'read ratio':>10}" + "".join(f"{p:>12}" for p in curves)
    print(header)
    print("-" * len(header))
    for i, rr in enumerate(result.x_values):
        print(f"{rr:>10.2f}" + "".join(f"{c[i]:>12.3f}" for c in curves.values()))

    print("\nfindings:")
    speedup = curves["none"][0] / curves["eager"][0]
    print(
        f"  read-heavy (99% reads): eager replication is {speedup:.1f}x "
        "faster than no replication"
    )
    slowdown = curves["eager"][-1] / curves["none"][-1]
    print(
        f"  write-heavy (50% reads): eager replication is {slowdown:.1f}x "
        "SLOWER than no replication - invalidation thrash,"
    )
    print("  the same non-monolithic conflict the paper shows for migration.")
    print(
        "  the threshold policy (bounded replicas, earned by repeated "
        "remote reads)"
    )
    print("  keeps the read-heavy win and never crosses the baseline:")
    worst = max(
        t / n for t, n in zip(curves["threshold"], curves["none"])
    )
    print(f"  its worst case is {worst:.2f}x the baseline.")


if __name__ == "__main__":
    main()

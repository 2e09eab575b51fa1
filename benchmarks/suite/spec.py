"""What the suite and ``BENCHMARK.json`` agree on: paths, names, units.

``BENCHMARK.json`` at the repo root is the one catalogue of workloads,
metrics, units and bounds; everything here is read from it so a name
printed by the suite cannot drift from the contract.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Sequence

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
#: Everything the suite writes goes here (git-ignored), as a path
#: relative to ROOT: Unix socket paths are limited to ~100 bytes, so
#: live runs must not depend on how deep the checkout sits.
OUT = os.path.join("benchmarks", "suite", "out")

#: ``--seconds`` at which the workload sizes are the ones ISSUE 13
#: measured (about 14-18 s each on the 2-core reference box).  Work
#: scales linearly with ``--seconds``; it never depends on host speed.
NOMINAL_SECONDS = 15.0
SMOKE_SECONDS = 0.6

SIM_WORKLOADS = ("sim_invoke", "sim_migrate", "sim_fig12_regen")

#: Counts that repeat exactly for one seed on the sim workloads.
EXACT_COUNTS = (
    "sim.kernel.events_per_call",
    "network.transmits_per_call",
    "runtime.invocation.remote_share",
    "runtime.migration.migrations_per_call",
    "core.attachment.closure_size_mean",
    "core.locking.denied_share",
    "experiments.model_error_pct",
)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def workload_names(benchmark: dict) -> List[str]:
    return [w["name"] for w in benchmark["workloads"]]


def units(benchmark: dict) -> Dict[str, str]:
    """metric name -> unit, over end-to-end and per-layer metrics."""
    return {
        m["name"]: m["unit"]
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


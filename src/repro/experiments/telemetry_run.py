"""Single instrumented runs: one seeded cell with full telemetry.

The sweep studies aggregate hundreds of cells; telemetry answers a
different question — *what happened inside one run*.  This module runs
exactly one seeded fault-tolerance cell or chaos scenario with a live
:class:`~repro.telemetry.core.Telemetry` sink and exports the artifacts
(``metrics.jsonl``, ``spans.jsonl``, ``trace.json``, ``summary.txt``)
into a directory.  Load ``trace.json`` in Perfetto (or
``chrome://tracing``) to see every ``move()`` as a span tree across the
participating nodes' lanes.

CLI::

    repro-experiment telemetry --out out/            # default FT cell
    repro-experiment chaos --scenario mayhem --telemetry out/
    repro-experiment faulttolerance --telemetry out/
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple, Union

from repro.availability.chaos import (
    ChaosCampaign,
    ChaosCampaignParameters,
    ChaosCampaignResult,
)
from repro.availability.faulttolerance import (
    FaultToleranceParameters,
    FaultToleranceWorkload,
)
from repro.telemetry.core import Telemetry
from repro.telemetry.export import export_run
from repro.workload.clientserver import WorkloadResult


def instrumented_ft_parameters(seed: int = 0) -> FaultToleranceParameters:
    """The default cell the telemetry demo runs.

    Place-policy under moderate loss and crashes: busy enough that one
    run exhibits every span kind — granted and rejected moves, closure
    computations, transfers, rollbacks, retries.
    """
    return FaultToleranceParameters(
        policy="placement",
        loss=0.05,
        mttf=300.0,
        mttr=50.0,
        sim_time=1_500.0,
        seed=seed,
    )


def run_instrumented_faulttolerance(
    out_dir: Union[str, Path],
    params: FaultToleranceParameters = None,
    seed: int = 0,
) -> Tuple[WorkloadResult, Telemetry, Dict[str, Path]]:
    """Run one fault-tolerance cell with telemetry; export artifacts.

    Returns ``(result, telemetry, paths)`` where ``paths`` maps artifact
    names to the files written under ``out_dir``.
    """
    if params is None:
        params = instrumented_ft_parameters(seed=seed)
    telemetry = Telemetry()
    workload = FaultToleranceWorkload(params, telemetry=telemetry)
    result = workload.run()
    paths = export_run(telemetry, out_dir)
    return result, telemetry, paths


def run_instrumented_chaos(
    out_dir: Union[str, Path],
    scenario: str = "crash-storm",
    seed: int = 0,
) -> Tuple[ChaosCampaignResult, Telemetry, Dict[str, Path]]:
    """Run one chaos scenario with telemetry; export artifacts.

    The campaign raises on an invariant violation *after* nothing has
    been written; on a clean run the artifacts land under ``out_dir``.
    Returns ``(result, telemetry, paths)``.
    """
    params = ChaosCampaignParameters(scenario=scenario, seed=seed)
    telemetry = Telemetry()
    campaign = ChaosCampaign(params, telemetry=telemetry)
    result = campaign.run()
    paths = export_run(telemetry, out_dir)
    return result, telemetry, paths


def describe_run(telemetry: Telemetry, paths: Dict[str, Path]) -> str:
    """Short post-run report: where the artifacts went, what they hold."""
    lines = [
        f"metric names : {len(telemetry.metrics.names())}",
        f"spans        : {len(telemetry.spans)} "
        f"({len(telemetry.open_spans())} still open at horizon)",
        f"traces       : {len({s.trace_id for s in telemetry.spans})}",
        "",
    ]
    for kind in ("metrics", "spans", "trace", "summary"):
        lines.append(f"wrote {paths[kind]}")
    lines.append("")
    lines.append(
        "open trace.json in https://ui.perfetto.dev (or chrome://tracing)"
    )
    return "\n".join(lines)

"""The three sim workloads: fixed simulated work, host time measured.

Equal work: every cell runs under a stopping rule whose precision is
unreachable, so it stops at the first 2 000-time-unit chunk boundary
after ``max_observations`` calls — the same calls, events and
migrations on every run of one seed, whatever the host speed.  The
cell cache is never used.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List, Tuple

from spec import NOMINAL_SECONDS, ROOT
from steptimer import KERNEL, StepTimer

#: Calls per cell at NOMINAL_SECONDS (ISSUE 13's measured sizes).
NOMINAL_CALLS = {
    "sim_invoke": 1_000_000,
    "sim_migrate": 250_000,
    "sim_fig12_regen": 200_000,
}
#: The traced run does one tenth of the work.
TRACE_SCALE = 0.1
FIGURE_WORKERS = 2
#: Reference cells below this are excluded from the model error (the
#: C=1 migration cells are ~1e-4, where a relative error is noise).
REFERENCE_FLOOR = 0.01


def calls_for(name: str, seconds: float) -> int:
    return max(1_000, round(NOMINAL_CALLS[name] * seconds / NOMINAL_SECONDS))


def fixed_work(calls: int):
    from repro.sim.stopping import StoppingConfig

    return StoppingConfig(
        relative_precision=1e-9,
        confidence=0.99,
        batch_size=400,
        warmup=500,
        min_batches=10,
        max_observations=calls,
    )


# -- set-up and the timed calls ----------------------------------------------


def build_cell(name: str, seed: int, calls: int):
    """Construct the single-cell workload (imports are part of set-up)."""
    from repro.core.attachment import AttachmentMode
    from repro.experiments.figures import FIG12_BASE, FIG16_BASE
    from repro.workload.clientserver import ClientServerWorkload
    from repro.workload.layered import LayeredWorkload

    if name == "sim_invoke":
        params = FIG12_BASE.with_overrides(
            clients=25, policy="sedentary", seed=seed
        )
        return ClientServerWorkload(params, stopping=fixed_work(calls))
    params = FIG16_BASE.with_overrides(
        clients=12,
        policy="migration",
        attachment_mode=AttachmentMode.UNRESTRICTED,
        seed=seed,
    )
    return LayeredWorkload(params, stopping=fixed_work(calls))


def run_figure12(seed: int, calls: int, workers: int):
    from repro.experiments.figures import figure12
    from repro.experiments.runner import run_figure

    return run_figure(
        figure12(seed, fast=True), stopping=fixed_work(calls), workers=workers
    )


def setup(name: str, seed: int, calls: int):
    """Everything before the timed call; returns what the call needs."""
    if name == "sim_fig12_regen":
        # Warm the shared pool: a researcher regenerating figures pays
        # the fork once, not per figure.
        run_figure12(seed, 1_000, FIGURE_WORKERS)
        return None
    return build_cell(name, seed, calls)


def timed(name: str, seed: int, calls: int, prepared, workers: int):
    """The timed call: ``(figure or cell result, host seconds)``."""
    if name == "sim_fig12_regen":
        start = time.perf_counter()
        figure = run_figure12(seed, calls, workers)
        host = time.perf_counter() - start
        return figure, host
    start = time.perf_counter()
    result = prepared.run()
    host = time.perf_counter() - start
    return result, host


def cells_of(outcome) -> List[Any]:
    """Flatten a figure (or wrap a single cell) into cell results."""
    results = getattr(outcome, "results", None)
    if results is None:
        return [outcome]
    return [cell for series in results.values() for cell in series]


# -- checks on the outputs ------------------------------------------------------


def digest(cells: List[Any]) -> str:
    """SHA-256 over every cell's summary: equal digests, equal work."""
    payload = [
        {
            "label": cell.params.label(),
            "seed": cell.params.seed,
            "simulated_time": cell.simulated_time,
            "raw": cell.raw,
        }
        for cell in cells
    ]
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def reference_fig12() -> Dict[Tuple[int, int], float]:
    """(clients, series index) -> paper-precision value of Fig 12."""
    table: Dict[Tuple[int, int], float] = {}
    path = ROOT / "docs_data" / "fig12_paper_precision.txt"
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0].isdigit():
            for column, text in enumerate(parts[1:]):
                table[(int(parts[0]), column)] = float(text)
    if not table:
        raise ValueError(f"no reference rows in {path}")
    return table


def model_error_pct(figure) -> float:
    """Max relative deviation from the paper-precision table, in %."""
    reference = reference_fig12()
    worst = 0.0
    for column, label in enumerate(figure.labels):
        for x, y in figure.points(label):
            expected = reference[(int(x), column)]
            if expected >= REFERENCE_FLOOR:
                worst = max(worst, abs(y - expected) / expected)
    return worst * 100.0


def failed_cells(
    name: str, outcome, lock_managers: List[Any]
) -> Tuple[int, List[str]]:
    """How many cells count as failed ops, and why."""
    reasons: List[str] = []
    for manager in lock_managers:
        try:
            manager.check_invariant()
        except AssertionError as exc:
            reasons.append(f"lock invariant: {exc}")
    if name == "sim_fig12_regen":
        from repro.experiments.expectations import verify_expectations

        reasons.extend(
            f"paper claim failed: {verdict}"
            for verdict in verify_expectations(outcome)
            if not verdict.passed
        )
    cells = len(cells_of(outcome))
    # A broken invariant or claim cannot be pinned on one cell of a
    # figure, so it fails the whole set.
    return (cells if reasons else 0), reasons


# -- counts and per-layer metrics ---------------------------------------------------


def totals(cells: List[Any]) -> Dict[str, float]:
    out = {
        "calls": 0,
        "blocks": 0,
        "migrations": 0,
        "messages": 0,
        "moves_requested": 0,
        "moves_rejected": 0,
    }
    for cell in cells:
        raw = cell.raw
        out["calls"] += raw["metrics"]["calls"]
        out["blocks"] += raw["metrics"]["blocks"]
        out["migrations"] += raw["migrations"]
        out["messages"] += (
            raw["network"]["remote_messages"] + raw["network"]["local_messages"]
        )
        out["moves_requested"] += raw["policy"]["moves_requested"]
        out["moves_rejected"] += raw["policy"]["moves_rejected"]
    return out


def exact_counts(cells: List[Any]) -> Dict[str, float]:
    """The counts every run can read from the cell results alone."""
    t = totals(cells)
    return {
        "network.transmits_per_call": t["messages"] / t["calls"],
        "runtime.migration.migrations_per_call": t["migrations"] / t["calls"],
        "core.locking.denied_share": (
            t["moves_rejected"] / max(1, t["moves_requested"])
        ),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- the two kinds of run -----------------------------------------------------------


def run_untraced(name: str, seed: int, calls: int, prepared) -> Dict[str, Any]:
    """Full-size run with tracing off: the end-to-end numbers."""
    outcome, host = timed(name, seed, calls, prepared, FIGURE_WORKERS)
    cells = cells_of(outcome)
    t = totals(cells)
    managers = []
    metrics = exact_counts(cells)
    metrics.update({"work_per_s": t["calls"] / host, "wall_s": host})
    if prepared is not None:
        locks = getattr(prepared.policy, "locks", None)
        managers = [locks] if locks is not None else []
        invocations = prepared.system.invocations
        metrics["sim.kernel.events_per_call"] = (
            prepared.system.env.scheduled_events / t["calls"]
        )
        metrics["runtime.invocation.remote_share"] = _ratio(
            invocations.remote_calls,
            invocations.remote_calls + invocations.local_calls,
        )
    else:
        metrics["experiments.model_error_pct"] = model_error_pct(outcome)
        metrics["experiments.executor.cells_per_s"] = len(cells) / host
    failed, reasons = failed_cells(name, outcome, managers)
    return {
        "metrics": metrics,
        "sim_digest": digest(cells),
        "ops_attempted": len(cells),
        "ops_failed": failed,
        "failures": reasons,
        "work": t,
    }


def run_traced(name: str, seed: int, calls: int) -> Dict[str, Any]:
    """One tenth of the work, untraced then traced: per-layer numbers.

    The figure workload adds a parallel untraced run first, so executor
    efficiency compares the pool against the same cells run serially.
    The traced cells always run serially in this process, where the
    stepping timer can see them.
    """
    is_figure = name == "sim_fig12_regen"
    parallel_wall = None
    if is_figure:
        setup(name, seed, calls)
        parallel, parallel_wall = timed(name, seed, calls, None, FIGURE_WORKERS)
    prepared = None if is_figure else build_cell(name, seed, calls)
    plain, plain_host = timed(name, seed, calls, prepared, 1)

    timer = StepTimer()
    timer.install()
    try:
        prepared = None if is_figure else build_cell(name, seed, calls)
        outcome, traced_host = timed(name, seed, calls, prepared, 1)
    finally:
        timer.uninstall()

    cells = cells_of(outcome)
    t = totals(cells)
    reasons: List[str] = []
    if digest(cells) != digest(cells_of(plain)):
        reasons.append("tracing changed the simulated results")
    if is_figure and digest(cells) != digest(cells_of(parallel)):
        reasons.append("pool and serial runs disagree")
    failed, why = failed_cells(name, outcome, timer.lock_managers)
    reasons.extend(why)

    events = timer.scheduled_events()
    remote = sum(s.remote_calls for s in timer.invocation_services)
    local = sum(s.local_calls for s in timer.invocation_services)
    us = 1e6
    metrics = dict(exact_counts(cells))
    metrics.update(
        {
            "sim.kernel.events_per_call": events / t["calls"],
            "sim.kernel.events_per_s": events / plain_host,
            "sim.kernel.self_us_per_call": (
                timer.self_seconds(KERNEL) * us / t["calls"]
            ),
            "network.self_us_per_call": (
                timer.self_seconds("network") * us / t["calls"]
            ),
            "runtime.invocation.remote_share": _ratio(remote, remote + local),
            "runtime.invocation.self_us_per_call": (
                timer.self_seconds("runtime.invocation") * us / t["calls"]
            ),
            "runtime.migration.self_us_per_migration": _ratio(
                timer.self_seconds("runtime.migration") * us, t["migrations"]
            ),
            "core.attachment.closure_size_mean": _ratio(
                timer.closure_sizes[1], timer.closure_sizes[0]
            ),
            "core.attachment.closure_self_us_per_block": (
                timer.self_seconds("core.attachment") * us / t["blocks"]
            ),
            "core.locking.self_us_per_block": (
                timer.self_seconds("core.locking") * us / t["blocks"]
            ),
            "core.policies.self_us_per_block": (
                timer.self_seconds("core.policies") * us / t["blocks"]
            ),
            "trace_overhead_pct": (traced_host / plain_host - 1.0) * 100.0,
        }
    )
    if is_figure:
        metrics["experiments.executor.parallel_efficiency"] = plain_host / (
            FIGURE_WORKERS * parallel_wall
        )
        metrics["experiments.executor.cells_per_s"] = len(cells) / parallel_wall
        metrics["experiments.model_error_pct"] = model_error_pct(outcome)

    kernel_total = timer.stats[KERNEL].total_s
    trace = timer.dump()
    trace["environment_run_s"] = kernel_total
    trace["self_coverage"] = _ratio(timer.total_self_seconds(), kernel_total)
    trace["host_s"] = {"untraced": plain_host, "traced": traced_host}
    if trace["self_coverage"] < 0.98:
        reasons.append(
            f"self times cover only {trace['self_coverage']:.1%} of "
            "Environment.run"
        )
    return {
        "metrics": metrics,
        "sim_digest": digest(cells),
        "ops_attempted": len(cells),
        "ops_failed": len(cells) if reasons else failed,
        "failures": reasons,
        "work": t,
        "trace": trace,
    }


def stop_pools() -> None:
    """Stop the figure pool's worker processes and wait for them."""
    from repro.experiments.executor import shutdown_pools

    shutdown_pools()

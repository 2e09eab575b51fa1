"""Tables for the outlook commands that are not client-server sweeps.

The client-server outlook studies (``replication``, ``fragmentation``,
``availability``, ``faulttolerance``) are experiment definitions in
:data:`~repro.experiments.figures.FIGURES` and run like the figures.
``chaos`` produces one row per named scenario instead:
:func:`chaos_sweep` runs every built-in chaos scenario under heartbeat
detection and invariant monitoring (availability metrics per scenario;
a run that reaches the table at all held every safety invariant), and
:func:`format_outlook_table` prints it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.report import format_rows

Rows = Tuple[List[str], List[List[float]]]


def chaos_sweep(
    seed: int = 0,
    scenarios: Optional[Sequence[str]] = None,
    sim_time: float = 2_000.0,
) -> Rows:
    """One row per chaos scenario: call duration, suspicion, failovers.

    Every cell runs the leased place-policy with heartbeat failure
    detection and the full invariant-monitor suite; a scenario that
    violates a safety invariant raises
    :class:`~repro.errors.InvariantViolationError` instead of
    producing a row.  Campaigns run a fixed horizon.
    """
    from repro.availability import ChaosCampaignParameters, run_chaos_campaign
    from repro.availability.chaos import SCENARIOS

    names = list(scenarios) if scenarios is not None else sorted(SCENARIOS)
    header = [
        "scenario",
        "mean_call",
        "suspicions",
        "false_susp",
        "failovers",
        "crashes",
    ]
    rows: List[list] = []
    for name in names:
        result = run_chaos_campaign(
            ChaosCampaignParameters(
                scenario=name, sim_time=sim_time, seed=seed
            )
        )
        rows.append(
            [
                name,
                result.ft.mean_call_duration,
                float(result.ft.suspicions),
                float(result.ft.false_suspicions),
                float(result.ft.failovers),
                float(result.injections["crashes_injected"]),
            ]
        )
    return header, rows


def format_outlook_table(
    name: str, header: List[str], rows: List[List[float]], precision: int = 3
) -> str:
    """Aligned text table, in the figure tables' style
    (:func:`~repro.experiments.report.format_rows`)."""
    return format_rows(f"outlook:{name}", header, rows, precision)

"""CLI-facing sweeps for the outlook studies (§2.2 goal, §5 outlook).

The figure harness covers the paper's own evaluation; this module gives
the three extension studies the same one-command treatment:

* ``replication`` — read-ratio sweep, none/eager/threshold policies;
* ``fragmentation`` — fragment-count sweep, migration vs placement;
* ``availability`` — workload-mix sweep, collocated vs spread;
* ``faulttolerance`` — message-loss sweep under node crashes,
  no-migration vs conventional vs leased place-policy;
* ``chaos`` — every built-in chaos scenario under heartbeat detection
  and invariant monitoring (availability metrics per scenario; a run
  that reaches the table at all held every safety invariant);
* ``deploy`` — every versioned-migration deploy scenario of
  :mod:`repro.versioning` (clean run, coordinator crash mid-stage,
  induced invariant violation), one row per scenario with commit /
  rollback counts and the digest check.

Each function returns ``(header_row, data_rows)`` ready for
:func:`format_outlook_table`, keeping these studies printable and
CSV-exportable exactly like the figures.  Wrapped in an
:class:`OutlookTable`, the same rows are checked against their claims
in :data:`~repro.experiments.expectations.PAPER_EXPECTATIONS`
(``repro-experiment replication --check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.availability import (
    AvailabilityParameters,
    FaultToleranceParameters,
    run_availability_cell,
    run_faulttolerance_cell,
)
from repro.experiments.report import format_rows
from repro.fragmentation import (
    FragmentationParameters,
    run_fragmentation_cell,
)
from repro.replication import ReplicationParameters, run_replication_cell
from repro.sim.stopping import StoppingConfig

Rows = Tuple[List[str], List[List[float]]]


@dataclass(frozen=True)
class OutlookTable:
    """A sweep's rows read like a figure: x is the first column, and
    every other column is a series named by its header."""

    exp_id: str
    header: List[str]
    rows: List[list]

    @property
    def labels(self) -> List[str]:
        """Series names: every column header after the first."""
        return self.header[1:]

    @property
    def x_values(self) -> Tuple[float, ...]:
        """The swept parameter (the first column)."""
        return tuple(row[0] for row in self.rows)

    def series(self, label: str) -> List[float]:
        """One column, by its header."""
        column = self.header.index(label)
        return [row[column] for row in self.rows]


def _sweep(x_name: str, xs, columns, measure) -> Rows:
    """One row per x: the x, then ``measure(column, x)`` per column."""
    header = [x_name] + list(columns)
    return header, [[float(x)] + [measure(c, x) for c in columns] for x in xs]


def replication_sweep(
    seed: int = 0,
    stopping: Optional[StoppingConfig] = None,
    read_ratios: Sequence[float] = (0.99, 0.95, 0.9, 0.8, 0.7, 0.5),
) -> Rows:
    """Mean op time per read ratio for the three replication policies."""
    return _sweep(
        "read_ratio",
        read_ratios,
        ("none", "eager", "threshold"),
        lambda policy, ratio: run_replication_cell(
            ReplicationParameters(policy=policy, read_ratio=ratio, seed=seed),
            stopping=stopping,
        ).mean_op_time,
    )


def fragmentation_sweep(
    seed: int = 0,
    stopping: Optional[StoppingConfig] = None,
    fragment_counts: Sequence[int] = (1, 2, 4, 8),
    clients: int = 20,
) -> Rows:
    """Mean communication time per fragment count, both main policies."""
    return _sweep(
        "fragments",
        fragment_counts,
        ("migration", "placement"),
        lambda policy, k: run_fragmentation_cell(
            FragmentationParameters(
                policy=policy,
                clients=clients,
                fragments_per_object=k,
                seed=seed,
            ),
            stopping=stopping,
        ).mean_communication_time_per_call,
    )


def availability_sweep(
    seed: int = 0,
    stopping: Optional[StoppingConfig] = None,
    mixes: Sequence[float] = (0.0, 0.1, 0.3, 0.6, 1.0),
    mttf: float = 200.0,
    mttr: float = 50.0,
) -> Rows:
    """Mean op time per group-op fraction for the two placements."""
    return _sweep(
        "group_op_fraction",
        mixes,
        ("collocated", "spread"),
        lambda placement, mix: run_availability_cell(
            AvailabilityParameters(
                placement=placement,
                mttf=mttf,
                mttr=mttr,
                group_op_fraction=mix,
                seed=seed,
            ),
            stopping=stopping,
        ).mean_op_time,
    )


def faulttolerance_sweep(
    seed: int = 0,
    stopping: Optional[StoppingConfig] = None,
    losses: Sequence[float] = (0.0, 0.01, 0.03, 0.05),
    mttf: float = 150.0,
    mttr: float = 50.0,
    lease_duration: float = 60.0,
    sim_time: float = 5_000.0,
) -> Rows:
    """Mean call duration per loss rate under crashes, three policies.

    The place-policy column runs with leases enabled — the unleased
    variant degenerates under crashes (abandoned blocks leak their
    locks forever); ``tests/test_availability_faulttolerance.py``
    checks that contrast directly.  ``stopping`` is accepted for
    registry symmetry but unused: fault-tolerance cells run a fixed
    horizon so degraded cells cannot cut their run short by producing
    few observations.
    """
    del stopping
    return _sweep(
        "loss",
        losses,
        ("sedentary", "migration", "placement"),
        lambda policy, loss: run_faulttolerance_cell(
            FaultToleranceParameters(
                policy=policy,
                lease_duration=(
                    lease_duration if policy == "placement" else None
                ),
                loss=loss,
                mttf=mttf,
                mttr=mttr,
                sim_time=sim_time,
                seed=seed,
            )
        ).mean_call_duration,
    )


def chaos_sweep(
    seed: int = 0,
    stopping: Optional[StoppingConfig] = None,
    scenarios: Optional[Sequence[str]] = None,
    sim_time: float = 2_000.0,
) -> Rows:
    """One row per chaos scenario: call duration, suspicion, failovers.

    Every cell runs the leased place-policy with heartbeat failure
    detection and the full invariant-monitor suite; a scenario that
    violates a safety invariant raises
    :class:`~repro.errors.InvariantViolationError` instead of
    producing a row.  ``stopping`` is accepted for registry symmetry
    but unused (chaos campaigns run a fixed horizon).
    """
    del stopping
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


def deploy_sweep(
    seed: int = 0,
    stopping: Optional[StoppingConfig] = None,
    scenarios: Optional[Sequence[str]] = None,
) -> Rows:
    """One row per versioned-migration deploy scenario.

    Thin registry adapter over
    :func:`repro.versioning.study.deploy_sweep`; ``stopping`` is
    accepted for registry symmetry but unused (deploys run against a
    fixed-horizon workload).
    """
    del stopping
    from repro.versioning.study import DEPLOY_SCENARIOS
    from repro.versioning.study import deploy_sweep as _sweep

    names = tuple(scenarios) if scenarios is not None else DEPLOY_SCENARIOS
    return _sweep(seed=seed, scenarios=names)


#: Registry used by the CLI.
OUTLOOK_STUDIES = {
    "replication": replication_sweep,
    "fragmentation": fragmentation_sweep,
    "availability": availability_sweep,
    "faulttolerance": faulttolerance_sweep,
    "chaos": chaos_sweep,
    "deploy": deploy_sweep,
}


def format_outlook_table(
    name: str, header: List[str], rows: List[List[float]], precision: int = 3
) -> str:
    """Aligned text table, in the figure tables' style
    (:func:`~repro.experiments.report.format_rows`)."""
    return format_rows(f"outlook:{name}", header, rows, precision)


def run_outlook(
    name: str,
    seed: int = 0,
    stopping: Optional[StoppingConfig] = None,
) -> str:
    """Run one outlook study and return its formatted table."""
    try:
        sweep = OUTLOOK_STUDIES[name]
    except KeyError:
        raise ValueError(
            f"unknown outlook study {name!r}; choose from "
            f"{sorted(OUTLOOK_STUDIES)}"
        ) from None
    header, rows = sweep(seed=seed, stopping=stopping)
    return format_outlook_table(name, header, rows)

"""Experiment definitions: sweeps of parameter cells.

An experiment (one figure of the paper, an ablation or an outlook
study) is a set of *series* (curves) evaluated over common x-values.
Each series maps an x-value to a fully specified parameter cell via its
``cell`` factory: a frozen parameter dataclass whose ``workload``
property names the workload that simulates it
(:class:`~repro.workload.params.SimulationParameters` for the paper's
figures).  That keeps definitions declarative and the runner generic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

#: Maps an x-value to the parameter cell to simulate.
CellFactory = Callable[[float], Any]


@dataclass(frozen=True)
class SeriesDef:
    """One curve of a figure."""

    #: Legend label (matches the paper's figure legends).
    label: str
    #: x-value -> parameter cell.
    cell: CellFactory


@dataclass(frozen=True)
class ExperimentDef:
    """One reproducible experiment (usually one paper figure)."""

    #: Identifier, e.g. ``"fig12"``.
    exp_id: str
    #: Human-readable title.
    title: str
    #: Meaning of the x-axis.
    x_label: str
    #: The sweep points.
    x_values: Tuple[float, ...]
    #: The curves.
    series: Tuple[SeriesDef, ...]
    #: Which of the cells' named metrics the figure plots.
    metric: str = "mean_communication_time_per_call"
    #: Free-form notes (shape expectations, paper anchors).
    notes: str = ""

    def cells(self) -> List[Tuple[str, float, Any]]:
        """Flatten to (label, x, params) triples, series-major."""
        out = []
        for s in self.series:
            for x in self.x_values:
                out.append((s.label, x, s.cell(x)))
        return out

    def cell_count(self) -> int:
        """Total number of simulation cells."""
        return len(self.series) * len(self.x_values)

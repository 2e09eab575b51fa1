"""Experiment runner: executes a figure's cells and collects curves.

Cells are independent simulations, so the runner fans them out through
the shared :class:`~repro.experiments.executor.ParallelExecutor`
(``workers > 1``), optionally answering unchanged cells from the
content-addressed :class:`~repro.experiments.cache.CellCache`.  With
``shards > 1`` every cell that can split runs as a
:class:`~repro.sim.shard.partition.ShardPlan` on the same executor and
cache.  Results come back as an :class:`ExperimentResult`: per-series lists of
:class:`~repro.workload.clientserver.WorkloadResult` aligned with the
definition's x-values, plus helpers for extracting plottable series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentDef
from repro.experiments.executor import ParallelExecutor, Workers
from repro.sim.stopping import StoppingConfig
from repro.workload.clientserver import WorkloadResult


@dataclass
class ExperimentResult:
    """All cells of one experiment, organized by series."""

    definition: ExperimentDef
    #: series label -> results aligned with definition.x_values.
    results: Dict[str, List[WorkloadResult]] = field(default_factory=dict)

    def series(self, label: str, metric: Optional[str] = None) -> List[float]:
        """The y-values of one curve (default: the figure's metric)."""
        metric = metric or self.definition.metric
        return [getattr(r, metric) for r in self.results[label]]

    def points(
        self, label: str, metric: Optional[str] = None
    ) -> List[Tuple[float, float]]:
        """(x, y) pairs of one curve."""
        return list(zip(self.definition.x_values, self.series(label, metric)))

    @property
    def labels(self) -> List[str]:
        """Series labels in definition order."""
        return [s.label for s in self.definition.series]

    @property
    def exp_id(self) -> str:
        """The definition's identifier (keys its claims)."""
        return self.definition.exp_id

    @property
    def x_values(self) -> Tuple[float, ...]:
        """The sweep points the curves are aligned with."""
        return self.definition.x_values

    def as_table(self, metric: Optional[str] = None) -> List[List[float]]:
        """Rows of [x, y_series1, y_series2, ...] for reports."""
        metric = metric or self.definition.metric
        columns = {label: self.series(label, metric) for label in self.labels}
        rows = []
        for i, x in enumerate(self.definition.x_values):
            rows.append([x] + [columns[label][i] for label in self.labels])
        return rows


class ExperimentRunner:
    """Runs experiment definitions, optionally in parallel and cached.

    Parameters
    ----------
    stopping:
        Stopping rule applied to every cell.
    workers:
        Worker processes (int >= 1 or ``"auto"``); ignored when an
        ``executor`` is supplied.
    cache:
        Optional :class:`~repro.experiments.cache.CellCache`; ignored
        when an ``executor`` is supplied (the executor's cache wins).
    executor:
        Pre-built :class:`ParallelExecutor` to share across figures.
    shards:
        Kernel instances per cell; ``1`` runs every cell unsharded.
        Above 1, each cell runs as
        :func:`~repro.sim.shard.partition.sharded_cell` plans it: cells
        too small to split (or of a shape the sharded kernel does not
        cover) run on fewer shards or unsharded.
    """

    def __init__(
        self,
        stopping: Optional[StoppingConfig] = None,
        workers: Workers = 1,
        cache=None,
        executor: Optional[ParallelExecutor] = None,
        shards: int = 1,
    ):
        if executor is None:
            executor = ParallelExecutor(workers=workers, cache=cache)
        self.stopping = stopping
        self.executor = executor
        self.shards = shards

    @property
    def workers(self) -> int:
        """Resolved worker count of the underlying executor."""
        return self.executor.workers

    def run(self, definition: ExperimentDef) -> ExperimentResult:
        """Execute every cell of the definition."""
        cells = definition.cells()
        jobs = [(params, self.stopping) for _, _, params in cells]
        if self.shards > 1:
            from repro.sim.shard.partition import sharded_cell

            jobs = [
                (sharded_cell(params, self.shards), stopping)
                for params, stopping in jobs
            ]
        outcomes = self.executor.run_cells(jobs)

        result = ExperimentResult(definition=definition)
        for (label, _x, _params), outcome in zip(cells, outcomes):
            result.results.setdefault(label, []).append(outcome)
        return result


def run_figure(
    definition: ExperimentDef,
    stopping: Optional[StoppingConfig] = None,
    workers: Workers = 1,
    cache=None,
    executor: Optional[ParallelExecutor] = None,
    shards: int = 1,
) -> ExperimentResult:
    """Convenience one-shot wrapper around :class:`ExperimentRunner`."""
    return ExperimentRunner(
        stopping=stopping,
        workers=workers,
        cache=cache,
        executor=executor,
        shards=shards,
    ).run(definition)

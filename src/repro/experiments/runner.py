"""Experiment runner: executes a figure's cells and collects curves.

Cells are independent simulations, so the runner fans them out through
the shared :class:`~repro.experiments.executor.ParallelExecutor`
(``workers > 1``), optionally answering unchanged cells from the
content-addressed :class:`~repro.experiments.cache.CellCache`.  Results
come back as an :class:`ExperimentResult`: per-series lists of
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
    """

    def __init__(
        self,
        stopping: Optional[StoppingConfig] = None,
        workers: Workers = 1,
        cache=None,
        executor: Optional[ParallelExecutor] = None,
    ):
        if executor is None:
            executor = ParallelExecutor(workers=workers, cache=cache)
        self.stopping = stopping
        self.executor = executor

    @property
    def workers(self) -> int:
        """Resolved worker count of the underlying executor."""
        return self.executor.workers

    def run(self, definition: ExperimentDef) -> ExperimentResult:
        """Execute every cell of the definition."""
        cells = definition.cells()
        jobs = [(params, self.stopping) for _, _, params in cells]
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
) -> ExperimentResult:
    """Convenience one-shot wrapper around :class:`ExperimentRunner`."""
    return ExperimentRunner(
        stopping=stopping, workers=workers, cache=cache, executor=executor
    ).run(definition)


class ShardedRunner:
    """Figure runner executing every cell through the sharded kernel.

    The parallelism axis moves *inside* each cell: instead of fanning
    whole cells across a process pool, each cell's node graph is
    partitioned into ``shards`` kernel instances advancing under
    conservative time-window synchronization (see
    :mod:`repro.sim.shard`).  Cells therefore run sequentially here —
    the worker processes are busy hosting shards.

    Results are :class:`~repro.sim.shard.runner.ShardedResult` objects,
    attribute-compatible with ``WorkloadResult``, so the returned
    :class:`ExperimentResult` plots/reports identically.  With
    ``shards == 1`` every cell runs on the unsharded kernel and the
    figures are bit-identical to :class:`ExperimentRunner`'s.
    """

    def __init__(
        self,
        shards: int,
        stopping: Optional[StoppingConfig] = None,
        workers: Workers = "auto",
        remote_fraction: float = 0.05,
        base_latency: float = 2.0,
        backend: str = "auto",
    ):
        from repro.sim.shard.partition import effective_shards
        from repro.sim.shard.runner import run_sharded_cell

        self._run_cell = run_sharded_cell
        self._effective_shards = effective_shards
        self.shards = shards
        self.stopping = stopping
        self.workers = workers
        self.remote_fraction = remote_fraction
        self.base_latency = base_latency
        self.backend = backend

    def run(self, definition: ExperimentDef) -> ExperimentResult:
        """Execute every cell of the definition, sharded."""
        result = ExperimentResult(definition=definition)
        for label, _x, params in definition.cells():
            # Cells too small (or of a shape the sharded kernel does
            # not cover) degrade to fewer shards instead of failing
            # the sweep — a 1-client Fig 12 cell runs unsharded.
            outcome = self._run_cell(
                params,
                self._effective_shards(params, self.shards),
                self.stopping,
                remote_fraction=self.remote_fraction,
                base_latency=self.base_latency,
                backend=self.backend,
                workers=self.workers,
            )
            result.results.setdefault(label, []).append(outcome)
        return result

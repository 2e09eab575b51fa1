"""Unified parallel execution of simulation cells.

Cells are independent simulations, which makes them embarrassingly
parallel — but three modules (the figure runner, the replication
harness and the grid sweeper) used to carry their own copy-pasted
process-pool blocks.  :class:`ParallelExecutor` is the single driver
they now share:

* ``workers="auto"`` resolves to :func:`os.cpu_count`; integer counts
  below 1 are rejected everywhere, not just in the figure runner.
* Underlying :class:`~concurrent.futures.ProcessPoolExecutor` pools are
  cached per worker count and reused across figures, so sweeping
  ``repro-experiment all --workers 8`` pays the pool spin-up once.
* Dispatch is chunked (several cells per IPC round-trip) to amortize
  pickling overhead on large sweeps.
* An optional :class:`~repro.experiments.cache.CellCache` is consulted
  before any simulation runs; ``cache_hits`` / ``cache_misses`` /
  ``cells_executed`` counters make "the warm re-run simulated nothing"
  a checkable property.

A cell is any parameter dataclass that names its workload — a
figure's, an ablation's, an outlook study's or a sharded
:class:`~repro.sim.shard.partition.ShardPlan` — and every cell runs
through :func:`~repro.workload.clientserver.run_cell`.
Results are always full
:class:`~repro.workload.clientserver.WorkloadResult` objects in job
order; callers extract whatever metric they need.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.stopping import StoppingConfig
from repro.workload.clientserver import WorkloadResult, run_cell

#: One unit of work: a parameter cell and its stopping rule.
CellJob = Tuple[Any, Optional[StoppingConfig]]

#: Worker-count spelling accepted throughout the experiment layer.
Workers = Union[int, str]


def max_workers_cap() -> Optional[int]:
    """The ``REPRO_MAX_WORKERS`` ceiling, or ``None`` when unset.

    Invalid or non-positive values raise :class:`ValueError` rather
    than being silently ignored — a typo'd cap should not oversubscribe
    a shared box.
    """
    raw = os.environ.get("REPRO_MAX_WORKERS")
    if raw is None or raw.strip() == "":
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_MAX_WORKERS must be a positive integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise ValueError(
            f"REPRO_MAX_WORKERS must be >= 1, got {cap}"
        )
    return cap


def resolve_workers(workers: Workers) -> int:
    """Normalize a worker-count spelling to a positive integer.

    ``"auto"`` resolves to :func:`os.cpu_count`, clamped to at least 1
    (containers may report 0/None cores).  The ``REPRO_MAX_WORKERS``
    environment variable caps the result — both the ``"auto"``
    resolution and explicit requests — so pooled runs degrade
    gracefully on small machines instead of oversubscribing.
    Anything that is not ``"auto"`` or an integer >= 1 raises
    :class:`ValueError` — the same rejection everywhere (CLI, runner,
    replications, grid).
    """
    cap = max_workers_cap()
    if workers == "auto":
        resolved = max(1, os.cpu_count() or 1)
    else:
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise ValueError(
                f"workers must be an int >= 1 or 'auto', got {workers!r}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        resolved = workers
    if cap is not None:
        resolved = min(resolved, cap)
    return resolved


# -- shared pools -----------------------------------------------------------

_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared process pool for ``workers``, created on first use."""
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = ProcessPoolExecutor(max_workers=workers)
    return pool


def shutdown_pools() -> None:
    """Shut down every shared pool (registered via :mod:`atexit`)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown()


atexit.register(shutdown_pools)


def _execute_cell(job: CellJob) -> WorkloadResult:
    """Top-level worker entry point (must be picklable)."""
    params, stopping = job
    return run_cell(params, stopping=stopping)


class ParallelExecutor:
    """Runs batches of cells, serially or over the shared pools.

    Parameters
    ----------
    workers:
        Positive integer or ``"auto"`` (= CPU count).  ``1`` runs cells
        inline without any pool.
    cache:
        Optional :class:`~repro.experiments.cache.CellCache` consulted
        before simulating and populated afterwards.
    """

    def __init__(self, workers: Workers = 1, cache=None):
        self.workers = resolve_workers(workers)
        self.cache = cache
        #: Cells answered from the cache / simulated, over this
        #: executor's lifetime.
        self.cache_hits = 0
        self.cache_misses = 0
        self.cells_executed = 0

    # -- execution ----------------------------------------------------------

    def run_cells(self, jobs: Sequence[CellJob]) -> List[WorkloadResult]:
        """Execute every job, returning results in job order."""
        jobs = list(jobs)
        results: List[Optional[WorkloadResult]] = [None] * len(jobs)

        cache = self.cache
        if cache is not None:
            pending = []
            for i, (params, stopping) in enumerate(jobs):
                hit = cache.get(params, stopping)
                if hit is not None:
                    results[i] = hit
                    self.cache_hits += 1
                else:
                    pending.append(i)
                    self.cache_misses += 1
        else:
            pending = list(range(len(jobs)))

        if pending:
            miss_jobs = [jobs[i] for i in pending]
            outcomes = self._execute(miss_jobs)
            self.cells_executed += len(miss_jobs)
            for i, outcome in zip(pending, outcomes):
                results[i] = outcome
                if cache is not None:
                    params, stopping = jobs[i]
                    cache.put(params, stopping, outcome)

        return results  # type: ignore[return-value]

    def run_one(
        self, params, stopping: Optional[StoppingConfig] = None
    ) -> WorkloadResult:
        """Convenience wrapper for a single cell."""
        return self.run_cells([(params, stopping)])[0]

    def _execute(self, jobs: List[CellJob]) -> List[WorkloadResult]:
        if self.workers == 1 or len(jobs) == 1:
            return [_execute_cell(job) for job in jobs]
        pool = _get_pool(self.workers)
        chunksize = max(1, -(-len(jobs) // (self.workers * 4)))
        try:
            return list(pool.map(_execute_cell, jobs, chunksize=chunksize))
        except BrokenProcessPool:
            # A dead worker poisons the pool; drop it from the registry
            # so the next batch gets a fresh one.
            if _POOLS.get(self.workers) is pool:
                del _POOLS[self.workers]
            raise

    # -- introspection ------------------------------------------------------

    def counters(self) -> dict:
        """Machine-readable execution/caching counters."""
        return {
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cells_executed": self.cells_executed,
        }

    def __repr__(self) -> str:
        return (
            f"<ParallelExecutor workers={self.workers} "
            f"hits={self.cache_hits} executed={self.cells_executed}>"
        )

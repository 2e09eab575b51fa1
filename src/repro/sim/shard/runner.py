"""Public entry point of the sharded kernel: run, merge, report.

:func:`run_sharded_cell` is the sharded counterpart of
:func:`repro.workload.clientserver.run_cell`: it partitions the cell
per a :class:`~repro.sim.shard.partition.ShardPlan`, picks an execution
backend (inline or multiprocess), drives the conservative window
protocol and merges the per-shard outcomes into one
:class:`ShardedResult`, a
:class:`~repro.workload.clientserver.WorkloadResult` — the experiments
layer plots either without knowing the difference.

``shards == 1`` does not go through the window machinery at all: it
delegates to the existing single-kernel ``run_cell`` verbatim, so a
1-shard run is bit-identical to the unsharded baseline by construction.

Merging is deterministic: metric accumulators combine via the exact
parallel-Welford :meth:`~repro.sim.stats.RunningStats.merge` in
shard-id order, and :func:`merge_traces` interleaves per-shard golden
traces in ``(time, shard-id, record-index)`` order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.errors import ConfigurationError
from repro.experiments.executor import Workers, resolve_workers
from repro.sim.shard.kernel import ShardOutcome
from repro.sim.shard.mp import ProcessShardHost
from repro.sim.shard.partition import ShardPlan
from repro.sim.shard.sync import ConservativeWindowSync, LocalShardHost
from repro.sim.stats import RunningStats
from repro.sim.stopping import StoppingConfig
from repro.sim.trace import NULL_TRACER, TraceRecord, Tracer
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.workload.clientserver import WorkloadResult, run_cell
from repro.workload.params import SimulationParameters

#: Accepted backend spellings.
BACKENDS = ("auto", "inline", "process")


@dataclass
class ShardedResult(WorkloadResult):
    """Merged outcome of one sharded cell.

    A :class:`~repro.workload.clientserver.WorkloadResult` (``params``,
    the three means as named metrics, ``simulated_time``, ``raw``) plus
    the sharding facts a bench or test needs (plan, backend, window
    count, wall time, per-shard outcomes, merged trace).
    """

    shards: int = 1
    backend: str = "single"
    windows: int = 0
    wall_time_s: float = 0.0
    outcomes: List[ShardOutcome] = field(default_factory=list)
    trace_records: List[TraceRecord] = field(default_factory=list)


def merge_traces(outcomes: List[ShardOutcome]) -> List[TraceRecord]:
    """Interleave per-shard traces into one deterministic stream.

    Sorted by ``(time, shard-id, per-shard record index)``: records are
    already time-ordered within a shard, and the shard-id/index
    tie-break pins simultaneous events to a single canonical order —
    the cross-shard counterpart of the merge key in
    :mod:`repro.sim.shard.messages`.
    """
    entries = []
    for outcome in sorted(outcomes, key=lambda o: o.shard_id):
        for index, record in enumerate(outcome.trace_records):
            entries.append((record.time, outcome.shard_id, index, record))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return [e[3] for e in entries]


def _merge_outcomes(
    plan: ShardPlan,
    outcomes: List[ShardOutcome],
    sync_stats: dict,
    backend: str,
    wall_time_s: float,
) -> ShardedResult:
    """Fold shard outcomes into one result (shard-id order throughout)."""
    outcomes = sorted(outcomes, key=lambda o: o.shard_id)
    per_call = RunningStats()
    call_durations = RunningStats()
    remote = RunningStats()
    migration_total = 0.0
    blocks = granted = rejected = empty = 0
    migrations = 0
    remote_blocks = 0
    network = {"remote_messages": 0, "local_messages": 0, "total_latency": 0.0}
    for o in outcomes:
        m = o.metrics
        per_call.merge(m.per_call)
        call_durations.merge(m.call_durations)
        remote.merge(o.remote_stats)
        migration_total += (
            m.total_migration_cost
            + m.system_migration_cost
            + m.unamortized_migration_cost
        )
        blocks += m.blocks
        granted += m.granted_blocks
        rejected += m.rejected_blocks
        empty += m.empty_blocks
        migrations += o.migrations
        remote_blocks += o.remote_blocks
        for key in network:
            network[key] += o.network[key]

    calls = call_durations.count
    mean_call = call_durations.mean if calls else 0.0
    mean_migration = migration_total / calls if calls else 0.0
    simulated_time = max(o.simulated_time for o in outcomes)
    return ShardedResult(
        params=plan.params,
        metrics={
            "mean_communication_time_per_call": mean_call + mean_migration,
            "mean_call_duration": mean_call,
            "mean_migration_time_per_call": mean_migration,
        },
        simulated_time=simulated_time,
        raw={
            "plan": plan.describe(),
            "sync": sync_stats,
            "backend": backend,
            "calls": calls,
            "blocks": blocks,
            "granted_blocks": granted,
            "rejected_blocks": rejected,
            "empty_blocks": empty,
            "migrations": migrations,
            "network": network,
            "remote": {
                "blocks": remote_blocks,
                "calls": remote.count,
                "mean_round_trip": remote.mean if remote.count else 0.0,
                "expected_round_trip": plan.expected_remote_call_duration,
            },
            "per_shard": [
                {
                    "shard": o.shard_id,
                    "metrics": o.metrics.summary(),
                    "router": o.router_stats,
                    "simulated_time": o.simulated_time,
                }
                for o in outcomes
            ],
        },
        shards=plan.shards,
        backend=backend,
        windows=sync_stats.get("windows", 0),
        wall_time_s=wall_time_s,
        outcomes=outcomes,
        trace_records=merge_traces(outcomes),
    )


def _single_shard_result(
    plan: ShardPlan,
    stopping: Optional[StoppingConfig],
    trace: bool,
    wall_start: float,
) -> ShardedResult:
    """The ``shards == 1`` path: the existing kernel, verbatim."""
    tracer = Tracer() if trace else NULL_TRACER
    result = run_cell(plan.params, stopping=stopping, tracer=tracer)
    return ShardedResult(
        params=result.params,
        metrics=result.metrics,
        simulated_time=result.simulated_time,
        raw=result.raw,
        shards=1,
        backend="single",
        windows=0,
        wall_time_s=time.perf_counter() - wall_start,
        outcomes=[],
        trace_records=list(tracer.records) if trace else [],
    )


def run_sharded_cell(
    params: Union[SimulationParameters, ShardPlan],
    shards: int = 1,
    stopping: Optional[StoppingConfig] = None,
    *,
    remote_fraction: float = 0.05,
    base_latency: float = 2.0,
    remote_mean_latency: float = -1.0,
    backend: str = "auto",
    workers: Optional[Workers] = None,
    trace: bool = False,
    telemetry: Telemetry = NULL_TELEMETRY,
    max_time: Optional[float] = None,
    poll_interval: Optional[float] = None,
) -> ShardedResult:
    """Run one cell partitioned across ``shards`` kernel instances.

    Parameters
    ----------
    params:
        The global cell, or a ready-made :class:`ShardPlan` (then
        ``shards``/``remote_fraction``/latency knobs are ignored).
    shards:
        Kernel instances; ``1`` delegates to the unsharded kernel and
        is bit-identical to :func:`~repro.workload.clientserver.run_cell`.
    backend:
        ``"inline"`` (all shards in this process), ``"process"``
        (worker processes) or ``"auto"`` (process when more than one
        worker is available, inline otherwise).
    workers:
        Worker-process count for the process backend; defaults to
        ``min(shards, resolve_workers("auto"))`` and always respects
        the ``REPRO_MAX_WORKERS`` cap.  Shards are dealt round-robin
        across workers (``shard_ids[h::workers]``).
    trace:
        Record per-shard golden traces, merged into
        ``result.trace_records``.
    telemetry:
        Coordinator-side sink for ``shard.window.advance``,
        ``shard.barrier.wait_s`` and (per shard, inline backend only)
        ``shard.remote.batch_size``.
    max_time / poll_interval:
        Simulated-time horizon and stopping-rule poll cadence,
        defaulting to the monolithic driver's values.
    """
    wall_start = time.perf_counter()
    if isinstance(params, ShardPlan):
        plan = params
    else:
        plan = ShardPlan(
            params=params,
            shards=shards,
            remote_fraction=remote_fraction,
            base_latency=base_latency,
            remote_mean_latency=remote_mean_latency,
        )
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )

    if plan.shards == 1:
        return _single_shard_result(plan, stopping, trace, wall_start)

    if workers is None:
        nworkers = resolve_workers("auto")
    else:
        nworkers = resolve_workers(workers)
    nworkers = min(nworkers, plan.shards)
    if backend == "auto":
        backend = "process" if nworkers > 1 else "inline"
    if backend == "process" and nworkers == 1:
        backend = "inline"

    hosts: List = []
    try:
        if backend == "inline":
            hosts.append(
                LocalShardHost(
                    plan,
                    range(plan.shards),
                    stopping=stopping,
                    trace=trace,
                    telemetry=telemetry,
                )
            )
        else:
            for h in range(nworkers):
                group = list(range(plan.shards))[h::nworkers]
                hosts.append(
                    ProcessShardHost(
                        plan, group, stopping=stopping, trace=trace
                    )
                )
        sync = ConservativeWindowSync(
            plan,
            hosts,
            telemetry=telemetry,
            max_time=max_time,
            poll_interval=poll_interval,
        )
        outcomes = sync.run()
    finally:
        for host in hosts:
            host.close()

    sync_stats = sync.stats()
    sync_stats["workers"] = len(hosts) if backend == "process" else 1
    return _merge_outcomes(
        plan,
        outcomes,
        sync_stats,
        backend,
        time.perf_counter() - wall_start,
    )

"""Sharded parallel simulation kernel.

Partitions one parameter cell's node graph across several kernel
instances ("shards") and runs them under conservative time-window
synchronization: every cross-shard link has a deterministic minimum
delay (the lookahead), so each shard can safely simulate one window of
that length past the last barrier before any message from another shard
could possibly arrive.  Cross-shard traffic is batched per window and
exchanged at the barriers.

Layout
------
:mod:`~repro.sim.shard.partition`
    :class:`ShardPlan` — how nodes/clients/servers split into shards,
    the lookahead/window derivation and per-shard seeds.
:mod:`~repro.sim.shard.messages`
    Picklable cross-shard message records and their merge ordering.
:mod:`~repro.sim.shard.kernel`
    :class:`ShardKernel` — one shard's services bundle (environment,
    RNG streams, tracer, system, workload slice, remote-call handlers).
:mod:`~repro.sim.shard.sync`
    :class:`ConservativeWindowSync` — the window-barrier coordinator,
    advancing every shard's kernel inline in shard-id order.
:mod:`~repro.sim.shard.runner`
    :func:`run_sharded_cell` / :class:`ShardedResult` — the public
    entry point and the merged result — and :class:`ShardedWorkload`,
    the workload a plan names, so
    :func:`~repro.workload.clientserver.run_cell` runs a plan like any
    other cell.

Parallelism is across cells, not inside one: ``repro-experiment
--shards N --workers W`` runs each cell's plan on one of the
experiment executor's W pool workers.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".kernel": ("ShardKernel",),
        ".messages": ("RemoteCall", "RemoteReply", "WindowBatch"),
        ".partition": ("ShardPlan",),
        ".runner": ("ShardedResult", "merge_traces", "run_sharded_cell"),
        ".sync": ("ConservativeWindowSync",),
    },
)

__all__ = [
    "ConservativeWindowSync",
    "RemoteCall",
    "RemoteReply",
    "ShardKernel",
    "ShardPlan",
    "ShardedResult",
    "WindowBatch",
    "merge_traces",
    "run_sharded_cell",
]

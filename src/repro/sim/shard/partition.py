"""The sharding plan: how one cell partitions into kernel instances.

:class:`ShardPlan` is pure, picklable configuration: it carries the
global :class:`~repro.workload.params.SimulationParameters`, derives the
per-shard sub-cells (contiguous node blocks with their share of clients
and servers), the conservative lookahead/window length, and the
per-shard root seeds.  A plan fully determines a run, and it is a cell
like any other: it names its workload, so the experiment executor runs,
pools and caches it through :func:`~repro.workload.clientserver.run_cell`.

Lookahead derivation
--------------------
Cross-shard links use a shifted-exponential latency
``base_latency + Exp(mean)`` (see
:class:`~repro.network.latency.ShiftedExponentialLatency`): the
deterministic ``base_latency`` is the per-link minimum delay, and the
minimum over all cross-shard links — they are homogeneous, so simply
``base_latency`` — is the lookahead ``L``.  A message sent at time
``t`` inside window ``[W, W+L)`` arrives at ``t + delay >= W + L``,
i.e. never inside a window any shard has already simulated; advancing
every shard ``L`` units between barriers is therefore safe.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.workload.params import SimulationParameters


def effective_shards(params, shards: int) -> int:
    """The largest shard count ``<= shards`` the cell supports.

    Sweeps like Fig 12 include cells too small to split (a 1-client
    cell cannot occupy 2 shards) and shapes the sharded kernel does not
    cover (layered, call-by-visit, and every outlook study's cell);
    those degrade to the unsharded kernel rather than failing the
    whole sweep.
    """
    if (
        shards <= 1
        or not isinstance(params, SimulationParameters)
        or params.is_layered
        or params.block_style != "move"
    ):
        return 1
    return max(
        1, min(shards, params.nodes, params.clients, params.servers_layer1)
    )


def sharded_cell(params, shards: int):
    """``params`` as a sweep runs it at ``shards``.

    A :class:`ShardPlan` with the sweeps' cross-shard knobs (5 % of
    move-blocks remote, lookahead 2.0) at :func:`effective_shards`, or
    the cell itself when it does not split.
    """
    n = effective_shards(params, shards)
    if n == 1:
        return params
    return ShardPlan(
        params=params, shards=n, remote_fraction=0.05, base_latency=2.0
    )


@dataclass(frozen=True)
class ShardPlan:
    """Partition of one parameter cell across ``shards`` kernels.

    Attributes
    ----------
    params:
        The *global* cell: total nodes, clients and servers across all
        shards.  Partitioning splits these counts; it does not multiply
        them.
    shards:
        Number of kernel instances.
    remote_fraction:
        Probability that a client's move-block targets another shard's
        hot object instead of a local server (the hot-spot scenario's
        cross-shard traffic knob).  Forced to 0 semantics when
        ``shards == 1``.
    base_latency:
        Deterministic component of cross-shard link latency — the
        conservative lookahead.  Must be positive for ``shards > 1``.
    remote_mean_latency:
        Mean of the exponential component of cross-shard latency
        (defaults to the cell's ``mean_message_latency``).
    """

    params: SimulationParameters
    shards: int = 1
    remote_fraction: float = 0.0
    base_latency: float = 2.0
    remote_mean_latency: float = -1.0  # -1 -> params.mean_message_latency

    def __post_init__(self):
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}"
            )
        if not 0.0 <= self.remote_fraction <= 1.0:
            raise ConfigurationError(
                f"remote_fraction must be in [0, 1], got "
                f"{self.remote_fraction}"
            )
        if self.shards > 1:
            if self.base_latency <= 0:
                raise ConfigurationError(
                    "sharded runs need a positive cross-shard minimum "
                    f"delay (lookahead), got {self.base_latency}"
                )
            if self.params.nodes < self.shards:
                raise ConfigurationError(
                    f"cannot split {self.params.nodes} nodes into "
                    f"{self.shards} shards"
                )
            if self.params.clients < self.shards:
                raise ConfigurationError(
                    f"cannot split {self.params.clients} clients into "
                    f"{self.shards} shards (every shard needs a client)"
                )
            if self.params.servers_layer1 < self.shards:
                raise ConfigurationError(
                    f"cannot split {self.params.servers_layer1} servers "
                    f"into {self.shards} shards"
                )
            if self.params.is_layered:
                raise ConfigurationError(
                    "layered (S2 > 0) workloads are not shardable yet"
                )
            if self.params.block_style != "move":
                raise ConfigurationError(
                    "sharded cells support block_style='move' only"
                )

    @property
    def workload(self) -> type:
        """The workload that simulates this plan (sharded)."""
        from repro.sim.shard.runner import ShardedWorkload

        return ShardedWorkload

    # -- derived synchronization constants ---------------------------------

    @property
    def lookahead(self) -> float:
        """Minimum cross-shard link delay — the safe advance bound."""
        return self.base_latency

    @property
    def window(self) -> float:
        """Length of one synchronization window (== lookahead)."""
        return self.base_latency

    @property
    def remote_latency_mean(self) -> float:
        """Mean of the exponential cross-shard latency component."""
        if self.remote_mean_latency >= 0:
            return self.remote_mean_latency
        return self.params.mean_message_latency

    @property
    def expected_remote_call_duration(self) -> float:
        """Analytic mean round-trip of one cross-shard call.

        Request (``base + Exp(mean)``) + service (``Exp(1)``, the
        paper's normalized remote-call duration) + reply: closed form
        used by the golden tests to check the sharded pipeline without
        a reference simulation.
        """
        return 2.0 * (self.base_latency + self.remote_latency_mean) + 1.0

    # -- partitioning -------------------------------------------------------

    def _split(self, total: int, shard_id: int) -> int:
        base, extra = divmod(total, self.shards)
        return base + (1 if shard_id < extra else 0)

    def nodes_of(self, shard_id: int) -> int:
        """Node count of one shard (contiguous block partition)."""
        return self._split(self.params.nodes, shard_id)

    def clients_of(self, shard_id: int) -> int:
        """Client count of one shard."""
        return self._split(self.params.clients, shard_id)

    def servers_of(self, shard_id: int) -> int:
        """First-layer server count of one shard."""
        return self._split(self.params.servers_layer1, shard_id)

    def shard_seed(self, shard_id: int) -> int:
        """Root seed of one shard's private stream family.

        Mixed through CRC-32 so shards never share stream seeds with
        each other (or with the unsharded cell) while staying a pure
        function of ``(params.seed, shard_id)``.
        """
        if shard_id < 0 or shard_id >= self.shards:
            raise ConfigurationError(
                f"shard_id {shard_id} out of range [0, {self.shards})"
            )
        return zlib.crc32(f"{self.params.seed}/shard.{shard_id}".encode())

    def shard_params(self, shard_id: int) -> SimulationParameters:
        """The sub-cell one shard simulates locally.

        The shard keeps the global cell's timing/policy parameters and
        receives its share of nodes, clients and servers; placement
        within the shard follows the same round-robin rule the
        unsharded cell uses globally.
        """
        return self.params.with_overrides(
            nodes=self.nodes_of(shard_id),
            clients=self.clients_of(shard_id),
            servers_layer1=self.servers_of(shard_id),
            seed=self.shard_seed(shard_id),
        )

    def with_shards(self, shards: int) -> "ShardPlan":
        """This plan at a different shard count (same everything else)."""
        return ShardPlan(
            params=self.params,
            shards=shards,
            remote_fraction=self.remote_fraction,
            base_latency=self.base_latency,
            remote_mean_latency=self.remote_mean_latency,
        )

    def describe(self) -> dict:
        """Machine-readable plan summary for reports and benches."""
        return {
            "shards": self.shards,
            "window": self.window,
            "lookahead": self.lookahead,
            "remote_fraction": self.remote_fraction,
            "base_latency": self.base_latency,
            "remote_latency_mean": self.remote_latency_mean,
            "nodes": [self.nodes_of(s) for s in range(self.shards)],
            "clients": [self.clients_of(s) for s in range(self.shards)],
            "servers": [self.servers_of(s) for s in range(self.shards)],
            "seeds": [self.shard_seed(s) for s in range(self.shards)],
        }

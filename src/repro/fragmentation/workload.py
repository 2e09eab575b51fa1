"""Fragmented objects under conflicting migration control (§5 outlook).

Fragmentation [MGL+94] splits one logical object into K fragments that
can live on different nodes.  The paper's closing question applies here
too: do non-monolithic conflicts hurt fragmented objects the way they
hurt monolithic ones — and does granularity change the picture?

The model: each logical object is K fragments of size 1/K (so a
fragment's transfer time is M/K — the state is split, not duplicated).
A client's move-block touches a random subset of fragments (a fraction
``touched_fraction`` of K), issues one move per touched fragment *in
parallel* through the configured migration policy, performs its N
invocations against random touched fragments, and ends all the blocks.

Granularity trade-off this exposes (``repro-experiment fragmentation
--check``):

* finer fragments mean a conflict steals less state and blocks callers
  for M/K instead of M — degradation shrinks with K;
* but every touched fragment costs its own move request message, so
  overhead grows with K — at low concurrency coarse objects win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.core.moveblock import MoveBlock
from repro.errors import ConfigurationError
from repro.runtime.objects import DistributedObject
from repro.runtime.system import DistributedSystem
from repro.workload.clientserver import ClientServerWorkload


@dataclass(frozen=True)
class FragmentationParameters:
    """Configuration of one fragmentation-study cell."""

    nodes: int = 27
    clients: int = 10
    #: Number of logical objects clients share.
    logical_objects: int = 3
    #: Fragments per logical object (K).  K=1 is the monolithic case.
    fragments_per_object: int = 4
    #: Fraction of a logical object's fragments a block touches.
    touched_fraction: float = 0.5
    #: Transfer time of a whole (size-1) logical object; a fragment
    #: takes migration_duration / K.
    migration_duration: float = 6.0
    mean_calls_per_block: float = 8.0
    mean_intercall_time: float = 1.0
    mean_interblock_time: float = 30.0
    policy: str = "placement"
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.clients < 1:
            raise ConfigurationError("need at least one client")
        if self.logical_objects < 1:
            raise ConfigurationError("need at least one logical object")
        if self.fragments_per_object < 1:
            raise ConfigurationError("fragments_per_object must be >= 1")
        if not 0.0 < self.touched_fraction <= 1.0:
            raise ConfigurationError("touched_fraction must be in (0, 1]")
        if self.migration_duration < 0:
            raise ConfigurationError("migration_duration must be >= 0")
        if self.mean_calls_per_block <= 0:
            raise ConfigurationError("mean_calls_per_block must be > 0")

    @property
    def workload(self) -> type:
        """The workload class that simulates this cell."""
        return FragmentationWorkload

    @property
    def touched_count(self) -> int:
        """Fragments touched per block (at least one)."""
        return max(
            1, math.ceil(self.touched_fraction * self.fragments_per_object)
        )


class FragmentationWorkload(ClientServerWorkload):
    """The client–server loop over fragmented logical objects.

    A block's target is a random subset of one logical object's
    fragments; it moves them in parallel, spreads its N calls over
    them, and ends every fragment's block.
    """

    TIMING_STREAM = "frag.client.{}.t"
    PICK_STREAM = "frag.client.{}.p"
    MAX_TIME = 2_000_000.0

    def _build_system(self, params, tracer) -> DistributedSystem:
        return DistributedSystem(
            nodes=params.nodes,
            seed=params.seed,
            migration_duration=params.migration_duration,
            tracer=tracer,
        )

    def _place_servers(self) -> List[DistributedObject]:
        # K fragments per logical object, each 1/K of the state.
        params = self.params
        k = params.fragments_per_object
        self.fragments: Dict[int, List[DistributedObject]] = {
            j: [
                self.system.create_server(
                    node=(j * k + i) % params.nodes,
                    name=f"obj{j}-frag{i}",
                    size=1.0 / k,
                )
                for i in range(k)
            ]
            for j in range(params.logical_objects)
        }
        return [f for frags in self.fragments.values() for f in frags]

    def _place_clients(self) -> List[DistributedObject]:
        return [
            self.system.create_client(node=i % self.params.nodes)
            for i in range(self.params.clients)
        ]

    def _move_block(self, client: DistributedObject, picker, plan):
        """Move the touched fragments in parallel, make the N calls on
        them, and end every fragment's block.  Returns the master block
        that carries the calls and the move phase's cost."""
        env = self.system.env
        logical = picker.integer(0, self.params.logical_objects)
        pool = list(self.fragments[logical])
        picker.shuffle(pool)
        touched = pool[: self.params.touched_count]

        # Parallel move phase: one move-block per touched fragment.
        blocks = [MoveBlock(client.node_id, fragment) for fragment in touched]
        move_start = env.now
        yield env.all_of(
            [
                env.process(self.policy.move(b), name=f"frag-move-{b.block_id}")
                for b in blocks
            ]
        )

        # Master accounting block: the move phase's wall-clock cost
        # is amortized over the logical block's calls (§4.2.1).
        master = MoveBlock(client.node_id, touched[0])
        master.granted = any(b.granted for b in blocks)
        master.migration_cost = env.now - move_start

        for gap in plan.intercall_times:
            if gap > 0:
                yield env.timeout(gap)
            fragment = picker.choice(touched)
            result = yield from self.system.invocations.invoke(
                client.node_id, fragment
            )
            master.record_call(result.duration)

        for block in blocks:
            yield from self.policy.end(block)
        master.ended_at = env.now
        return master

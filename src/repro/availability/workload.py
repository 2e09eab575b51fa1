"""The collocation-vs-distribution availability experiment (§2.2).

C clients share a *group* of related server objects (think a document,
its index entry, and its ACL) and issue two kinds of operations:

* *service accesses* (fraction ``1 - group_op_fraction``): the client
  needs any one member (the members back each other up, e.g. replicated
  directory instances) — it calls a preferred member and *fails over*
  to another live one if the preferred member's node is down;
* *group operations*: a chained call through every member (the client
  invokes the first member, which nests a call to the second, ...).

Two placements are compared:

``collocated``
    The whole group on one node: a group operation's internal hops are
    free, but one node failure takes every member down at once — there
    is nothing to fail over to.
``spread``
    Members round-robin across distinct nodes: every chain hop is a
    remote round trip, but a service access survives any single
    failure (the paper's "better failure coverage").

This is §2.2's tension quantified: "availability calls for
distributing objects, while performance calls for collocating them."
With rare failures and chain-heavy traffic, collocation wins (free
internal hops).  With frequent failures and independent accesses,
spreading wins (a failure blocks only the touched member instead of
everything).  Which placement is right depends on the usage pattern —
the same lesson the migration study teaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.availability.faults import FaultInjector
from repro.errors import ConfigurationError
from repro.runtime.objects import DistributedObject
from repro.sim.stats import RunningStats
from repro.workload.clientserver import CellWorkload


@dataclass(frozen=True)
class AvailabilityParameters:
    """Configuration of one availability-study cell."""

    nodes: int = 12
    clients: int = 6
    #: Objects per group (all touched by every operation).
    group_size: int = 3
    #: Placement: "collocated" or "spread".
    placement: str = "spread"
    #: Mean up-time per node (exponential).
    mttf: float = 1_000.0
    #: Mean repair time per node (exponential).
    mttr: float = 50.0
    #: Mean gap between a client's operations.
    mean_interop_time: float = 10.0
    #: Fraction of operations that are chained group operations; the
    #: rest are single-member accesses.
    group_op_fraction: float = 0.3
    #: Disable failures entirely (the performance-only baseline).
    faults_enabled: bool = True
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.nodes < 2:
            raise ConfigurationError("need at least two nodes")
        if self.clients < 1:
            raise ConfigurationError("need at least one client")
        if self.group_size < 1:
            raise ConfigurationError("group_size must be >= 1")
        if self.placement not in ("collocated", "spread"):
            raise ConfigurationError(
                f"placement must be 'collocated' or 'spread', got "
                f"{self.placement!r}"
            )
        if self.mttf <= 0 or self.mttr <= 0:
            raise ConfigurationError("mttf and mttr must be positive")
        if self.mean_interop_time < 0:
            raise ConfigurationError("mean_interop_time must be >= 0")
        if not 0.0 <= self.group_op_fraction <= 1.0:
            raise ConfigurationError("group_op_fraction must be in [0, 1]")

    @property
    def workload(self) -> type:
        """The workload class that simulates this cell."""
        return AvailabilityWorkload


class AvailabilityWorkload(CellWorkload):
    """Builds and runs one availability-study cell."""

    CHUNK = 5_000.0
    MAX_TIME = 3_000_000.0

    def __init__(self, params: AvailabilityParameters, **kwargs):
        super().__init__(params, **kwargs)
        self.group: List[DistributedObject] = [
            self.system.create_server(
                node=self._member_node(i), name=f"member-{i}"
            )
            for i in range(params.group_size)
        ]
        self.faults = FaultInjector(
            self.system, mttf=params.mttf, mttr=params.mttr
        )
        self.op_times = RunningStats()
        self.blocked_times = RunningStats()
        self._chain_blocked = 0.0

    def _member_node(self, index: int) -> int:
        if self.params.placement == "collocated":
            # The whole group lives on the last node (clients start at
            # node 0, so the group is remote to most of them either way).
            return self.params.nodes - 1
        # Spread: round-robin over the non-client end of the node range.
        return (self.params.nodes - 1 - index) % self.params.nodes

    def _pick_live_member(self, stream):
        """Preferred member, or the first live alternative (failover).

        Members are interchangeable service instances for this access
        type; knowing which nodes are up is free (the same idealized
        knowledge the immediate-update locator grants for locations).
        If every member is down the preferred one is returned and the
        caller blocks on its recovery.
        """
        preferred = stream.integer(0, len(self.group))
        if not self.params.faults_enabled:
            return self.group[preferred]
        for offset in range(len(self.group)):
            member = self.group[(preferred + offset) % len(self.group)]
            if not self.faults.is_down(member.node_id):
                return member
        return self.group[preferred]

    def _invoke(self, node: int, member, body=None):
        """Fault-aware (or plain) invocation; returns blocked time."""
        if self.params.faults_enabled:
            _, blocked = yield from self.faults.invoke(node, member, body=body)
            return blocked
        yield from self.system.invocations.invoke(node, member, body=body)
        return 0.0

    def _chain_body(self, depth: int):
        """Nested-call body: member[depth] calls member[depth + 1]...

        This is where collocation pays: with the whole group on one
        node every nested hop is free.
        """
        if depth >= len(self.group):
            return None

        def body(callee_node: int):
            blocked = yield from self._invoke(
                callee_node, self.group[depth], body=self._chain_body(depth + 1)
            )
            self._chain_blocked += blocked

        return body

    def client_process(self, index: int):
        """One client's endless mixed-operation loop."""
        node = index % self.params.nodes
        stream = self.system.streams.stream(f"avail.client.{index}")
        env = self.system.env
        while True:
            gap = stream.exponential(self.params.mean_interop_time)
            if gap > 0:
                yield env.timeout(gap)
            start = env.now
            self._chain_blocked = 0.0
            if stream.uniform() < self.params.group_op_fraction:
                # Group operation: chained call through every member.
                blocked = yield from self._invoke(
                    node, self.group[0], body=self._chain_body(1)
                )
                blocked += self._chain_blocked
            else:
                # Service access: any live member will do (failover).
                member = self._pick_live_member(stream)
                blocked = yield from self._invoke(node, member)
            elapsed = env.now - start
            self.op_times.add(elapsed)
            self.blocked_times.add(blocked)
            self.stopping.add(elapsed)

    def _start_services(self) -> None:
        if self.params.faults_enabled:
            self.faults.start()

    def measure(self) -> Tuple[Dict[str, float], Dict]:
        """Mean operation and blocked time, and the failure count."""
        metrics = {
            "mean_op_time": self.op_times.mean if self.op_times.count else 0.0,
            "mean_blocked_time": (
                self.blocked_times.mean if self.blocked_times.count else 0.0
            ),
            "failures": self.faults.failures,
        }
        return metrics, {
            "operations": self.op_times.count,
            "stopping": self.stopping.summary(),
        }

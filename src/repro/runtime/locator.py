"""Object-location strategies.

§4.1 lists the classic alternatives — name-server lookup [ChC91],
forward addressing [JLH+88], broadcast [DLA+91] and immediate update
[Dec86] — and then *neglects* them: the paper folds location cost into
the normalized Exp(1) invocation latency.  We implement all four so the
normalization can be checked (``repro-experiment locator --check``):
each locator yields the *extra* latency a caller spends learning the
current location before sending the actual request.

The registry itself is always authoritative; locators only model the
protocol cost of querying it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Generator, List, Tuple

from repro.errors import NodeCrashedError
from repro.network.network import Network
from repro.runtime.objects import DistributedObject
from repro.sim.kernel import Environment


class Locator(ABC):
    """Strategy for a caller to learn an object's current node."""

    #: Registry name used by experiment configs.
    name = "abstract"
    #: True when :meth:`locate` never waits and just returns
    #: ``obj.node_id``; callers may then read it directly instead of
    #: driving a generator that never yields.
    free = False

    def __init__(self, env: Environment, network: Network):
        self.env = env
        self.network = network
        #: Extra messages spent on location traffic.
        self.lookup_messages = 0

    @abstractmethod
    def locate(
        self, caller_node: int, obj: DistributedObject
    ) -> Generator:
        """Process fragment spending the lookup cost; returns node id."""

    def note_migration(self, obj: DistributedObject, target_node: int) -> None:
        """Hook invoked by the migration service after each move."""


class ImmediateUpdateLocator(Locator):
    """Every node learns every move immediately — zero lookup cost.

    This is the paper's effective model: location knowledge is free and
    current, so the only costs are invocation and migration latencies.
    """

    name = "immediate"
    free = True

    def locate(self, caller_node: int, obj: DistributedObject) -> Generator:
        return obj.node_id
        yield  # pragma: no cover - makes this a generator function


class NameServerLocator(Locator):
    """A central name server resolves locations.

    Each lookup from a node other than the server's costs a round trip
    to the name-server node.  A co-located caller pays nothing.
    """

    name = "nameserver"

    def __init__(self, env: Environment, network: Network, server_node: int = 0):
        super().__init__(env, network)
        self.server_node = server_node

    def locate(self, caller_node: int, obj: DistributedObject) -> Generator:
        if caller_node != self.server_node:
            self.lookup_messages += 2
            yield from self.network.round_trip(caller_node, self.server_node)
        return obj.node_id


class ForwardingLocator(Locator):
    """Stale stubs with forwarding addresses (Emerald style).

    Each node remembers where it last found each object; a lookup
    follows one forwarding hop per migration that happened since,
    capped to the object's true location.  The caller's knowledge is
    refreshed by the lookup.

    Chain compaction and crash repair
    --------------------------------
    The locator tracks the *actual* chain of homes per object (one
    entry per migration) and, per chain position, a forwarding pointer.
    A successful lookup **compacts** the portion of the chain it
    traversed: every forwarder on the path is updated to point directly
    at the object's current home, so the next stale caller entering the
    chain anywhere on that stretch pays a single hop instead of
    re-walking it.

    Traversal is bounded by ``max_hops``; and when a ``health``
    provider is installed (the ground-truth
    :class:`~repro.availability.faults.FaultInjector` or a heartbeat
    :class:`~repro.runtime.failure.FailureDetector`), a chain whose
    next forwarder is hosted on a crashed/suspected node raises
    :class:`~repro.errors.NodeCrashedError` instead of hanging on a
    dead participant — the caller falls back to a fresh (authoritative)
    lookup path or retries later.
    """

    name = "forwarding"

    def __init__(
        self,
        env: Environment,
        network: Network,
        max_hops: int = 16,
        health=None,
    ):
        super().__init__(env, network)
        self.max_hops = max_hops
        #: Optional node-health provider (``is_down(node_id)``); chain
        #: traversal refuses to hop through a node it reports down.
        self.health = health
        #: (caller_node, object_id) -> (move_seq seen, node seen)
        self._known: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: object_id -> monotonically increasing move sequence number
        self._move_seq: Dict[int, int] = {}
        #: object_id -> home after the i-th migration (chain[i-1]).
        self._chain: Dict[int, List[int]] = {}
        #: object_id -> forwarding pointer per chain position: the
        #: position ``jump[p]`` that position ``p`` forwards to
        #: (initially ``p + 1``; compaction moves it forward).
        self._jump: Dict[int, List[int]] = {}
        #: Number of chain stretches collapsed after successful locates.
        self.chains_compacted = 0
        #: Forwarding hops followed by the most recent :meth:`locate`
        #: (telemetry tags its ``locate`` spans with this).
        self.last_hops = 0

    def note_migration(self, obj: DistributedObject, target_node: int) -> None:
        oid = obj.object_id
        seq = self._move_seq.get(oid, 0) + 1
        self._move_seq[oid] = seq
        self._chain.setdefault(oid, []).append(target_node)
        # The previous home (position seq-1) forwards to the new one.
        self._jump.setdefault(oid, []).append(seq)

    def chain_of(self, obj: DistributedObject) -> List[int]:
        """The object's home after each migration (diagnostics/tests)."""
        return list(self._chain.get(obj.object_id, []))

    def locate(self, caller_node: int, obj: DistributedObject) -> Generator:
        oid = obj.object_id
        seq = self._move_seq.get(oid, 0)
        seen_seq, seen_node = self._known.get(
            (caller_node, oid), (0, obj.node_id)
        )
        hops = 0
        self.last_hops = 0
        if seq > seen_seq:
            chain = self._chain[oid]
            jump = self._jump[oid]
            path: List[int] = []  # chain positions whose pointer we follow
            pos = seen_seq
            while pos < seq and hops < self.max_hops:
                nxt = jump[pos]
                if nxt < seq:
                    # The hop lands on an intermediate forwarder, not
                    # the live object: refuse to chase a dead node.
                    hop_node = chain[nxt - 1]
                    if self.health is not None and self.health.is_down(
                        hop_node
                    ):
                        raise NodeCrashedError(
                            f"forwarding chain for {obj.name} passes "
                            f"through crashed node {hop_node} "
                            f"(position {nxt}/{seq})"
                        )
                path.append(pos)
                pos = nxt
                hops += 1
                self.last_hops = hops
            # Following a forwarding chain: one extra message per stale
            # hop.  The final hop lands at the object, so the
            # subsequent request does not need to be re-charged; we
            # charge hops-1 extra legs and let the normal request
            # message cover the last one.
            for _ in range(max(0, hops - 1)):
                self.lookup_messages += 1
                yield from self.network.transmit(caller_node, obj.node_id)
            if len(path) > 1:
                # Compaction: every forwarder on the traversed stretch
                # now points directly at the current home.
                for p in path:
                    jump[p] = seq
                self.chains_compacted += 1
        self._known[(caller_node, oid)] = (seq, obj.node_id)
        return obj.node_id


class BroadcastLocator(Locator):
    """Location by broadcast query (Clouds style).

    A remote lookup costs one broadcast (modelled as a single message
    latency — all replicas are queried in parallel) plus the reply from
    the owning node.
    """

    name = "broadcast"

    def locate(self, caller_node: int, obj: DistributedObject) -> Generator:
        if obj.node_id != caller_node:
            self.lookup_messages += 2
            yield from self.network.round_trip(caller_node, obj.node_id)
        return obj.node_id


#: Registry of locator factories by name.
LOCATORS = {
    ImmediateUpdateLocator.name: ImmediateUpdateLocator,
    NameServerLocator.name: NameServerLocator,
    ForwardingLocator.name: ForwardingLocator,
    BroadcastLocator.name: BroadcastLocator,
}


def make_locator(name: str, env: Environment, network: Network) -> Locator:
    """Instantiate a locator by registry name."""
    try:
        cls = LOCATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown locator {name!r}; choose from {sorted(LOCATORS)}"
        ) from None
    return cls(env, network)

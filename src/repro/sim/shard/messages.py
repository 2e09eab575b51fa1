"""Cross-shard message records and their deterministic merge order.

The records are plain frozen dataclasses of scalars — no references
into any shard's live object graph.  The total order of cross-shard
events is

    ``(window, deliver_at, src_shard, seq)``

which the coordinator sorts inbound batches by before scheduling
delivery, so a merged run does not depend on the order in which shards
produced their messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class RemoteCall:
    """A request message from a client's shard to a remote server's.

    Attributes
    ----------
    src_shard / dst_shard:
        Sending and owning shard ids.
    seq:
        Per-sender sequence number; ``(src_shard, seq)`` is the call's
        globally unique correlation id.
    send_time:
        Simulated time the request left the client.
    deliver_at:
        Simulated arrival time at the destination shard.  The sampled
        link delay is ``deliver_at - send_time >= lookahead`` by
        construction — that inequality is the conservative-sync safety
        argument.
    target:
        Destination-local server index (the shard's hot object when 0).
    """

    src_shard: int
    dst_shard: int
    seq: int
    send_time: float
    deliver_at: float
    target: int = 0

    @property
    def call_id(self) -> Tuple[int, int]:
        """Globally unique correlation id."""
        return (self.src_shard, self.seq)


@dataclass(frozen=True)
class RemoteReply:
    """The response message completing one :class:`RemoteCall`.

    ``call_seq``/``call_shard`` echo the request's correlation id;
    ``service_time`` is the server-side duration for accounting.
    """

    src_shard: int
    dst_shard: int
    seq: int
    call_shard: int
    call_seq: int
    send_time: float
    deliver_at: float
    service_time: float

    @property
    def call_id(self) -> Tuple[int, int]:
        """Correlation id of the request this reply answers."""
        return (self.call_shard, self.call_seq)


#: Any cross-shard message.
RemoteMessage = "RemoteCall | RemoteReply"


@dataclass(frozen=True)
class WindowBatch:
    """One shard's outbound messages for one synchronization window."""

    window: int
    src_shard: int
    messages: Tuple

    def __len__(self) -> int:
        return len(self.messages)


def merge_key(message) -> Tuple[float, int, int]:
    """Sort key ordering inbound messages deterministically.

    The window index is implied: batches are exchanged per window, so
    sorting within one exchange by ``(deliver_at, src_shard, seq)``
    realizes the documented ``(window, timestamp, shard-id, seq)``
    total order.
    """
    return (message.deliver_at, message.src_shard, message.seq)


def route_batches(batches: List[WindowBatch], shards: int) -> List[List]:
    """Group one window's batches into per-destination delivery lists.

    Returns ``inbound`` with ``inbound[s]`` sorted by :func:`merge_key`
    — identical output for any batch arrival order.
    """
    inbound: List[List] = [[] for _ in range(shards)]
    for batch in batches:
        for message in batch.messages:
            inbound[message.dst_shard].append(message)
    for messages in inbound:
        messages.sort(key=merge_key)
    return inbound

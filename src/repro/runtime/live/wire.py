"""Wire vocabulary of the live backend: envelopes, kinds, dedup.

Every live message is one pickled :class:`Envelope`.  The envelope
carries the protocol-level message kind (the same vocabulary as the
sim's :class:`~repro.runtime.messages.MessageKind`, extended with the
control-plane kinds only a real deployment needs: heartbeats, fault
injection, drain, restart recovery), plus:

``msg_id``
    Globally unique ``(src_node, sequence)`` pair.  Reconnects resend
    unacknowledged envelopes, so the receiver deduplicates on this id —
    *idempotent redelivery* is what makes connection-level retry safe.
``reply_to``
    For responses: the ``msg_id`` of the request being answered, used
    by the sender to correlate its pending futures.
``trace``
    Optional ``(trace_id, parent_span_id)`` telemetry context.  A mover
    stamps its migration-root span context onto MOVE_REQUEST /
    OBJECT_TRANSFER / PLACE envelopes, and the arbiter forwards it on
    EVICT/RESTORE notices, so one live migration renders as a single
    cross-process span tree.  ``None`` (the default, and the
    NullTelemetry path) costs nothing on the wire beyond the field.

Payloads are plain picklable objects (dicts of primitives and, for
OBJECT_TRANSFER, the pickled object state itself).  Pickle is safe here
because every peer is a process *we* spawned on this machine — the
transport never listens on a routable interface by default.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Any, Dict, List, Optional, Set, Tuple

#: Control/data kinds of the live protocol.  String values keep frames
#: readable in dumps and decouple the wire from enum identity.
HEARTBEAT = "heartbeat"
LOCATE = "locate"
MOVE_REQUEST = "move.request"
OBJECT_TRANSFER = "object.transfer"
PLACE = "place"
ROLLBACK = "rollback"
END_REQUEST = "end.request"
INVOKE = "invoke"
BREAK_CRASHED = "break.crashed"
SET_FAULTS = "set.faults"
DRAIN = "drain"
SHUTDOWN = "shutdown"
REPLY = "reply"
EVICT = "evict"
SEED = "seed"
START = "start"
STATS = "stats"
INVENTORY = "inventory"
#: Settlement notice to a transfer's source: restore the held-back
#: copy.  Distinct from ROLLBACK (the *request* a mover sends to the
#: arbiter) because under home arbitration one worker plays both
#: roles and must tell the messages apart.
RESTORE = "restore"
#: Home arbitration (peer-granted leases) control kinds.
HOME_ASSIGN = "home.assign"  # supervisor -> worker: own these slices
HOME_MAP = "home.map"  # supervisor -> worker: slice -> home node map
HOME_STATE = "home.state"  # supervisor <- worker: authoritative placements
PLACE_NOTICE = "place.notice"  # home -> supervisor: mirror a commit to WAL
BREAK_HOMED = "break.homed"  # supervisor -> homes: a peer died, break it
SETTLE_HOMED = "settle.homed"  # supervisor -> worker: evict/restore lists
SETTLE = "settle"  # supervisor -> homes: drain-time transfer settlement

#: Node id of the supervisor on the live control plane.
SUPERVISOR = -1


@dataclass
class Envelope:
    """One live message: kind + addressing + dedup id + payload."""

    kind: str
    src: int
    dst: int
    msg_id: Tuple[int, int]
    payload: Dict[str, Any] = field(default_factory=dict)
    reply_to: Optional[Tuple[int, int]] = None
    trace: Optional[Tuple[int, int]] = None

    def encode(self) -> bytes:
        """Pickle this envelope for the wire."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def decode(blob: bytes) -> "Envelope":
        """Inverse of :meth:`encode`."""
        envelope = pickle.loads(blob)
        if not isinstance(envelope, Envelope):
            raise TypeError(
                f"frame decoded to {type(envelope).__name__}, not Envelope"
            )
        return envelope


#: Sequence-space width reserved per node incarnation: a restarted
#: worker starts minting above everything its predecessor could have
#: sent, so peers' dedup floors (which outlive the crash) never
#: suppress the new incarnation's messages as replays of the old one.
INCARNATION_SPAN = 1_000_000_000


class EnvelopeFactory:
    """Mints envelopes with monotonically increasing per-node msg ids."""

    __slots__ = ("node_id", "_seq")

    def __init__(self, node_id: int, incarnation: int = 0):
        if incarnation < 0:
            raise ValueError(f"incarnation must be >= 0, got {incarnation}")
        self.node_id = node_id
        self._seq = count(incarnation * INCARNATION_SPAN + 1)

    def make(
        self,
        kind: str,
        dst: int,
        payload: Optional[Dict[str, Any]] = None,
        reply_to: Optional[Tuple[int, int]] = None,
        trace: Optional[Tuple[int, int]] = None,
    ) -> Envelope:
        """Mint an envelope with the next id in this incarnation's band."""
        return Envelope(
            kind=kind,
            src=self.node_id,
            dst=dst,
            msg_id=(self.node_id, next(self._seq)),
            payload=payload or {},
            reply_to=reply_to,
            trace=trace,
        )


class DedupIndex:
    """Sliding-window duplicate detector keyed by envelope msg_id.

    A reconnecting sender may redeliver envelopes whose ack was lost
    with the connection; ``seen()`` answers whether an id was already
    processed so the handler runs at most once.  Per peer, the index
    remembers the highest contiguous sequence acknowledged plus a
    bounded window of out-of-order ids — O(window) memory per peer no
    matter how long the run.
    """

    __slots__ = ("window", "_floor", "_recent", "_oldest", "duplicates")

    def __init__(self, window: int = 4096):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        #: peer -> every sequence <= floor has been seen.
        self._floor: Dict[int, int] = {}
        #: peer -> out-of-order seen sequences above the floor.
        self._recent: Dict[int, Set[int]] = {}
        #: peer -> min-heap over the same ids as ``_recent``.  A sender
        #: mints ids from one counter across all its destinations, so
        #: each receiver sees gaps, its floor stalls and the window
        #: stays full: the heap makes evicting the oldest id O(log
        #: window) where sorting the window cost O(window log window)
        #: per frame.
        self._oldest: Dict[int, List[int]] = {}
        #: Total duplicates suppressed.
        self.duplicates = 0

    def seen(self, msg_id: Tuple[int, int]) -> bool:
        """Record ``msg_id``; True when it was already processed."""
        peer, seq = msg_id
        floor = self._floor.get(peer, 0)
        if seq <= floor:
            self.duplicates += 1
            return True
        recent = self._recent.get(peer)
        if recent is None:
            recent = self._recent[peer] = set()
            self._oldest[peer] = []
        if seq in recent:
            self.duplicates += 1
            return True
        recent.add(seq)
        oldest = self._oldest[peer]
        heappush(oldest, seq)
        # Advance the contiguous floor; ids it absorbs are all smaller
        # than those it leaves, so they come off the top of the heap.
        while floor + 1 in recent:
            floor += 1
            recent.discard(floor)
        while oldest and oldest[0] <= floor:
            heappop(oldest)
        while len(recent) > self.window:
            # Pathological reordering: collapse the oldest id into the
            # floor (may treat a genuinely-new very-old id as dup — the
            # safe direction for at-most-once handling).
            floor = heappop(oldest)
            recent.discard(floor)
        self._floor[peer] = floor
        return False

    def __repr__(self) -> str:
        return (
            f"<DedupIndex peers={len(self._floor)} "
            f"duplicates={self.duplicates}>"
        )


__all__ = [
    "BREAK_CRASHED",
    "BREAK_HOMED",
    "DRAIN",
    "DedupIndex",
    "END_REQUEST",
    "EVICT",
    "Envelope",
    "EnvelopeFactory",
    "HEARTBEAT",
    "HOME_ASSIGN",
    "HOME_MAP",
    "HOME_STATE",
    "INCARNATION_SPAN",
    "INVENTORY",
    "INVOKE",
    "LOCATE",
    "MOVE_REQUEST",
    "OBJECT_TRANSFER",
    "PLACE",
    "PLACE_NOTICE",
    "REPLY",
    "RESTORE",
    "ROLLBACK",
    "SEED",
    "SET_FAULTS",
    "SETTLE",
    "SETTLE_HOMED",
    "SHUTDOWN",
    "START",
    "STATS",
    "SUPERVISOR",
]

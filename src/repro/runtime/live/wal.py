"""Arbitration write-ahead log: the control plane's durable memory.

PR 8 made the *workers* crash-tolerant; the supervisor itself was the
one process whose death the deployment could not survive — exactly the
monolithic weakness the paper argues against.  This module gives the
arbiter a recovery substrate: every arbitration state transition
(grant, PLACE-fence commit, rollback, lease break, incarnation bump,
home-slice assignment) is appended to an fsync'd, checksummed JSONL
log *before* the corresponding control message leaves the process.  A
restarted supervisor replays the log to rebuild its
:class:`~repro.core.locking.LockManager`, placement map and transfer
fences, then settles the in-doubt tail against live worker
inventories and resumes.

Format
------
One JSON object per line::

    {"seq": 17, "kind": "grant", "data": {...}, "crc": 2914207069}

``seq`` is a strictly increasing record number; ``crc`` is the CRC-32
of the canonical JSON encoding of ``[seq, kind, data]``.  A torn final
record (the classic crash-during-append) fails its checksum and is
*discarded*, never trusted; corruption anywhere before the tail means
the log cannot be trusted at all and raises
:class:`~repro.errors.WalCorruptionError`.

Replay is a pure fold: :class:`WalState` is a reducer over records,
idempotent by ``seq`` — applying any prefix twice yields the same
state, which is what makes "replay, then keep appending" safe and what
the hypothesis suite hammers on.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import WalCorruptionError
from repro.telemetry.core import NULL_TELEMETRY, Telemetry

#: Record kinds.  String values keep the log greppable.
INIT = "init"  # initial placement / config, first record of a log
SUPER_START = "super.start"  # one per supervisor (re)incarnation
GRANT = "grant"  # move-block lock granted (maybe with a transfer)
END = "end"  # move-block released
PLACE = "place"  # transfer committed at the fence
ROLLBACK = "rollback"  # transfer aborted, source copy restored
REVERT = "revert"  # recovery undid a placed-but-not-delivered commit
FAILED = "failed"  # transfer's source died holding the copy
BREAK = "break"  # leases of a crashed node force-broken
INCARNATION = "incarnation"  # worker respawned with a new incarnation
HOME_ASSIGN = "home.assign"  # object-space slice assigned to a home node
PLACE_MIRROR = "place.mirror"  # home-granted commit mirrored for recovery

#: Transfer-id band width per home node (home arbitration mints
#: ``node_id * TRANSFER_BAND + seq`` so two homes never collide and
#: recovery can attribute an id to the home that minted it).
TRANSFER_BAND = 1_000_000


def _crc(seq: int, kind: str, data: Dict[str, Any]) -> int:
    canonical = json.dumps(
        [seq, kind, data], sort_keys=True, separators=(",", ":")
    )
    return zlib.crc32(canonical.encode("utf-8"))


@dataclass(frozen=True)
class WalRecord:
    """One decoded, checksum-verified log record."""

    seq: int
    kind: str
    data: Dict[str, Any]

    def encode(self) -> str:
        """The record's canonical JSONL line (checksummed)."""
        return json.dumps(
            {
                "seq": self.seq,
                "kind": self.kind,
                "data": self.data,
                "crc": _crc(self.seq, self.kind, self.data),
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def decode_record(line: str) -> WalRecord:
    """Parse + checksum-verify one JSONL line.

    Raises ``ValueError`` on any defect (malformed JSON, missing
    fields, checksum mismatch) — the caller decides whether the defect
    is a tolerable torn tail or fatal mid-log corruption.
    """
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValueError("record is not an object")
    try:
        seq, kind, data, crc = doc["seq"], doc["kind"], doc["data"], doc["crc"]
    except KeyError as exc:
        raise ValueError(f"record missing field {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("record data is not an object")
    if _crc(seq, kind, data) != crc:
        raise ValueError("checksum mismatch")
    return WalRecord(seq=int(seq), kind=str(kind), data=data)


def read_records(path: str) -> Tuple[List[WalRecord], int]:
    """Read every verifiable record; returns ``(records, truncated)``.

    ``truncated`` counts discarded torn-tail lines (0 or 1).  A bad
    record anywhere *before* the final line raises
    :class:`WalCorruptionError`: the fsync discipline guarantees only
    the very last append can be torn, so earlier damage means the file
    itself cannot be trusted.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    records: List[WalRecord] = []
    for lineno, line in enumerate(lines, start=1):
        try:
            record = decode_record(line)
        except ValueError as exc:
            if lineno == len(lines):
                return records, 1  # torn final append: discard, carry on
            raise WalCorruptionError(
                f"unreadable WAL record ({exc})", path=path, line=lineno
            ) from exc
        if records and record.seq <= records[-1].seq:
            raise WalCorruptionError(
                f"non-monotonic seq {record.seq} after {records[-1].seq}",
                path=path,
                line=lineno,
            )
        records.append(record)
    return records, 0


class ArbitrationWal:
    """Append-only arbitration log bound to one file.

    ``append`` is synchronous and durable (``fsync`` unless the config
    opted out): by the time it returns, a post-crash replay will see
    the record.  That ordering — *log, then send* — is the whole
    recovery contract.
    """

    def __init__(
        self,
        path: str,
        fsync: bool = True,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.path = path
        self.fsync = fsync
        self._fh = None
        self._seq = 0
        self.appended = 0
        self._telemetry_on = telemetry.enabled
        if self._telemetry_on:
            metrics = telemetry.metrics
            self._m_appended = metrics.counter("wal.records_appended")

    def open(self, start_seq: Optional[int] = None) -> None:
        """Open for appending; resume numbering after existing records.

        ``start_seq`` (the replayed state's ``last_seq``) skips the
        re-scan when the caller already replayed the file.
        """
        if self._fh is not None:
            return
        if start_seq is None:
            records, _ = read_records(self.path)
            start_seq = records[-1].seq if records else 0
        self._seq = start_seq
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, kind: str, data: Optional[Dict[str, Any]] = None) -> int:
        """Durably append one record; returns its ``seq``."""
        if self._fh is None:
            raise WalCorruptionError(
                "append on a closed WAL", path=self.path
            )
        self._seq += 1
        record = WalRecord(seq=self._seq, kind=kind, data=data or {})
        self._fh.write(record.encode() + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.appended += 1
        if self._telemetry_on:
            self._m_appended.inc()
        return record.seq

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ArbitrationWal":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class TransferLogEntry:
    """One transfer, fenced by id, as the log and its arbiter know it."""

    transfer_id: int
    object_id: int
    src: int
    dst: int
    block_id: int
    state: str = "pending"  # pending | placed | rolled_back | failed
    #: Telemetry context of the mover's migration-root span, so the
    #: transfer's verdicts join the same cross-process trace (not
    #: journaled: a replayed transfer has none).
    trace: Optional[Tuple[int, int]] = None


@dataclass
class WalState:
    """Pure reducer over WAL records: the arbiter's recoverable state.

    ``apply`` is idempotent by ``seq`` — records at or below
    ``last_seq`` are skipped — so replaying any prefix again is a
    no-op.  Placement is a dict keyed by object id, which makes the
    "every object hosted exactly once" invariant structural: a commit
    *moves* the single entry, it can never fork it.
    """

    last_seq: int = 0
    num_objects: int = 0
    arbitration: str = "central"
    workers: List[int] = field(default_factory=list)
    #: object id -> hosting node (the recoverable authority).
    placement: Dict[int, int] = field(default_factory=dict)
    transfers: Dict[int, TransferLogEntry] = field(default_factory=dict)
    #: block id -> {"client_node", "object_id"} for open move-blocks.
    blocks: Dict[int, Dict[str, int]] = field(default_factory=dict)
    broken_blocks: List[int] = field(default_factory=list)
    incarnations: Dict[int, int] = field(default_factory=dict)
    #: slice index -> home node (home arbitration only).
    home: Dict[int, int] = field(default_factory=dict)
    num_slices: int = 0
    supervisor_starts: int = 0
    max_block_id: int = 0
    max_transfer_id: int = 0
    #: Home-granted transfer ids whose commit was mirrored.
    mirrored: Set[int] = field(default_factory=set)

    def apply(self, record: WalRecord) -> bool:
        """Fold one record in; False when skipped as already applied."""
        if record.seq <= self.last_seq:
            return False
        self.last_seq = record.seq
        kind, data = record.kind, record.data
        if kind == INIT:
            self.num_objects = data["num_objects"]
            self.arbitration = data.get("arbitration", "central")
            self.workers = [int(w) for w in data["workers"]]
            self.num_slices = data.get("num_slices", 0)
            self.placement = {
                int(oid): node for oid, node in data["placement"].items()
            }
            self.incarnations = {w: 0 for w in self.workers}
        elif kind == SUPER_START:
            self.supervisor_starts += 1
        elif kind == GRANT:
            block_id = data["block_id"]
            self.blocks[block_id] = {
                "client_node": data["mover"],
                "object_id": data["object_id"],
            }
            self.max_block_id = max(self.max_block_id, block_id)
            transfer_id = data.get("transfer_id")
            if transfer_id is not None:
                self.transfers[transfer_id] = TransferLogEntry(
                    transfer_id=transfer_id,
                    object_id=data["object_id"],
                    src=data["source"],
                    dst=data["mover"],
                    block_id=block_id,
                )
                self.max_transfer_id = max(
                    self.max_transfer_id, transfer_id
                )
        elif kind == END:
            self.blocks.pop(data["block_id"], None)
        elif kind == PLACE:
            transfer = self.transfers.get(data["transfer_id"])
            if transfer is not None:
                transfer.state = "placed"
                self.placement[transfer.object_id] = transfer.dst
        elif kind == ROLLBACK:
            transfer = self.transfers.get(data["transfer_id"])
            if transfer is not None:
                transfer.state = "rolled_back"
        elif kind == REVERT:
            transfer = self.transfers.get(data["transfer_id"])
            if transfer is not None:
                transfer.state = "rolled_back"
                self.placement[transfer.object_id] = transfer.src
        elif kind == FAILED:
            transfer = self.transfers.get(data["transfer_id"])
            if transfer is not None:
                transfer.state = "failed"
        elif kind == BREAK:
            for block_id in data["block_ids"]:
                if block_id not in self.broken_blocks:
                    self.broken_blocks.append(block_id)
                self.blocks.pop(block_id, None)
        elif kind == INCARNATION:
            self.incarnations[data["node"]] = data["incarnation"]
        elif kind == HOME_ASSIGN:
            for slice_id in data["slices"]:
                self.home[int(slice_id)] = data["node"]
        elif kind == PLACE_MIRROR:
            self.placement[data["object_id"]] = data["node"]
            if data.get("transfer_id") is not None:
                self.mirrored.add(data["transfer_id"])
        # Unknown kinds are skipped (forward compatibility), but their
        # seq still advances last_seq above.
        return True

    def in_doubt(self) -> List[TransferLogEntry]:
        """Transfers the log left pending: the recovery worklist."""
        return [
            t for t in self.transfers.values() if t.state == "pending"
        ]

    def placed(self) -> List[TransferLogEntry]:
        """Transfers whose commit was logged (maybe never delivered)."""
        return [t for t in self.transfers.values() if t.state == "placed"]


def replay(
    path: str, telemetry: Telemetry = NULL_TELEMETRY
) -> Tuple[WalState, List[WalRecord]]:
    """Fold the whole log into a :class:`WalState`.

    Returns the state plus the verified records (callers wanting
    custom folds re-use them).  Torn tails are already discarded by
    :func:`read_records`.
    """
    records, truncated = read_records(path)
    state = WalState()
    for record in records:
        state.apply(record)
    if telemetry.enabled:
        metrics = telemetry.metrics
        metrics.counter("wal.records_replayed").inc(len(records))
        if truncated:
            metrics.counter("wal.truncated_records").inc(truncated)
    return state, records


__all__ = [
    "ArbitrationWal",
    "BREAK",
    "END",
    "FAILED",
    "GRANT",
    "HOME_ASSIGN",
    "INCARNATION",
    "INIT",
    "PLACE",
    "PLACE_MIRROR",
    "REVERT",
    "ROLLBACK",
    "SUPER_START",
    "TRANSFER_BAND",
    "TransferLogEntry",
    "WalRecord",
    "WalState",
    "decode_record",
    "read_records",
    "replay",
]

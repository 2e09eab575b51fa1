"""Cross-process telemetry for the live runtime.

PR 5's :class:`~repro.telemetry.core.Telemetry` records one process'
spans and metrics.  The live backend (:mod:`repro.runtime.live`) is
*many* OS processes — a supervisor plus N workers — so observability
needs four extra pieces, all of which live here so the telemetry
package stays importable without the runtime:

* :func:`process_id_base` — a disjoint span/trace-id band per
  ``(node, incarnation)``, so ids minted independently in separate
  processes never collide when their trace files are merged.
* :class:`ProcessTelemetryWriter` — streams one process' closed spans
  to ``spans-n{node}-i{inc}.jsonl`` incrementally (crash-tolerant: what
  was flushed survives a SIGKILL) and atomically rewrites its metrics
  snapshot, alongside a ``meta-*.json`` sidecar carrying the OS pid and
  the process' monotonic-clock origin.
* :class:`FlightRecorder` — a bounded ring of recent envelopes and
  state transitions, periodically persisted and dumped on abnormal
  exit; the post-mortem a dead worker leaves behind for the
  supervisor's in-doubt settlement to cross-check.
* :class:`ClockSync` + :class:`TelemetryHub` — the supervisor-side
  merge: estimate each worker's clock offset from handshake samples
  (heartbeats carry the sender's local ``now()``), shift every
  per-process file onto the supervisor's timeline, and export one
  Perfetto trace with real OS pid lanes plus a merged summary table.

Clock alignment
---------------
Every live process rebases ``time.monotonic()`` to 0 at its own start
(:class:`~repro.runtime.clock.WallClock`), so per-process timestamps
disagree by exactly the difference of their origins.  Two estimators,
in order of preference:

1. **Handshake offsets**: each heartbeat carries the worker's local
   ``clock.now()``; the supervisor keeps ``min(local_recv -
   remote_sent)`` per ``(node, incarnation)`` — an upper bound on the
   true offset that tightens to ``offset + min network delay``.
2. **Monotonic origins**: ``CLOCK_MONOTONIC`` is machine-wide, so
   ``origin_worker - origin_supervisor`` (both persisted in the meta
   sidecars) is the *exact* shift.  Used for processes that never
   heartbeated the final supervisor incarnation (e.g. a supervisor
   killed mid-run).

After shifting, the hub rebases everything by the global minimum so
the merged trace starts at ts 0 (negative timestamps would be workers
that started before a *recovered* supervisor).
"""

from __future__ import annotations

import json
import os
import re
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.core import Telemetry
from repro.telemetry.export import summary_table, write_chrome_trace
from repro.telemetry.spans import Span

#: Width of one process' span/trace-id band.  A single process would
#: need to mint a billion spans to bleed into its neighbour's band.
SPAN_ID_BAND = 1_000_000_000

#: Node id of the supervisor (mirrors ``repro.runtime.live.wire
#: .SUPERVISOR`` without importing the runtime into the telemetry
#: package).
SUPERVISOR_NODE = -1

#: Transfer-latency histogram bucket edges shared by supervisor and
#: workers (seconds).  Lives here so ``node.py`` can import it without
#: a node -> supervisor circular import; ``supervisor.py`` re-exports.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def process_id_base(node: int, incarnation: int = 0) -> int:
    """Disjoint span/trace-id band for one live process incarnation.

    Bands by *incarnation* too: a restarted worker's fresh
    :class:`Telemetry` would otherwise mint the same small ids as its
    dead predecessor and collide in the merged trace.  The supervisor
    (node -1) lands on the ``(1000 + inc)`` band, workers 1..N on
    ``(3000 + ...)`` and up — all disjoint for inc < 1000.
    """
    if node < SUPERVISOR_NODE:
        raise ValueError(f"node must be >= {SUPERVISOR_NODE}, got {node}")
    if incarnation < 0:
        raise ValueError(f"incarnation must be >= 0, got {incarnation}")
    return ((node + 2) * 1000 + incarnation) * SPAN_ID_BAND


def _file_stem(node: int, incarnation: int) -> str:
    return f"n{node}-i{incarnation}"


_STEM_RE = re.compile(r"n(-?\d+)-i(\d+)")


def _parse_stem(stem: str) -> Optional[Tuple[int, int]]:
    match = _STEM_RE.fullmatch(stem)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def _atomic_write(path: Path, text: str) -> None:
    """Write-then-rename so readers never see a torn file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class FlightRecorder:
    """Bounded ring of recent envelopes and state transitions.

    Installed as a transport ``observer`` (:meth:`on_send` /
    :meth:`on_receive`), plus explicit :meth:`record` calls at state
    transitions.  Entries are *compact* — kind, addressing, msg id and
    a few interesting payload keys, never payload bodies (OBJECT_TRANSFER
    carries pickled object state).

    :meth:`dump` persists the ring atomically; the monitor loops call
    it periodically (reason ``snapshot``) so a SIGKILL still leaves a
    recent post-mortem on disk, and the abnormal-exit paths (SIGTERM,
    unhandled exception, orphaning) dump directly with their reason.
    """

    #: Payload keys worth keeping in a post-mortem.
    PAYLOAD_KEYS = ("transfer_id", "object_id", "block_id", "granted", "ok")

    def __init__(
        self,
        node: int,
        capacity: int = 512,
        clock=None,
        incarnation: int = 0,
        path: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.node = node
        self.capacity = capacity
        self.incarnation = incarnation
        self.clock = clock
        self.path = str(path) if path is not None else None
        self._ring: deque = deque(maxlen=capacity)
        #: Total entries ever recorded (ring overwrites don't decrement).
        self.recorded = 0
        #: Number of completed :meth:`dump` calls.
        self.dumps = 0

    @staticmethod
    def path_for(directory, node: int, incarnation: int) -> str:
        """Canonical dump path for one process incarnation."""
        return str(
            Path(directory) / f"flight-{_file_stem(node, incarnation)}.jsonl"
        )

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def record(self, event: str, **data: Any) -> None:
        """Append one entry (timestamped with the process-local clock)."""
        entry = {"t": self._now(), "event": event}
        entry.update(data)
        self._ring.append(entry)
        self.recorded += 1

    # -- transport observer protocol --------------------------------------

    def on_send(self, envelope) -> None:
        """One send, or one retransmission of a request (same msg_id).

        Connection-level redeliveries and injected duplicate copies
        are not re-recorded.
        """
        self.record(
            "send",
            kind=envelope.kind,
            dst=envelope.dst,
            msg_id=list(envelope.msg_id),
            **self._payload_bits(envelope),
        )

    def on_receive(self, envelope, duplicate: bool) -> None:
        """Every delivered frame, *including* suppressed redeliveries."""
        self.record(
            "recv",
            kind=envelope.kind,
            src=envelope.src,
            msg_id=list(envelope.msg_id),
            duplicate=duplicate,
            **self._payload_bits(envelope),
        )

    def _payload_bits(self, envelope) -> Dict[str, Any]:
        payload = envelope.payload
        bits = {
            key: payload[key]
            for key in self.PAYLOAD_KEYS
            if key in payload
        }
        if envelope.reply_to is not None:
            bits["reply_to"] = list(envelope.reply_to)
        return bits

    def entries(self) -> List[Dict[str, Any]]:
        """Snapshot of the current ring contents, oldest first."""
        return list(self._ring)

    def dump(self, path: Optional[str] = None, reason: str = "snapshot") -> str:
        """Atomically persist the ring as JSONL; returns the path.

        First line is a header object under the ``"flight"`` key
        (node/pid/incarnation/reason/entry count); every further line
        is one ring entry.
        """
        target = Path(path if path is not None else self.path)
        header = {
            "flight": {
                "node": self.node,
                "incarnation": self.incarnation,
                "pid": os.getpid(),
                "reason": reason,
                "dumped_at": self._now(),
                "entries": len(self._ring),
                "recorded": self.recorded,
            }
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps(entry, sort_keys=True) for entry in self._ring
        )
        _atomic_write(target, "\n".join(lines) + "\n")
        self.dumps += 1
        return str(target)

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder node={self.node} i={self.incarnation} "
            f"entries={len(self._ring)}/{self.capacity} dumps={self.dumps}>"
        )


def load_flight_dump(path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse a flight-recorder dump into ``(header, entries)``.

    Raises ``ValueError`` on a malformed file (no header line, or an
    entry without the ``t``/``event`` shape).
    """
    lines = [
        line
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    if not lines:
        raise ValueError(f"{path}: empty flight dump")
    header_doc = json.loads(lines[0])
    header = header_doc.get("flight")
    if not isinstance(header, dict):
        raise ValueError(f"{path}: first line is not a flight header")
    entries = []
    for number, line in enumerate(lines[1:], start=2):
        entry = json.loads(line)
        if not isinstance(entry, dict) or "event" not in entry:
            raise ValueError(f"{path}:{number}: malformed flight entry")
        entries.append(entry)
    return header, entries


class ProcessTelemetryWriter:
    """Streams one process' telemetry to per-process files in a dir.

    ``spans-n{node}-i{inc}.jsonl``
        Closed spans, appended incrementally on each :meth:`flush` —
        open spans are carried over and written once they close.
    ``metrics-n{node}-i{inc}.jsonl``
        Full metrics snapshot, atomically rewritten each flush, with a
        ``node`` label injected so merged summaries stay attributable.
    ``meta-n{node}-i{inc}.json``
        Pid, role, incarnation and the process' monotonic-clock origin
        — everything the :class:`TelemetryHub` needs to align and
        label this file on the merged timeline.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        directory,
        node: int,
        incarnation: int = 0,
        role: str = "worker",
        mono_origin: Optional[float] = None,
    ):
        self.telemetry = telemetry
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.node = node
        self.incarnation = incarnation
        stem = _file_stem(node, incarnation)
        self.spans_path = self.directory / f"spans-{stem}.jsonl"
        self.metrics_path = self.directory / f"metrics-{stem}.jsonl"
        self.meta_path = self.directory / f"meta-{stem}.json"
        self._scan_from = 0
        self._open_carry: List[Span] = []
        self.spans_written = 0
        self.flushes = 0
        # Truncate any stale file from a previous run in the same dir.
        self.spans_path.write_text("")
        _atomic_write(
            self.meta_path,
            json.dumps(
                {
                    "node": node,
                    "incarnation": incarnation,
                    "role": role,
                    "pid": os.getpid(),
                    "mono_origin": mono_origin,
                },
                sort_keys=True,
            )
            + "\n",
        )

    def flush(self) -> int:
        """Write newly closed spans + the current metrics snapshot.

        Returns the number of spans written this flush.  Open spans
        are re-examined next time; span order in the file is close
        order (the hub re-sorts by start time).
        """
        spans = self.telemetry.spans
        candidates = self._open_carry
        self._open_carry = []
        candidates.extend(spans[self._scan_from:])
        self._scan_from = len(spans)
        written = 0
        if candidates:
            closed_lines = []
            for span in candidates:
                if span.is_open:
                    self._open_carry.append(span)
                else:
                    closed_lines.append(
                        json.dumps(span.to_dict(), sort_keys=True)
                    )
            if closed_lines:
                with self.spans_path.open("a") as handle:
                    handle.write("\n".join(closed_lines) + "\n")
                written = len(closed_lines)
                self.spans_written += written
        docs = self.telemetry.metrics.snapshot()
        if docs:
            for doc in docs:
                labels = dict(doc.get("labels") or {})
                labels.setdefault("node", self.node)
                doc["labels"] = labels
            _atomic_write(
                self.metrics_path,
                "\n".join(json.dumps(doc, sort_keys=True) for doc in docs)
                + "\n",
            )
        self.flushes += 1
        return written

    def close(self) -> None:
        """Final flush (open spans at exit stay unwritten, by design)."""
        self.flush()

    def __repr__(self) -> str:
        return (
            f"<ProcessTelemetryWriter node={self.node} "
            f"i={self.incarnation} spans={self.spans_written} "
            f"flushes={self.flushes}>"
        )


class ClockSync:
    """Handshake-time clock-offset estimator, supervisor side.

    Each heartbeat carries the worker's local ``clock.now()`` at send
    time; ``observe`` keeps the *minimum* of ``local_recv -
    remote_sent`` per ``(node, incarnation)``.  Every sample
    overestimates the true offset by that sample's one-way network
    delay, so the minimum over many heartbeats converges onto
    ``true offset + min delay`` — sub-millisecond on localhost
    sockets, far below span durations.
    """

    def __init__(self):
        self._offsets: Dict[Tuple[int, int], float] = {}
        self.samples = 0

    def observe(
        self,
        node: int,
        incarnation: int,
        remote_sent: float,
        local_recv: float,
    ) -> None:
        """Fold one handshake sample into the per-process estimate."""
        delta = local_recv - remote_sent
        key = (node, incarnation)
        best = self._offsets.get(key)
        if best is None or delta < best:
            self._offsets[key] = delta
        self.samples += 1

    def offset(self, node: int, incarnation: int) -> Optional[float]:
        """Best offset estimate for one process, or None if unseen."""
        return self._offsets.get((node, incarnation))

    def export(self) -> List[Dict[str, Any]]:
        """JSON-able offset table for the run manifest."""
        return [
            {"node": node, "incarnation": incarnation, "offset": offset}
            for (node, incarnation), offset in sorted(self._offsets.items())
        ]

    def __repr__(self) -> str:
        return (
            f"<ClockSync processes={len(self._offsets)} "
            f"samples={self.samples}>"
        )


class _DocMetrics:
    """Metrics-registry facade over already-serialized metric docs.

    Gives :func:`~repro.telemetry.export.summary_table` and
    :func:`~repro.telemetry.export.to_chrome_trace` the interface they
    expect (``snapshot()``, iteration for gauge series, ``len``)
    without live instruments behind it.
    """

    def __init__(self, docs: List[Dict[str, Any]]):
        self._docs = docs

    def snapshot(self) -> List[Dict[str, Any]]:
        return [dict(doc) for doc in self._docs]

    def __iter__(self):
        # No live gauge series to export from serialized docs.
        return iter(())

    def __len__(self) -> int:
        return len(self._docs)


class _MergedTelemetry(Telemetry):
    """A read-only Telemetry rebuilt from per-process trace files."""

    def __init__(self, spans: List[Span], metric_docs: List[Dict[str, Any]]):
        super().__init__()
        self.spans = spans
        self.metrics = _DocMetrics(metric_docs)


class TelemetryHub:
    """Collects per-process telemetry files and merges the timeline.

    Runs in the demo *runner* process after the final supervisor
    incarnation reports (so it sees the files of every incarnation,
    including killed ones).  ``merge()`` produces ``trace.json`` (one
    Perfetto trace, real OS pid lanes) and ``summary.txt`` in the
    telemetry directory and returns a manifest of what was merged.
    """

    def __init__(self, directory):
        self.directory = Path(directory)

    # -- collection --------------------------------------------------------

    def collect(self) -> Dict[str, Any]:
        """Inventory the directory: process files, flights, manifest."""
        metas: Dict[Tuple[int, int], Dict[str, Any]] = {}
        for meta_path in sorted(self.directory.glob("meta-*.json")):
            key = _parse_stem(meta_path.name[len("meta-"):-len(".json")])
            if key is None:
                continue
            try:
                metas[key] = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue
        processes = []
        for spans_path in sorted(self.directory.glob("spans-*.jsonl")):
            stem = spans_path.name[len("spans-"):-len(".jsonl")]
            key = _parse_stem(stem)
            if key is None:
                continue
            metrics_path = self.directory / f"metrics-{stem}.jsonl"
            processes.append(
                {
                    "node": key[0],
                    "incarnation": key[1],
                    "spans": spans_path,
                    "metrics": metrics_path if metrics_path.exists() else None,
                    "meta": metas.get(key, {}),
                }
            )
        manifest_path = self.directory / "manifest.json"
        manifest: Dict[str, Any] = {}
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
            except (OSError, ValueError):
                manifest = {}
        flights = [
            str(path)
            for path in sorted(self.directory.glob("flight-*.jsonl"))
        ]
        return {
            "processes": processes,
            "manifest": manifest,
            "flights": flights,
        }

    # -- merging -----------------------------------------------------------

    def _shift_for(
        self,
        node: int,
        incarnation: int,
        meta: Dict[str, Any],
        offsets: Dict[Tuple[int, int], float],
        supervisor_origin: Optional[float],
    ) -> float:
        """Seconds to add to this process' timestamps."""
        mono_origin = meta.get("mono_origin")
        if node == SUPERVISOR_NODE or (node, incarnation) not in offsets:
            # Exact origin difference (the only estimator available for
            # a killed supervisor incarnation or a silent worker).
            if supervisor_origin is not None and mono_origin is not None:
                return mono_origin - supervisor_origin
        return offsets.get((node, incarnation), 0.0)

    def merge(self) -> Dict[str, Any]:
        """Align, merge, and export; returns the merge manifest."""
        inventory = self.collect()
        manifest = inventory["manifest"]
        offsets = {
            (entry["node"], entry["incarnation"]): entry["offset"]
            for entry in manifest.get("clock_offsets", [])
        }
        supervisor_origin = manifest.get("supervisor_origin")

        shifted: List[Tuple[Dict[str, Any], Optional[int]]] = []
        metric_docs: List[Dict[str, Any]] = []
        per_process: List[Dict[str, Any]] = []
        for proc in inventory["processes"]:
            meta = proc["meta"]
            pid = meta.get("pid")
            shift = self._shift_for(
                proc["node"], proc["incarnation"], meta, offsets,
                supervisor_origin,
            )
            count = 0
            for line in proc["spans"].read_text().splitlines():
                if not line.strip():
                    continue
                doc = json.loads(line)
                doc["start"] = doc["start"] + shift
                if doc.get("end") is not None:
                    doc["end"] = doc["end"] + shift
                shifted.append((doc, pid))
                count += 1
            if proc["metrics"] is not None:
                for line in proc["metrics"].read_text().splitlines():
                    if line.strip():
                        metric_docs.append(json.loads(line))
            per_process.append(
                {
                    "node": proc["node"],
                    "incarnation": proc["incarnation"],
                    "role": meta.get("role"),
                    "pid": pid,
                    "shift": shift,
                    "spans": count,
                }
            )

        # Rebase so the merged trace starts at ts 0: workers that
        # started before a recovered supervisor sit at negative shifted
        # time, and Perfetto (and our validator) want ts >= 0.
        rebase = min(
            (doc["start"] for doc, _ in shifted), default=0.0
        )
        rebase = min(rebase, 0.0)

        spans: List[Span] = []
        for doc, pid in shifted:
            tags = dict(doc.get("tags") or {})
            if pid is not None:
                tags["os_pid"] = pid
            span = Span(
                trace_id=doc["trace_id"],
                span_id=doc["span_id"],
                parent_id=doc.get("parent_id"),
                name=doc["name"],
                node=doc.get("node"),
                start=doc["start"] - rebase,
                tags=tags,
            )
            end = doc.get("end")
            span.end = end - rebase if end is not None else None
            span.status = doc.get("status", "ok")
            spans.append(span)
        spans.sort(key=lambda s: (s.start, s.span_id))

        merged = _MergedTelemetry(spans, metric_docs)
        # Latest incarnation wins the node -> pid lane mapping.
        pid_map: Dict[int, int] = {}
        process_names: Dict[int, str] = {}
        for proc in sorted(
            per_process, key=lambda p: (p["node"], p["incarnation"])
        ):
            if proc["pid"] is None:
                continue
            pid_map[proc["node"]] = proc["pid"]
            role = proc["role"] or "process"
            process_names[proc["pid"]] = (
                f"{role}-{proc['node']}" if proc["node"] >= 0 else role
            ) + f" i{proc['incarnation']} (pid {proc['pid']})"

        trace_path = write_chrome_trace(
            merged,
            self.directory / "trace.json",
            pid_map=pid_map,
            process_names=process_names,
            time_scale=1e6,  # live span times are seconds, not sim units
        )
        summary = summary_table(merged)
        extra = [
            "",
            "merged live timeline",
            "-" * 60,
            f"{'processes merged':<36}{len(per_process):>12}",
            f"{'flight dumps':<36}{len(inventory['flights']):>12}",
            f"{'clock-offset samples':<36}{len(offsets):>12}",
            f"{'timeline rebase (s)':<36}{-rebase:>12.6f}",
        ]
        for proc in per_process:
            label = (
                f"  n{proc['node']} i{proc['incarnation']} "
                f"({proc['role'] or '?'}, pid {proc['pid']})"
            )
            extra.append(
                f"{label:<36}{proc['spans']:>7} spans "
                f"shift {proc['shift']:+.6f}s"
            )
        summary_path = self.directory / "summary.txt"
        summary_path.write_text(summary + "\n".join(extra) + "\n")

        traces = {span.trace_id for span in spans}
        return {
            "trace": str(trace_path),
            "summary": str(summary_path),
            "processes": per_process,
            "spans": len(spans),
            "traces": len(traces),
            "flight_dumps": inventory["flights"],
            "rebase": -rebase,
        }


def clean_telemetry_dir(directory) -> int:
    """Remove a previous run's artifacts from a reused telemetry dir.

    Only known artifact shapes are removed (per-process jsonl/meta
    files, flight dumps, manifest, merged trace/summary) — anything
    else a user parked in the directory is left alone.  Returns the
    number of files removed.
    """
    target = Path(directory)
    if not target.is_dir():
        return 0
    removed = 0
    patterns = (
        "spans-*.jsonl", "metrics-*.jsonl", "meta-*.json",
        "flight-*.jsonl", "manifest.json", "trace.json", "summary.txt",
        "*.tmp",
    )
    for pattern in patterns:
        for path in target.glob(pattern):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


__all__ = [
    "ClockSync",
    "FlightRecorder",
    "LATENCY_BUCKETS",
    "ProcessTelemetryWriter",
    "SPAN_ID_BAND",
    "SUPERVISOR_NODE",
    "TelemetryHub",
    "clean_telemetry_dir",
    "load_flight_dump",
    "process_id_base",
]

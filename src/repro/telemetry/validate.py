"""Telemetry artifact schema validation (CI smoke + tests).

The exporter promises artifacts other tools will load; this module
checks the contracts without needing those tools:

* ``trace.json`` — a ``traceEvents`` list Perfetto accepts, every event
  carrying the right fields per phase (:func:`validate_chrome_trace`);
* ``spans.jsonl`` — one span document per line with the stable
  :meth:`~repro.telemetry.spans.Span.to_dict` fields
  (:func:`validate_span_doc`);
* ``metrics.jsonl`` — one instrument snapshot per line with the
  :meth:`to_dict` fields of its type, counters monotone and histogram
  counts consistent (:func:`validate_metric_doc`).

Spans registered in :data:`LIVE_SPAN_SCHEMAS` (the live runtime's
``wal.replay``, ``live.*`` and ``flight.dump`` spans) are additionally
checked for their required tags — in both artifacts, since the Chrome
exporter folds tags into ``args``.
Metric names the live runtime promises (``live.transport.*``,
``live.transfer.latency_s``, ``wal.*``, ``home.*``) are pinned to
their instrument type.  Usable as a library or a CLI::

    python -m repro.telemetry.validate out/trace.json out/spans.jsonl \\
        out/metrics.jsonl
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Union

#: Event phases the exporter may emit.
KNOWN_PHASES = {"X", "i", "C", "M"}

#: Required tag keys per live-runtime span name.  ``wal.replay`` must
#: say how much journal it consumed; ``live.recover`` which arbitration
#: mode it settled under.  The cross-process migration family
#: (``live.move`` and its children) must carry enough to rebuild the
#: migration story from the merged trace alone.
LIVE_SPAN_SCHEMAS = {
    "wal.replay": ("records",),
    "live.recover": ("mode",),
    "live.move": ("object",),
    "live.grant": ("object", "granted"),
    "live.transfer": ("object", "transfer"),
    "live.transfer.serve": ("object", "transfer"),
    "live.place": ("transfer", "ok"),
    "live.rollback": ("transfer",),
    "live.evict": ("transfer",),
    "live.restore": ("transfer",),
    "live.drain": ("migrations",),
    "live.seed": ("count",),
    "live.inventory": ("objects",),
    "flight.dump": ("reason", "entries"),
}

#: Instrument type per metric name the live runtime promises to emit.
#: A run that never exercises a path may omit the metric, but a present
#: metric must carry the registered type (and the type's fields).
LIVE_METRIC_SCHEMAS = {
    "live.transport.frames_sent": "counter",
    "live.transport.frames_received": "counter",
    "live.transfer.latency_s": "histogram",
    "wal.records_appended": "counter",
    "wal.records_replayed": "counter",
    "wal.truncated_records": "counter",
    "home.grants": "counter",
    "home.denials": "counter",
    "home.reassignments": "counter",
    "live.worker.attempts": "counter",
    "live.worker.granted": "counter",
    "live.worker.migrations": "counter",
    "live.worker.denied": "counter",
    "live.worker.aborted": "counter",
    "live.worker.invocations": "counter",
    "live.worker.remote_invocations": "counter",
}

#: Fields every metrics.jsonl document must carry, regardless of type.
METRIC_DOC_FIELDS = ("name", "type", "labels", "updated_at")

#: Instrument types the metrics exporter may emit.
KNOWN_METRIC_TYPES = {"counter", "gauge", "histogram"}

#: Fields every spans.jsonl document must carry.
SPAN_DOC_FIELDS = (
    "trace_id",
    "span_id",
    "parent_id",
    "name",
    "node",
    "start",
    "end",
    "status",
    "tags",
)


def _missing_span_tags(name: str, tags: dict, where: str) -> List[str]:
    """Required tags of ``LIVE_SPAN_SCHEMAS[name]`` absent from ``tags``."""
    return [
        f"{where}: span {name!r} missing required tag {key!r}"
        for key in LIVE_SPAN_SCHEMAS.get(name, ())
        if key not in tags
    ]


def validate_metric_doc(doc: dict, where: str = "metric") -> List[str]:
    """Check one parsed ``metrics.jsonl`` document; returns problems."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"{where}: not an object"]
    for field in METRIC_DOC_FIELDS:
        if field not in doc:
            problems.append(f"{where}: missing field {field!r}")
    if problems:
        return problems
    name, kind = doc["name"], doc["type"]
    if not isinstance(name, str) or not name:
        problems.append(f"{where}: 'name' must be a non-empty string")
        return problems
    if kind not in KNOWN_METRIC_TYPES:
        problems.append(f"{where}: unknown instrument type {kind!r}")
        return problems
    expected = LIVE_METRIC_SCHEMAS.get(name)
    if expected is not None and kind != expected:
        problems.append(
            f"{where}: metric {name!r} must be a {expected}, got {kind!r}"
        )
    if not isinstance(doc["labels"], dict):
        problems.append(f"{where}: 'labels' must be an object")
    if kind == "histogram":
        buckets = doc.get("buckets")
        counts = doc.get("counts")
        if not isinstance(buckets, list) or not buckets:
            problems.append(f"{where}: histogram needs a 'buckets' list")
        elif not isinstance(counts, list) or len(counts) != len(buckets) + 1:
            problems.append(
                f"{where}: histogram needs len(buckets)+1 'counts'"
            )
        elif doc.get("count") != sum(counts):
            problems.append(
                f"{where}: histogram 'count' disagrees with bucket counts"
            )
    else:
        value = doc.get("value")
        if not isinstance(value, (int, float)):
            problems.append(f"{where}: {kind} needs a numeric 'value'")
        elif kind == "counter" and value < 0:
            problems.append(f"{where}: counter {name!r} went negative")
    return problems


def validate_metrics_jsonl(text: str) -> List[str]:
    """Validate a whole ``metrics.jsonl`` payload; returns problems."""
    problems: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            doc = json.loads(line)
        except ValueError as exc:
            problems.append(f"{where}: invalid JSON ({exc})")
            continue
        problems.extend(validate_metric_doc(doc, where))
    return problems


def validate_span_doc(doc: dict, where: str = "span") -> List[str]:
    """Check one parsed ``spans.jsonl`` document; returns problems."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"{where}: not an object"]
    for field in SPAN_DOC_FIELDS:
        if field not in doc:
            problems.append(f"{where}: missing field {field!r}")
    if problems:
        return problems
    if not isinstance(doc["name"], str) or not doc["name"]:
        problems.append(f"{where}: 'name' must be a non-empty string")
    for field in ("trace_id", "span_id"):
        if not isinstance(doc[field], int):
            problems.append(f"{where}: {field!r} must be an int")
    if not isinstance(doc["tags"], dict):
        problems.append(f"{where}: 'tags' must be an object")
    else:
        problems.extend(_missing_span_tags(doc["name"], doc["tags"], where))
    if doc["end"] is not None and doc["end"] < doc["start"]:
        problems.append(f"{where}: span ends before it starts")
    return problems


def validate_spans_jsonl(text: str) -> List[str]:
    """Validate a whole ``spans.jsonl`` payload; returns problems."""
    problems: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            doc = json.loads(line)
        except ValueError as exc:
            problems.append(f"{where}: invalid JSON ({exc})")
            continue
        problems.extend(validate_span_doc(doc, where))
    return problems


def validate_chrome_trace(doc: dict) -> List[str]:
    """Check a parsed trace document; returns a list of problems.

    An empty list means the document satisfies the exporter's schema:
    every event has ``name``/``ph``/``pid``/``ts``, durations are
    non-negative, counters carry a numeric value, and at least one
    ``process_name`` metadata event names a pid lane.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["top-level 'traceEvents' missing or not a list"]
    if not events:
        problems.append("'traceEvents' is empty")
    named_pids = False
    for i, event in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing/empty 'name'")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: 'pid' must be an int")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a number >= 0")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs 'dur' >= 0")
        elif ph == "i":
            if event.get("s") not in (None, "t", "p", "g"):
                problems.append(f"{where}: instant scope {event.get('s')!r}")
        elif ph == "C":
            value = (event.get("args") or {}).get("value")
            if not isinstance(value, (int, float)):
                problems.append(f"{where}: counter needs numeric args.value")
        elif ph == "M" and event["name"] == "process_name":
            if (event.get("args") or {}).get("name"):
                named_pids = True
        if ph in ("X", "i") and isinstance(event.get("name"), str):
            # The Chrome exporter folds span tags into args; registered
            # spans must keep their schema through that mapping too.
            problems.extend(
                _missing_span_tags(
                    event["name"], event.get("args") or {}, where
                )
            )
    if events and not named_pids:
        problems.append("no 'process_name' metadata events (pid lanes unnamed)")
    return problems


def validate_flight_jsonl(text: str) -> List[str]:
    """Validate a flight-recorder post-mortem dump; returns problems.

    Contract (see :class:`repro.telemetry.live.FlightRecorder`): first
    line is a header object under the ``"flight"`` key carrying
    node/pid/incarnation/reason/entry counts; every further line is one
    ring entry with at least ``t`` (number) and ``event`` (string).
    """
    problems: List[str] = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["empty flight dump"]
    try:
        header_doc = json.loads(lines[0])
    except ValueError as exc:
        return [f"line 1: invalid JSON ({exc})"]
    header = header_doc.get("flight") if isinstance(header_doc, dict) else None
    if not isinstance(header, dict):
        return ["line 1: not a flight header (missing 'flight' object)"]
    for field in ("node", "incarnation", "pid", "reason", "entries"):
        if field not in header:
            problems.append(f"line 1: header missing field {field!r}")
    declared = header.get("entries")
    if isinstance(declared, int) and declared != len(lines) - 1:
        problems.append(
            f"line 1: header says {declared} entries, file has "
            f"{len(lines) - 1}"
        )
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"line {lineno}"
        try:
            entry = json.loads(line)
        except ValueError as exc:
            problems.append(f"{where}: invalid JSON ({exc})")
            continue
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(entry.get("event"), str) or not entry["event"]:
            problems.append(f"{where}: missing/empty 'event'")
        if not isinstance(entry.get("t"), (int, float)):
            problems.append(f"{where}: 't' must be a number")
    return problems


def _validate_file(path: Path) -> List[str]:
    """Dispatch one artifact by filename; returns problems."""
    try:
        text = path.read_text()
    except OSError as exc:
        return [f"unreadable ({exc})"]
    if path.suffix == ".jsonl":
        if "metrics" in path.name:
            return validate_metrics_jsonl(text)
        if "flight" in path.name:
            return validate_flight_jsonl(text)
        return validate_spans_jsonl(text)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"invalid JSON ({exc})"]
    return validate_chrome_trace(doc)


def _expand_directory(path: Path) -> List[Path]:
    """A telemetry directory's validatable artifacts, sorted.

    The merged ``trace.json`` plus every ``*.jsonl`` (per-process
    spans/metrics, flight dumps).  ``manifest.json``, ``meta-*.json``
    and ``summary.txt`` carry no validator contract and are skipped.
    """
    artifacts: List[Path] = []
    trace = path / "trace.json"
    if trace.exists():
        artifacts.append(trace)
    artifacts.extend(sorted(path.glob("*.jsonl")))
    return artifacts


def main(argv=None) -> int:
    """CLI entry point: validate trace/span artifacts, exit 0/1.

    Accepts any mix of ``trace.json`` (Chrome trace), ``spans.jsonl``,
    ``metrics.jsonl`` and ``flight-*.jsonl`` files; the filename picks
    the validator (``.jsonl`` with ``metrics`` in the name → metrics,
    with ``flight`` → flight dump, other ``.jsonl`` → spans, anything
    else → Chrome trace).  A *directory* argument (a live run's
    ``--telemetry DIR``) expands to its merged ``trace.json`` plus
    every ``*.jsonl`` inside; an empty directory fails.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(
            "usage: python -m repro.telemetry.validate "
            "TRACE.json [SPANS.jsonl ...] [METRICS.jsonl ...] [DIR ...]",
            file=sys.stderr,
        )
        return 2
    paths: List[Path] = []
    failed = False
    for name in argv:
        path = Path(name)
        if path.is_dir():
            found = _expand_directory(path)
            if not found:
                print(
                    f"{path}: no telemetry artifacts "
                    "(no trace.json or *.jsonl)",
                    file=sys.stderr,
                )
                failed = True
            paths.extend(found)
        else:
            paths.append(path)
    for path in paths:
        problems = _validate_file(path)
        if problems:
            failed = True
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Tests for the telemetry exporters and the trace-schema validator."""

import json

import pytest

from repro.sim.kernel import Environment
from repro.telemetry import ERROR, Telemetry
from repro.telemetry.export import (
    SYSTEM_PID,
    export_run,
    summary_table,
    to_chrome_trace,
    write_metrics_jsonl,
    write_spans_jsonl,
)
from repro.telemetry.validate import main as validate_main
from repro.telemetry.validate import validate_chrome_trace


def _populated_telemetry():
    """A small telemetry sink with spans on two nodes and some metrics."""
    env = Environment()
    tel = Telemetry()
    tel.bind(env)

    def run(env):
        root = tel.start_span("move", node=1, object="obj")
        # instant child on another node (zero duration)
        child = tel.start_span("place.locked", node=2, parent=root)
        tel.end_span(child, holder="blk")
        yield env.timeout(3.0)
        bad = tel.start_span("transfer", node=2, parent=root)
        yield env.timeout(1.0)
        tel.end_span(bad, status=ERROR, error="NodeDownError")
        tel.end_span(root, outcome="granted")

    env.process(run(env))
    env.run()

    tel.metrics.counter("migration.moves").inc(3)
    tel.metrics.histogram("network.latency", buckets=(1.0, 5.0)).observe(0.4)
    g = tel.metrics.gauge("kernel.queue_depth", track_series=True)
    g.set(2)
    g.set(5)
    return tel


class TestJsonlWriters:
    def test_metrics_jsonl_one_doc_per_line(self, tmp_path):
        tel = _populated_telemetry()
        path = write_metrics_jsonl(tel, tmp_path / "metrics.jsonl")
        lines = path.read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        assert len(docs) == 3
        assert sorted(d["name"] for d in docs) == [
            "kernel.queue_depth",
            "migration.moves",
            "network.latency",
        ]

    def test_spans_jsonl_round_trips(self, tmp_path):
        tel = _populated_telemetry()
        path = write_spans_jsonl(tel, tmp_path / "spans.jsonl")
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(docs) == len(tel.spans)
        by_name = {d["name"]: d for d in docs}
        assert by_name["place.locked"]["parent_id"] == by_name["move"]["span_id"]
        assert by_name["transfer"]["status"] == "error"
        assert by_name["transfer"]["tags"]["error"] == "NodeDownError"


class TestChromeTrace:
    def test_structure(self):
        tel = _populated_telemetry()
        doc = to_chrome_trace(tel)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]

        meta = [e for e in events if e["ph"] == "M"]
        lanes = {e["args"]["name"] for e in meta}
        assert {"system", "node-1", "node-2"} <= lanes

        complete = {e["name"]: e for e in events if e["ph"] == "X"}
        assert complete["move"]["pid"] == 1
        assert complete["move"]["dur"] == pytest.approx(4.0)
        assert complete["transfer"]["cat"] == "span,error"

        instants = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["place.locked"]
        assert instants[0]["s"] == "t"

        counters = [e for e in events if e["ph"] == "C"]
        assert [e["args"]["value"] for e in counters] == [2, 5]
        assert all(e["pid"] == SYSTEM_PID for e in counters)

    def test_open_spans_skipped(self):
        tel = Telemetry()
        tel.start_span("never-ends", node=1)
        doc = to_chrome_trace(tel)
        assert all(e["ph"] == "M" for e in doc["traceEvents"])

    def test_spans_share_tid_per_trace(self):
        tel = _populated_telemetry()
        events = [e for e in to_chrome_trace(tel)["traceEvents"] if e["ph"] in ("X", "i")]
        assert len({e["tid"] for e in events}) == 1


class TestValidator:
    def test_exporter_output_validates(self):
        assert validate_chrome_trace(to_chrome_trace(_populated_telemetry())) == []

    def test_missing_top_level(self):
        assert validate_chrome_trace({}) == [
            "top-level 'traceEvents' missing or not a list"
        ]

    def test_bad_events_flagged(self):
        doc = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 0, "ts": 0},
                {"ph": "X", "name": "x", "pid": 0, "ts": -1, "dur": 1},
                {"ph": "X", "name": "x", "pid": "zero", "ts": 0},
                {"ph": "C", "name": "x", "pid": 0, "ts": 0, "args": {}},
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("unknown phase" in p for p in problems)
        assert any("'ts' must be a number >= 0" in p for p in problems)
        assert any("'pid' must be an int" in p for p in problems)
        assert any("needs 'dur'" in p for p in problems)
        assert any("numeric args.value" in p for p in problems)
        assert any("process_name" in p for p in problems)

    def test_cli(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(to_chrome_trace(_populated_telemetry())))
        assert validate_main([str(good)]) == 0
        assert "OK" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert validate_main([str(bad)]) == 1
        assert validate_main([]) == 2
        assert validate_main([str(tmp_path / "missing.json")]) == 1


class TestSummaryTable:
    def test_renders_metrics_and_spans(self):
        text = summary_table(_populated_telemetry())
        assert "migration.moves" in text
        assert "network.latency" in text
        assert "histogram" in text
        assert "place.locked" in text
        # transfer span errored once
        assert any(
            line.split()[:3] == ["transfer", "1", "1"]
            for line in text.splitlines()
        )
        assert "open spans: 0" in text

    def test_empty_telemetry(self):
        text = summary_table(Telemetry())
        assert "(none)" in text


class TestExportRun:
    def test_writes_all_artifacts(self, tmp_path):
        tel = _populated_telemetry()
        paths = export_run(tel, tmp_path / "out")
        assert set(paths) == {"metrics", "spans", "trace", "summary"}
        for path in paths.values():
            assert path.exists()
        doc = json.loads(paths["trace"].read_text())
        assert validate_chrome_trace(doc) == []
        assert "telemetry summary" in paths["summary"].read_text()


class TestMetricsValidator:
    """metrics.jsonl schema checks, including the live runtime's names."""

    def _live_telemetry(self):
        tel = Telemetry()
        tel.metrics.counter("live.transport.frames_sent").inc(12)
        tel.metrics.counter("live.transport.frames_received").inc(11)
        tel.metrics.counter("wal.records_appended").inc(40)
        hist = tel.metrics.histogram(
            "live.transfer.latency_s", buckets=(0.01, 0.1, 1.0)
        )
        hist.observe(0.005)
        hist.observe(0.5)
        return tel

    def test_exported_live_metrics_validate(self, tmp_path):
        from repro.telemetry.validate import validate_metrics_jsonl

        path = write_metrics_jsonl(self._live_telemetry(), tmp_path / "m.jsonl")
        assert validate_metrics_jsonl(path.read_text()) == []

    def test_live_names_are_type_pinned(self):
        from repro.telemetry.validate import validate_metric_doc

        wrong = {
            "name": "live.transfer.latency_s",
            "type": "counter",
            "labels": {},
            "value": 3,
            "updated_at": 0.0,
        }
        assert any(
            "must be a histogram" in p for p in validate_metric_doc(wrong)
        )

    def test_histogram_consistency_enforced(self):
        from repro.telemetry.validate import validate_metric_doc

        doc = {
            "name": "live.transfer.latency_s",
            "type": "histogram",
            "labels": {},
            "buckets": [0.1, 1.0],
            "counts": [1, 0, 2],
            "sum": 2.2,
            "count": 5,  # disagrees with 1 + 0 + 2
            "updated_at": 0.0,
        }
        assert any(
            "disagrees" in p for p in validate_metric_doc(doc)
        )
        doc["counts"] = [1, 0]  # missing the overflow bucket
        assert any(
            "len(buckets)+1" in p for p in validate_metric_doc(doc)
        )

    def test_counter_must_not_go_negative(self):
        from repro.telemetry.validate import validate_metric_doc

        doc = {
            "name": "wal.records_appended",
            "type": "counter",
            "labels": {},
            "value": -1,
            "updated_at": 0.0,
        }
        assert any("negative" in p for p in validate_metric_doc(doc))

    def test_cli_dispatches_metrics_by_filename(self, tmp_path, capsys):
        path = write_metrics_jsonl(
            self._live_telemetry(), tmp_path / "metrics.jsonl"
        )
        assert validate_main([str(path)]) == 0
        bad = tmp_path / "metrics-bad.jsonl"
        bad.write_text('{"name": "x", "type": "mystery"}\n')
        assert validate_main([str(bad)]) == 1


class TestLiveSpanSchemas:
    def test_recovery_spans_require_their_tags(self):
        from repro.telemetry.validate import validate_span_doc

        base = {
            "trace_id": 1,
            "span_id": 2,
            "parent_id": None,
            "name": "wal.replay",
            "node": -1,
            "start": 0.0,
            "end": 1.0,
            "status": "ok",
            "tags": {},
        }
        assert any(
            "missing required tag 'records'" in p
            for p in validate_span_doc(base)
        )
        base["tags"] = {"records": 17}
        assert validate_span_doc(base) == []
        recover = dict(base, name="live.recover", tags={})
        assert any(
            "missing required tag 'mode'" in p
            for p in validate_span_doc(recover)
        )
        # The Chrome exporter folds tags into args, and the check follows.
        trace = {
            "traceEvents": [
                {"ph": "X", "name": "wal.replay", "pid": 0, "ts": 0,
                 "dur": 1, "args": {}},
            ]
        }
        assert any(
            "missing required tag 'records'" in p
            for p in validate_chrome_trace(trace)
        )

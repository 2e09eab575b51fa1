"""Cross-process tracing for the live runtime.

Unit layer: span-context propagation primitives (remote/detached
spans, ``span_context``, per-process id bands), the wire ``trace``
field, dedup-safe span recording, the flight recorder ring and dump
format, the per-process writer, clock-offset estimation, the merge
hub, and the exporter's real-pid mapping (with sim output pinned
byte-identical).

Smoke layer: one bounded multi-process run with a supervisor SIGKILL —
the merged Perfetto trace must validate, contain at least one
completed migration spanning >= 3 OS processes, and the killed
processes' flight-recorder dumps must be attached to the recovery
report.
"""

import asyncio
import json
import multiprocessing
import os
import time

import pytest

from repro.availability.livechaos import kill_supervisor_schedule
from repro.runtime.clock import WallClock
from repro.runtime.live.demo import run_supervised
from repro.runtime.live.node import LiveNodeWorker
from repro.runtime.live.supervisor import NodeSupervisor, SupervisorConfig
from repro.runtime.live.wire import (
    MOVE_REQUEST,
    PLACE,
    ROLLBACK,
    SEED,
    SUPERVISOR,
    Envelope,
    EnvelopeFactory,
)
from repro.telemetry.core import NULL_SPAN, NULL_TELEMETRY, Telemetry, span_context
from repro.telemetry.export import to_chrome_trace
from repro.telemetry.live import (
    SPAN_ID_BAND,
    ClockSync,
    FlightRecorder,
    ProcessTelemetryWriter,
    TelemetryHub,
    clean_telemetry_dir,
    load_flight_dump,
    process_id_base,
)
from repro.telemetry.validate import main as validate_main
from repro.telemetry.validate import validate_flight_jsonl

#: Hard ceiling for the full multi-process scenario.
SMOKE_TIMEOUT = 120


class TestSpanContext:
    def test_span_context_shapes(self):
        telemetry = Telemetry()
        span = telemetry.start_span("x")
        assert span_context(span) == (span.trace_id, span.span_id)
        assert span_context(None) is None
        assert span_context(NULL_SPAN) is None
        assert span_context(NULL_TELEMETRY.start_span("x")) is None

    def test_remote_context_joins_foreign_trace(self):
        local = Telemetry(id_base=process_id_base(1))
        remote = Telemetry(id_base=process_id_base(2))
        root = local.start_span("live.move", detached=True)
        child = remote.start_span(
            "live.grant", remote=span_context(root), detached=True
        )
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_detached_spans_leave_current_slot_alone(self):
        telemetry = Telemetry()
        outer = telemetry.start_span("outer")
        detached = telemetry.start_span("handler", detached=True)
        assert telemetry.current_span() is outer
        # A detached span with no context starts its own trace.
        assert detached.parent_id is None
        telemetry.end_span(detached)
        telemetry.end_span(outer)

    def test_process_id_bands_are_disjoint(self):
        bases = {
            process_id_base(node, inc)
            for node in (SUPERVISOR, 1, 2, 3)
            for inc in (0, 1, 2)
        }
        assert len(bases) == 12
        # A realistic run stays far inside one band.
        assert min(
            abs(a - b) for a in bases for b in bases if a != b
        ) == SPAN_ID_BAND

    def test_process_id_base_rejects_nonsense(self):
        with pytest.raises(ValueError):
            process_id_base(-2)
        with pytest.raises(ValueError):
            process_id_base(1, -1)


class TestWireTrace:
    def test_envelope_carries_trace_through_encode(self):
        factory = EnvelopeFactory(1)
        env = factory.make("kind", 2, {"k": 1}, trace=(7, 9))
        assert Envelope.decode(env.encode()).trace == (7, 9)
        assert factory.make("kind", 2, {}).trace is None


class TestDedupSingleSpan:
    def test_duplicated_envelope_records_exactly_one_span(self, tmp_path):
        """At-most-once span recording under at-least-once delivery."""

        async def scenario():
            worker = LiveNodeWorker(
                node_id=1,
                listen=("tcp", "127.0.0.1", 1),
                peers={1: ("tcp", "127.0.0.1", 1)},
                seed_objects=[],
                telemetry_dir=str(tmp_path),
            )

            async def no_reply(request, payload):
                return None

            worker.transport.reply = no_reply
            worker.transport.handler = worker.handle
            envelope = EnvelopeFactory(SUPERVISOR).make(
                SEED, 1, {"objects": []}
            )
            # The same msg_id delivered twice: a retry/redelivery storm.
            await worker.transport._dispatch(envelope)
            await worker.transport._dispatch(envelope)
            if worker.transport._side_tasks:
                await asyncio.gather(*worker.transport._side_tasks)
            return worker

        worker = asyncio.run(scenario())
        assert len(worker.telemetry.spans_named("live.seed")) == 1
        # The flight recorder, by contrast, must show the redelivery.
        recvs = [
            e for e in worker.flight.entries() if e["event"] == "recv"
        ]
        assert [e["duplicate"] for e in recvs] == [False, True]


class TestArbiterSpans:
    """A home and the supervisor serve arbitration through one code
    path, so their spans time the same decision and carry the same
    tags."""

    @staticmethod
    def _arbiter_spans(endpoint, node):
        """Serve grant -> place -> rollback at ``endpoint``; its spans."""
        replies = []

        async def capture(envelope, payload=None):
            replies.append(payload)

        endpoint.transport.reply = capture
        endpoint.outbox.post = lambda *args, **kwargs: None
        # Which spans are open while each decision runs.
        during = []
        arbiter = endpoint.arbiter
        for name in ("grant", "place", "rollback"):

            def timed(*args, _decide=getattr(arbiter, name)):
                open_now = endpoint.telemetry.open_spans()
                during.append([s.name for s in open_now])
                return _decide(*args)

            setattr(arbiter, name, timed)
        mover = EnvelopeFactory(2)

        async def scenario():
            grant = {"object_id": 0}
            await endpoint.handle(mover.make(MOVE_REQUEST, node, grant))
            tid = {"transfer_id": replies[-1]["transfer_id"]}
            await endpoint.handle(mover.make(PLACE, node, tid))
            await endpoint.handle(mover.make(ROLLBACK, node, tid))

        asyncio.run(scenario())
        assert [r.get("granted", r.get("ok")) for r in replies] == [
            True, True, False,
        ]
        spans = [
            s
            for s in endpoint.telemetry.spans
            if s.name in ("live.grant", "live.place", "live.rollback")
        ]
        assert all(s.end is not None and s.node == node for s in spans)
        assert during == [["live.grant"], ["live.place"], ["live.rollback"]]
        return [(s.name, sorted(s.tags)) for s in spans]

    def test_home_and_supervisor_emit_the_same_spans(self, tmp_path):
        supervisor = NodeSupervisor(
            SupervisorConfig(
                num_nodes=3,
                num_objects=6,
                socket_dir=str(tmp_path),
                wal_fsync=False,
            ),
            telemetry=Telemetry(),
        )
        home = LiveNodeWorker(
            1, ("unix", "unused"), {}, [], num_slices=3,
            telemetry_dir=str(tmp_path),
        )
        home.arbiter.assign({0: 1, 3: 1})
        at_supervisor = self._arbiter_spans(supervisor, SUPERVISOR)
        supervisor.wal.close()
        at_home = self._arbiter_spans(home, 1)
        assert at_home == at_supervisor == [
            ("live.grant", ["granted", "object"]),
            ("live.place", ["ok", "transfer"]),
            ("live.rollback", ["ok", "transfer"]),
        ]


class TestFlightRecorder:
    def test_ring_is_bounded_and_dump_round_trips(self, tmp_path):
        path = FlightRecorder.path_for(tmp_path, 2, 1)
        flight = FlightRecorder(2, capacity=8, incarnation=1, path=path)
        for i in range(20):
            flight.record("state.tick", transfer_id=i)
        assert len(flight.entries()) == 8
        assert flight.recorded == 20
        flight.dump(reason="sigterm")
        header, entries = load_flight_dump(path)
        assert header["node"] == 2
        assert header["incarnation"] == 1
        assert header["reason"] == "sigterm"
        assert header["pid"] == os.getpid()
        assert [e["transfer_id"] for e in entries] == list(range(12, 20))
        with open(path) as handle:
            assert validate_flight_jsonl(handle.read()) == []

    def test_observer_hooks_keep_payload_bits(self, tmp_path):
        flight = FlightRecorder(
            1, path=FlightRecorder.path_for(tmp_path, 1, 0)
        )
        factory = EnvelopeFactory(1)
        env = factory.make(
            "PLACE", 2, {"transfer_id": 4, "ok": True, "blob": "x"}
        )
        flight.on_send(env)
        flight.on_receive(env, duplicate=True)
        sent, received = flight.entries()
        assert sent["event"] == "send" and sent["transfer_id"] == 4
        assert "blob" not in sent  # payload bodies never recorded
        assert received["duplicate"] is True

    def test_load_rejects_malformed_dump(self, tmp_path):
        bad = tmp_path / "flight-n1-i0.jsonl"
        bad.write_text('{"not": "a header"}\n')
        with pytest.raises(ValueError):
            load_flight_dump(bad)
        assert validate_flight_jsonl(bad.read_text())


class TestProcessWriter:
    def test_incremental_flush_appends_only_closed_spans(self, tmp_path):
        telemetry = Telemetry(id_base=process_id_base(1))
        writer = ProcessTelemetryWriter(telemetry, tmp_path, 1)
        open_span = telemetry.start_span("live.move", detached=True, object=7)
        done = telemetry.start_span("live.seed", detached=True, count=0)
        telemetry.end_span(done)
        assert writer.flush() == 1
        # Still-open spans are carried, then written once they close.
        telemetry.end_span(open_span)
        assert writer.flush() == 1
        lines = writer.spans_path.read_text().splitlines()
        assert [json.loads(ln)["name"] for ln in lines] == [
            "live.seed",
            "live.move",
        ]
        # Flushing again writes nothing new.
        assert writer.flush() == 0

    def test_metrics_snapshot_gets_node_label(self, tmp_path):
        telemetry = Telemetry(id_base=process_id_base(3))
        writer = ProcessTelemetryWriter(telemetry, tmp_path, 3)
        telemetry.metrics.counter("live.worker.attempts").inc(5)
        writer.flush()
        doc = json.loads(writer.metrics_path.read_text())
        assert doc["labels"]["node"] == 3
        assert doc["value"] == 5


class TestClockSync:
    def test_minimum_delta_wins(self):
        sync = ClockSync()
        sync.observe(1, 0, remote_sent=10.0, local_recv=12.5)
        sync.observe(1, 0, remote_sent=11.0, local_recv=13.1)
        sync.observe(1, 0, remote_sent=12.0, local_recv=14.9)
        assert sync.offset(1, 0) == pytest.approx(2.1)
        assert sync.offset(1, 1) is None
        assert sync.export() == [
            {"node": 1, "incarnation": 0, "offset": pytest.approx(2.1)}
        ]


class TestExporterPids:
    def test_sim_output_unchanged_without_live_args(self):
        telemetry = Telemetry()
        span = telemetry.start_span("move", node=2)
        telemetry.end_span(span)
        doc = to_chrome_trace(telemetry)
        # Historical synthetic mapping: node id is the pid lane.
        assert {e["pid"] for e in doc["traceEvents"]} == {-1, 2}

    def test_pid_map_and_os_pid_tag_move_lanes(self):
        telemetry = Telemetry()
        mapped = telemetry.start_span("a", node=2)
        telemetry.end_span(mapped)
        tagged = telemetry.start_span("b", node=2, os_pid=4321)
        telemetry.end_span(tagged)
        doc = to_chrome_trace(
            telemetry,
            pid_map={2: 1234},
            process_names={1234: "worker-2 (pid 1234)"},
        )
        spans = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
        assert {e["pid"] for e in spans} == {1234, 4321}
        names = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[1234] == "worker-2 (pid 1234)"

    def test_time_scale_rescales_live_seconds(self):
        telemetry = Telemetry()
        span = telemetry.start_span("x", node=1)
        telemetry.end_span(span)
        span.start, span.end = 0.5, 1.5  # pin for determinism
        doc = to_chrome_trace(telemetry, time_scale=1e6)
        event = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["dur"] == pytest.approx(1e6)


class TestHubMerge:
    def _write_process(self, directory, node, incarnation, origin, spans):
        telemetry = Telemetry(id_base=process_id_base(node, incarnation))
        clock = WallClock()
        clock._origin = origin  # deterministic origins for the test
        telemetry.bind_clock(clock)
        writer = ProcessTelemetryWriter(
            telemetry,
            directory,
            node,
            incarnation=incarnation,
            role="supervisor" if node == SUPERVISOR else "worker",
            mono_origin=origin,
        )
        for name, tags in spans:
            telemetry.end_span(
                telemetry.start_span(name, node=node, detached=True, **tags)
            )
        writer.close()

    def test_merge_aligns_processes_and_validates(self, tmp_path):
        base = time.monotonic()
        # Worker started 2s *before* the supervisor, so at this real
        # instant its local clock reads ~2.0 while the supervisor's
        # reads ~0.0.  The origin-difference shift must bring both
        # spans (written at the same real moment) back together.
        self._write_process(
            tmp_path,
            SUPERVISOR,
            0,
            base,
            [("live.recover", {"mode": "central"})],
        )
        self._write_process(
            tmp_path, 1, 0, base - 2.0, [("live.seed", {"count": 0})]
        )
        (tmp_path / "manifest.json").write_text(
            json.dumps({"supervisor_origin": base, "clock_offsets": []})
        )
        merged = TelemetryHub(tmp_path).merge()
        assert merged["spans"] == 2
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "summary.txt").exists()
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert all(e["ts"] >= 0 for e in doc["traceEvents"])
        by_name = {
            e["name"]: e
            for e in doc["traceEvents"]
            if e["ph"] in ("X", "i")
        }
        delta_us = abs(
            by_name["live.recover"]["ts"] - by_name["live.seed"]["ts"]
        )
        assert delta_us < 0.2e6, "origin shift failed to align timelines"
        # The worker's pid lane carries its real OS pid.
        assert by_name["live.seed"]["pid"] == os.getpid()
        # Directory mode of the validator accepts the whole output.
        assert validate_main([str(tmp_path)]) == 0

    def test_clean_dir_removes_only_artifacts(self, tmp_path):
        self._write_process(
            tmp_path, 1, 0, 0.0, [("live.seed", {"count": 0})]
        )
        keep = tmp_path / "notes.md"
        keep.write_text("mine")
        removed = clean_telemetry_dir(tmp_path)
        assert removed == 2  # spans-*.jsonl + meta-*.json
        assert keep.exists()
        assert not list(tmp_path.glob("spans-*.jsonl"))


class TestValidatorDirectory:
    def test_empty_directory_fails(self, tmp_path):
        assert validate_main([str(tmp_path)]) == 1


def _run_kill_scenario(queue, telemetry_dir):
    config = SupervisorConfig(
        num_nodes=3,
        num_objects=60,
        target_migrations=60,
        max_duration=12.0,
        telemetry_dir=telemetry_dir,
    )
    chaos = kill_supervisor_schedule(config.num_nodes)
    queue.put(run_supervised(config, chaos))


class TestLiveTelemetrySmoke:
    def test_kill_run_produces_merged_trace_and_flight_dump(self, tmp_path):
        """The acceptance scenario: worker crash + supervisor kill.

        Asserts the observability bar end to end: a schema-valid merged
        Perfetto trace with >= 1 completed migration spanning >= 3 OS
        processes, killed processes' flight dumps attached to the
        recovery report, and no orphaned parents inside completed
        migration trees despite the restarts.  Runs in a child process
        under a hard watchdog.
        """
        telemetry_dir = str(tmp_path / "tele")
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        runner = ctx.Process(
            target=_run_kill_scenario, args=(queue, telemetry_dir)
        )
        runner.start()
        try:
            report = queue.get(timeout=SMOKE_TIMEOUT)
        finally:
            runner.join(5.0)
            if runner.is_alive():
                runner.kill()

        assert report["invariant_violations"] == []
        assert report["supervisor_recoveries"] >= 1

        # Flight dumps attached: at least the killed supervisor's.
        dumps = report["telemetry"]["flight_dumps"]
        assert any(d["node"] == SUPERVISOR for d in dumps)
        # Settlement cross-check produced well-formed verdicts.
        evidence = report["in_doubt"].get("flight_evidence", {})
        for entry in evidence.values():
            assert entry["verdict"] in ("commit", "rollback", "revert")

        merged = report["telemetry"]["merged"]
        assert merged["spans"] > 0
        assert validate_main([telemetry_dir]) == 0

        with open(merged["trace"]) as handle:
            doc = json.load(handle)
        spans = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
        by_id = {e["args"]["span_id"]: e for e in spans}
        pids_by_trace = {}
        names_by_trace = {}
        for event in spans:
            pids_by_trace.setdefault(event["tid"], set()).add(event["pid"])
            names_by_trace.setdefault(event["tid"], set()).add(event["name"])
        migrations = [
            tid
            for tid, names in names_by_trace.items()
            if {"live.move", "live.grant", "live.place"} <= names
            and len(pids_by_trace[tid]) >= 3
        ]
        assert migrations, "no completed migration spans >= 3 OS processes"
        # Restarts must not orphan completed migration trees: every
        # span in a completed migration trace resolves its parent.
        migration_tids = set(migrations)
        for event in spans:
            if event["tid"] in migration_tids:
                parent = event["args"]["parent_id"]
                assert parent is None or parent in by_id

"""Observability layer: metrics, causal spans, exporters.

The reproduction's end-of-run aggregates say *that* a policy degraded;
this package says *why*: a :class:`MetricsRegistry` samples kernel,
network, locking, invocation and migration counters in simulated time,
and causal :class:`~repro.telemetry.spans.Span` trees follow one
``move()`` through request, policy decision, closure computation,
transfer and rollback across nodes.  Exporters render both as JSONL and
as Chrome trace-event JSON loadable in Perfetto.

Everything defaults to :data:`NULL_TELEMETRY` (mirroring
:data:`~repro.sim.trace.NULL_TRACER`), whose disabled path is a single
attribute check — fault-free golden traces and metrics stay
bit-identical with telemetry off.

:mod:`repro.telemetry.live` extends the layer across OS-process
boundaries for the live runtime: per-process span/metric writers, a
crash flight recorder, clock-offset estimation, and a
:class:`~repro.telemetry.live.TelemetryHub` that merges every
process's files into one Perfetto trace on real pid lanes.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": (
            "NULL_SPAN",
            "NULL_TELEMETRY",
            "NullTelemetry",
            "Telemetry",
            "span_context",
        ),
        ".export": (
            "export_run",
            "summary_table",
            "to_chrome_trace",
            "write_chrome_trace",
            "write_metrics_jsonl",
            "write_spans_jsonl",
        ),
        ".metrics": (
            "DEFAULT_BUCKETS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "NullMetricsRegistry",
        ),
        ".live": (
            "ClockSync",
            "FlightRecorder",
            "ProcessTelemetryWriter",
            "TelemetryHub",
            "clean_telemetry_dir",
            "load_flight_dump",
            "process_id_base",
        ),
        ".spans": ("ERROR", "OK", "OPEN", "Span"),
        ".validate": ("validate_chrome_trace",),
    },
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "NULL_SPAN",
    "span_context",
    "Span",
    "OPEN",
    "OK",
    "ERROR",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "export_run",
    "summary_table",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_metrics_jsonl",
    "write_spans_jsonl",
    "validate_chrome_trace",
    "ClockSync",
    "FlightRecorder",
    "ProcessTelemetryWriter",
    "TelemetryHub",
    "clean_telemetry_dir",
    "load_flight_dump",
    "process_id_base",
]

"""Observability: event tracing, metrics, spans and timeline export.

The simulator stack computes rich per-request behaviour -- which bank
activated when, who hit an open row, where refresh and TSV contention
stole cycles -- and, before this package, discarded everything except
end-of-run aggregates.  ``repro.obs`` keeps that structure observable
with zero third-party dependencies:

* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms with dict/markdown export.
* :mod:`repro.obs.events` -- typed per-request :class:`EventTrace`
  recording (ACTIVATE / ROW_HIT / REFRESH_STALL / TSV_CONTENTION) with a
  :class:`NullRecorder` fast path for the uninstrumented hot loop.
* :mod:`repro.obs.spans` -- :class:`SpanTimeline`, the one nesting span
  recorder: host phases of the modelling pipeline, sweep runs and
  worker attempts, all as ``SpanRecord`` s under a :class:`TraceContext`.
* :mod:`repro.obs.export` -- Chrome ``trace_event`` JSON (open in
  Perfetto) and per-vault utilization / row-hit breakdown tables.
* :mod:`repro.obs.telemetry` -- cross-process run telemetry: sweep and
  serve tasks carry one :class:`TraceContext` to their worker, workers
  ship :class:`WorkerTelemetry` payloads of tree-linked spans back, and
  one fold aligns them into the parent's clock (:class:`RunTelemetry`
  merges a sweep into one Perfetto trace).
* :mod:`repro.obs.profile` -- a zero-dependency
  :class:`SamplingProfiler` (``--profile hz``) with collapsed-stack and
  top-N self-time output.
* :mod:`repro.obs.openmetrics` -- OpenMetrics/Prometheus text
  exposition (and validator) for any :class:`MetricsRegistry`.
* :mod:`repro.obs.logging` -- zero-dependency structured JSONL logging
  with bound correlation context (``run_id``/``point_id``/``worker_id``/
  ``attempt``), a bounded ring buffer and an on-disk sink
  (``--log-level``/``--log-out``).
* :mod:`repro.obs.monitor` -- the live sweep monitor:
  :class:`SweepStatus` accounting plus the embedded ``/status`` +
  ``/metrics`` + ``/logs`` HTTP server behind ``repro sweep --monitor``
  and ``repro tail``.
* :mod:`repro.obs.tracectx` -- the one trace model: the
  W3C-traceparent-style :class:`TraceContext` with deterministic
  trace/span ids that sweep points, serve requests and worker spans all
  hang from, the one span type (``SpanRecord``) and Chrome slice
  builder, plus the :class:`RequestTracer` span/link rings behind the
  serving stack's end-to-end Perfetto trees.
* :mod:`repro.obs.histogram` -- shared latency-histogram bucket
  boundaries plus exemplar-aware observe/summarize helpers
  (p50/p95/p99 for ``/status`` and ``repro tail``).
* :mod:`repro.obs.flight` -- the crash-forensics
  :class:`FlightRecorder`: snapshot logs, metrics, traces and in-flight
  state into ``flight-<trace_id>.json`` bundles on quarantine,
  breaker-open or SIGTERM (``repro bundle`` fetches and inspects them).
* :mod:`repro.obs.report` -- the self-contained static HTML run report
  behind ``python -m repro report --html``.

See ``docs/observability.md`` for the event schema and workflows, and
``python -m repro trace`` for the one-command entry point.
"""

from repro.obs.events import (
    EVENT_REGISTRY,
    NULL_RECORDER,
    Event,
    EventKind,
    EventTrace,
    NullRecorder,
    Recorder,
    registered_event_names,
)
from repro.obs.export import (
    chrome_trace,
    event_summary_table,
    stats_vault_table,
    vault_utilization_table,
    write_chrome_trace,
)
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    load_flight_bundle,
    render_flight_bundle,
    validate_flight_bundle,
)
from repro.obs.histogram import (
    latency_summary,
    observe_latency,
    quantile_from_snapshot,
    summarize_latencies,
)
from repro.obs.logging import (
    CONTEXT_KEYS,
    LOG_SCHEMA,
    JsonlSink,
    ListSink,
    LogPipeline,
    LogRecord,
    RingBufferSink,
    StructuredLogger,
    configure_logging,
    get_logger,
    global_pipeline,
    global_ring,
    reset_logging,
    shutdown_logging,
    validate_log_line,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
    pick_exemplar,
)
from repro.obs.monitor import (
    STATUS_SCHEMA,
    SweepMonitor,
    SweepStatus,
    render_status_line,
)
from repro.obs.openmetrics import (
    parse_openmetrics,
    render_openmetrics,
    write_openmetrics,
)
from repro.obs.profile import SamplingProfiler, profile_call
from repro.obs.spans import SpanTimeline, span_or_null
from repro.obs.telemetry import (
    ClockAnchor,
    RunTelemetry,
    WorkerTelemetry,
)
from repro.obs.tracectx import (
    TRACEPARENT_SCHEMA,
    RequestTracer,
    TraceContext,
    parse_traceparent,
)

__all__ = [
    "CONTEXT_KEYS",
    "ClockAnchor",
    "Counter",
    "EVENT_REGISTRY",
    "Event",
    "EventKind",
    "EventTrace",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "LOG_SCHEMA",
    "ListSink",
    "LogPipeline",
    "LogRecord",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "RequestTracer",
    "RingBufferSink",
    "RunTelemetry",
    "STATUS_SCHEMA",
    "SamplingProfiler",
    "SpanTimeline",
    "StructuredLogger",
    "SweepMonitor",
    "SweepStatus",
    "TRACEPARENT_SCHEMA",
    "TraceContext",
    "WorkerTelemetry",
    "chrome_trace",
    "configure_logging",
    "event_summary_table",
    "get_logger",
    "global_pipeline",
    "global_ring",
    "latency_summary",
    "load_flight_bundle",
    "merge_registries",
    "observe_latency",
    "parse_openmetrics",
    "parse_traceparent",
    "pick_exemplar",
    "profile_call",
    "quantile_from_snapshot",
    "registered_event_names",
    "render_flight_bundle",
    "render_openmetrics",
    "render_status_line",
    "reset_logging",
    "shutdown_logging",
    "span_or_null",
    "stats_vault_table",
    "summarize_latencies",
    "validate_flight_bundle",
    "validate_log_line",
    "vault_utilization_table",
    "write_chrome_trace",
    "write_openmetrics",
]

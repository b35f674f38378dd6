"""Cross-process run telemetry: worker payloads and their clock-aligned fold.

The parallel sweep engine and the planning service both run points in
worker processes.  This module carries those workers' observations
home on the one trace model of :mod:`repro.obs.tracectx`:

* :func:`task_telemetry` -- the one member a worker task carries: the
  W3C :class:`~repro.obs.tracectx.TraceContext` of the work (a sweep
  point, or the serve request that owns it) plus the run id;
* :class:`WorkerTelemetry` -- what a worker records about one attempt
  (:class:`~repro.obs.tracectx.SpanRecord` spans under the attempt's
  context, run-telemetry events, a
  :class:`~repro.obs.metrics.MetricsRegistry`, log records) plus a
  :class:`ClockAnchor` pairing its monotonic clock with wall time, all
  serialized as one JSON-native ``repro-worker-telemetry/v2`` payload
  shipped back with the result;
* :func:`align_worker_payload` -- the one fold: a payload's spans,
  events and logs shifted into the parent's monotonic clock domain;
* :class:`RunTelemetry` -- the sweep's parent-side merge: queue waits
  are derived from dispatch-vs-start timestamps, and the whole run
  exports as ONE Chrome ``trace_event`` JSON -- runner spans, per-point
  lifecycle tracks (queue wait, retries, cache hits) and one process
  per worker.

All wall-clock reads in the repository's deterministic layers happen
here (``repro.obs`` is the DET001-exempt zone); telemetry is run
*metadata* and never part of a deterministic result document.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import IO, Any

from repro.errors import ReproError
from repro.obs.events import (
    EV_QUEUE_WAIT,
    EV_WORKER_START,
    EventKind,
    registered_event_names,
)
from repro.obs.export import event_slice_name
from repro.obs.logging import (
    DEBUG,
    ListSink,
    LogPipeline,
    LogRecord,
    StructuredLogger,
    global_pipeline,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTimeline, chrome_slice, chrome_track_name
from repro.obs.tracectx import SpanRecord, TraceContext, TraceError

#: Schema tag stamped into every serialized worker payload (v2: the
#: attempt's W3C trace context and tree-linked span records).
WORKER_TELEMETRY_SCHEMA = "repro-worker-telemetry/v2"

#: Exact key set of a ``repro-worker-telemetry/v2`` payload.
WORKER_TELEMETRY_KEYS = frozenset(
    {
        "schema",
        "run_id",
        "point_id",
        "attempt",
        "worker_id",
        "context",
        "anchor",
        "spans",
        "events",
        "metrics",
        "logs",
    }
)

#: Chrome pid of the parent runner's span track.
RUNNER_PID = 0

#: Chrome pid of the per-point lifecycle track group.
POINTS_PID = 1

#: First chrome pid assigned to worker processes (then sequential).
WORKER_PID_BASE = 100

#: Bucket bounds for the queue-wait histogram (seconds).
_QUEUE_WAIT_BOUNDS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)


class TelemetryError(ReproError):
    """Malformed telemetry payload or invalid telemetry use."""


# ---------------------------------------------------------------- clock anchor
@dataclass(frozen=True)
class ClockAnchor:
    """A simultaneous reading of the wall clock and the monotonic clock.

    ``perf_counter`` timestamps are only meaningful within one process;
    pairing each process's monotonic clock with wall time at a known
    instant lets the parent translate worker timestamps into its own
    monotonic domain: two anchors differ by the (wall-estimated) offset
    between the two monotonic clocks.
    """

    wall_s: float
    perf_s: float

    @classmethod
    def now(cls) -> "ClockAnchor":
        """Anchor this instant (one wall read, one monotonic read)."""
        return cls(wall_s=time.time(), perf_s=time.perf_counter())

    def offset_to(self, other: "ClockAnchor") -> float:
        """Seconds to ADD to this clock's perf timestamps to express
        them in ``other``'s perf domain."""
        return (self.wall_s - self.perf_s) - (other.wall_s - other.perf_s)

    def as_dict(self) -> dict[str, float]:
        """JSON-native form."""
        return {"wall_s": self.wall_s, "perf_s": self.perf_s}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClockAnchor":
        """Inverse of :meth:`as_dict`."""
        return cls(wall_s=float(data["wall_s"]), perf_s=float(data["perf_s"]))


# ------------------------------------------------------------ telemetry events
@dataclass(frozen=True)
class TelemetryEvent:
    """One run-telemetry event in some process's monotonic clock.

    Attributes:
        kind: a registered :class:`~repro.obs.events.EventKind` value.
        ts_s: ``perf_counter`` timestamp (process-local until aligned).
        dur_s: duration (0 for instants).
        meta: free-form JSON-native annotations (point, attempt, ...).
    """

    kind: int
    ts_s: float
    dur_s: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-native form."""
        return {
            "kind": int(self.kind),
            "ts_s": self.ts_s,
            "dur_s": self.dur_s,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TelemetryEvent":
        """Inverse of :meth:`as_dict` (validates the kind is registered)."""
        kind = int(data["kind"])
        try:
            name = EventKind(kind).name
        except ValueError:
            name = ""
        if name not in registered_event_names():
            raise TelemetryError(f"unregistered telemetry event kind {kind}")
        return cls(
            kind=kind,
            ts_s=float(data["ts_s"]),
            dur_s=float(data.get("dur_s", 0.0)),
            meta=dict(data.get("meta", {})),
        )


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def task_telemetry(run_id: str, context: TraceContext) -> dict[str, Any]:
    """The one telemetry member a worker task carries (``task["telemetry"]``).

    ``context`` is the trace context the work belongs to -- a sweep
    point's (:meth:`RunTelemetry.context_for`) or the serve request's
    that owns the computation; the worker derives its attempt's context
    from it (:meth:`WorkerTelemetry.for_task`).
    """
    return {"run_id": run_id, "context": context.as_dict()}


# ------------------------------------------------------------ worker telemetry
class WorkerTelemetry:
    """What one worker records about one grid-point attempt.

    Created at task pickup (:meth:`for_task` derives the attempt's trace
    context, anchors the clocks and records a ``WORKER_START`` event),
    filled by the worker body (:meth:`span` regions, telemetry events,
    metrics, log records), and shipped back to the parent as the
    JSON-native :meth:`as_dict` payload riding on the task outcome.

    Spans are :class:`~repro.obs.tracectx.SpanRecord` s whose ids derive
    from the attempt's :attr:`context`, so a folded worker span is
    already a node of the sweep's or the request's span tree.
    """

    def __init__(
        self,
        context: TraceContext,
        run_id: str,
        point_id: int,
        attempt: int = 1,
        worker_id: int | None = None,
        anchor: ClockAnchor | None = None,
    ) -> None:
        #: The attempt's trace context; root worker spans are its children.
        self.context = context
        self.run_id = run_id
        self.point_id = point_id
        self.attempt = attempt
        self.worker_id = os.getpid() if worker_id is None else worker_id
        self.anchor = anchor or ClockAnchor.now()
        self.spans: list[SpanRecord] = []
        self.registry = MetricsRegistry()
        self.events: list[TelemetryEvent] = []
        #: Structured log records captured by :meth:`logger`, shipped
        #: home with the payload and clock-aligned on merge like spans.
        self.logs: list[LogRecord] = []
        self._log_pipeline = LogPipeline(level=DEBUG)
        self._log_pipeline.sinks = [ListSink(self.logs)]
        self._open: list[TraceContext] = []
        self._span_ids = itertools.count()

    @classmethod
    def for_task(cls, task: dict[str, Any]) -> "WorkerTelemetry | None":
        """Begin recording one task attempt; ``None`` without telemetry.

        Derives ``context.child("attempt", attempt)`` from the task's
        :func:`task_telemetry` member -- the same derivation the
        service's parent side uses for its ``attempt`` span -- and marks
        ``WORKER_START``.
        """
        member = task.get("telemetry")
        if not member:
            return None
        attempt = int(task.get("attempt", 1))
        telemetry = cls(
            TraceContext.from_dict(member["context"]).child("attempt", attempt),
            run_id=str(member["run_id"]),
            point_id=int(task["index"]),
            attempt=attempt,
        )
        telemetry.record_event(
            EV_WORKER_START, point=telemetry.point_id, attempt=attempt
        )
        return telemetry

    def now(self) -> float:
        """This process's monotonic clock (``perf_counter`` seconds)."""
        return time.perf_counter()

    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[None]:
        """Time one region as a span nested under any open one.

        Span ids derive from the attempt context in opening order;
        roots are children of the attempt context itself.
        """
        parent = self._open[-1] if self._open else self.context
        derived = self.context.child("wspan", next(self._span_ids))
        context = TraceContext(
            trace_id=derived.trace_id,
            span_id=derived.span_id,
            parent_id=parent.span_id,
        )
        self._open.append(context)
        start_s = self.now()
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append(
                SpanRecord(
                    context=context,
                    name=name,
                    start_s=start_s,
                    duration_s=self.now() - start_s,
                    meta=tuple(
                        sorted((k, _json_safe(v)) for k, v in meta.items())
                    ),
                )
            )

    def logger(self, name: str = "repro.sweep.worker") -> StructuredLogger:
        """A logger whose records are captured into :attr:`logs`.

        The returned logger is pre-bound with the full correlation
        context (run, point, worker pid, attempt, trace id) and writes
        into this payload only -- records travel home with the task
        outcome and reach the parent's sinks via
        :meth:`RunTelemetry.merge_worker`, clock-aligned like spans.
        """
        context = {
            "run_id": self.run_id,
            "point_id": self.point_id,
            "worker_id": self.worker_id,
            "attempt": self.attempt,
            "trace_id": self.context.trace_id,
        }
        return StructuredLogger(name, context, self._log_pipeline)

    def record_event(
        self, kind: int, dur_s: float = 0.0, ts_s: float | None = None,
        **meta: Any,
    ) -> TelemetryEvent:
        """Record one run-telemetry event (timestamped now by default)."""
        event = TelemetryEvent(
            kind=int(kind),
            ts_s=self.now() if ts_s is None else ts_s,
            dur_s=dur_s,
            meta={k: _json_safe(v) for k, v in meta.items()},
        )
        self.events.append(event)
        return event

    def as_dict(self) -> dict[str, Any]:
        """The JSON-native payload shipped back with the task outcome."""
        return {
            "schema": WORKER_TELEMETRY_SCHEMA,
            "run_id": self.run_id,
            "point_id": self.point_id,
            "attempt": self.attempt,
            "worker_id": self.worker_id,
            "context": self.context.as_dict(),
            "anchor": self.anchor.as_dict(),
            "spans": [span.as_dict() for span in self.spans],
            "events": [event.as_dict() for event in self.events],
            "metrics": self.registry.as_dict(),
            "logs": [record.as_dict() for record in self.logs],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WorkerTelemetry":
        """Rebuild a worker payload (inverse of :meth:`as_dict`).

        Raises :class:`TelemetryError` on a missing/foreign schema tag
        or malformed members -- a worker payload is machine-generated,
        so anything unexpected is a bug, not user input to coerce.
        """
        if not isinstance(data, dict):
            raise TelemetryError("worker telemetry payload must be a mapping")
        if data.get("schema") != WORKER_TELEMETRY_SCHEMA:
            raise TelemetryError(
                f"not a worker telemetry payload "
                f"(schema {data.get('schema')!r} != {WORKER_TELEMETRY_SCHEMA!r})"
            )
        try:
            telemetry = cls(
                TraceContext.from_dict(data["context"]),
                run_id=str(data["run_id"]),
                point_id=int(data["point_id"]),
                attempt=int(data["attempt"]),
                worker_id=int(data["worker_id"]),
                anchor=ClockAnchor.from_dict(data["anchor"]),
            )
            telemetry.spans = [
                SpanRecord.from_dict(entry) for entry in data["spans"]
            ]
            telemetry.events = [
                TelemetryEvent.from_dict(entry) for entry in data["events"]
            ]
            telemetry.registry = MetricsRegistry.from_snapshot(data["metrics"])
            telemetry.logs.extend(
                LogRecord.from_dict(entry) for entry in data["logs"]
            )
        except (KeyError, TypeError, ValueError, TraceError) as exc:
            raise TelemetryError(
                f"malformed worker telemetry payload ({exc!r})"
            ) from exc
        return telemetry


def align_worker_payload(
    payload: dict[str, Any], anchor: ClockAnchor
) -> WorkerTelemetry:
    """Rebuild one worker payload in the clock domain of ``anchor``.

    The one fold of worker telemetry, shared by the sweep runner
    (:meth:`RunTelemetry.merge_worker`) and the planning service: spans,
    events and logs are shifted by the anchor-pair offset, and the
    result carries ``anchor`` as its own.
    Raises :class:`TelemetryError` on a malformed payload.
    """
    telemetry = WorkerTelemetry.from_dict(payload)
    offset = telemetry.anchor.offset_to(anchor)
    telemetry.spans = [
        replace(span, start_s=span.start_s + offset) for span in telemetry.spans
    ]
    telemetry.events = [
        replace(event, ts_s=event.ts_s + offset) for event in telemetry.events
    ]
    telemetry.logs = [log.shifted(offset) for log in telemetry.logs]
    telemetry.anchor = anchor
    return telemetry


# --------------------------------------------------------------- run telemetry
class RunTelemetry:
    """The parent-side merge of a whole run's telemetry.

    Collects the runner's own spans and events, dispatch timestamps per
    point, and every worker's :class:`WorkerTelemetry` payload -- each
    aligned into the parent's monotonic clock domain via the paired
    :class:`ClockAnchor` readings -- and exports the lot as one
    Chrome/Perfetto trace plus a merged metrics registry.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Root of the run's trace; each point is a child of it.
        self.context = TraceContext.root(run_id)
        self.anchor = ClockAnchor.now()
        self.timeline = SpanTimeline()
        self.registry = MetricsRegistry()
        self.events: list[TelemetryEvent] = []
        #: Worker payloads aligned into the parent clock domain, in
        #: merge order.
        self.workers: list[WorkerTelemetry] = []
        self._submits: dict[int, float] = {}

    @classmethod
    def start(cls, run_id: str) -> "RunTelemetry":
        """Anchor the parent clocks and begin a run trace."""
        return cls(run_id)

    # ------------------------------------------------------------- recording
    def now(self) -> float:
        """The parent's monotonic clock (``perf_counter`` seconds)."""
        return time.perf_counter()

    def span(self, name: str, **meta: Any):
        """A parent-side timeline span (context manager)."""
        return self.timeline.span(name, **meta)

    def mark_submit(self, point_id: int) -> None:
        """Record the dispatch instant of one point (queue-wait origin)."""
        self._submits[point_id] = self.now()

    def record_event(
        self, kind: int, dur_s: float = 0.0, ts_s: float | None = None,
        **meta: Any,
    ) -> TelemetryEvent:
        """Record one parent-side run-telemetry event."""
        event = TelemetryEvent(
            kind=int(kind),
            ts_s=self.now() if ts_s is None else ts_s,
            dur_s=dur_s,
            meta={k: _json_safe(v) for k, v in meta.items()},
        )
        self.events.append(event)
        return event

    def context_for(self, point_id: int) -> TraceContext:
        """The trace context of one grid point (a child of the run's)."""
        return self.context.child("point", point_id)

    # --------------------------------------------------------------- merging
    def merge_worker(self, payload: dict[str, Any]) -> WorkerTelemetry:
        """Fold one worker payload in; returns it clock-aligned.

        The payload is aligned by :func:`align_worker_payload`, a
        ``QUEUE_WAIT`` event is derived from the dispatch timestamp, the
        worker's logs reach the global pipeline, and its metrics fold
        into :attr:`registry`.  A payload from another trace is refused.
        """
        telemetry = align_worker_payload(payload, self.anchor)
        if telemetry.context.trace_id != self.context.trace_id:
            raise TelemetryError(
                f"worker payload belongs to trace "
                f"{telemetry.context.trace_id!r}, expected "
                f"{self.context.trace_id!r} (run {self.run_id!r})"
            )
        self.workers.append(telemetry)
        self.registry.merge_snapshot(telemetry.registry.as_dict())
        pipeline = global_pipeline()
        for log in telemetry.logs:
            if pipeline.enabled_for(log.level):
                pipeline.emit(log)
        point_id = telemetry.point_id
        submitted = self._submits.get(point_id)
        started = min((span.start_s for span in telemetry.spans), default=None)
        if submitted is not None and started is not None:
            wait = max(0.0, started - submitted)
            self.record_event(
                EV_QUEUE_WAIT,
                dur_s=wait,
                ts_s=submitted,
                point=point_id,
                worker=telemetry.worker_id,
            )
            self.registry.histogram(
                "telemetry.queue_wait_s",
                _QUEUE_WAIT_BOUNDS,
                help="dispatch-to-worker-start wait per point (seconds)",
            ).observe(wait)
        return telemetry

    # ----------------------------------------------------------------- views
    def worker_ids(self) -> list[int]:
        """Distinct worker (OS process) ids, in first-seen order."""
        return list(dict.fromkeys(worker.worker_id for worker in self.workers))

    def origin_s(self) -> float:
        """Earliest aligned timestamp across the whole run (0 if empty)."""
        candidates = [span.start_s for span in self.timeline.spans]
        candidates += [event.ts_s for event in self.events]
        candidates += list(self._submits.values())
        for worker in self.workers:
            candidates += [span.start_s for span in worker.spans]
            candidates += [event.ts_s for event in worker.events]
        return min(candidates, default=0.0)

    def summary(self) -> str:
        """One-line human description of the merged trace."""
        spans = len(self.timeline) + sum(
            len(worker.spans) for worker in self.workers
        )
        events = len(self.events) + sum(
            len(worker.events) for worker in self.workers
        )
        return (
            f"run {self.run_id}: {len(self.workers)} worker payload(s) from "
            f"{len(self.worker_ids())} process(es), {spans} spans, "
            f"{events} telemetry events"
        )

    # ---------------------------------------------------------------- export
    def chrome_trace(self, metadata: dict | None = None) -> dict:
        """ONE Chrome ``trace_event`` JSON for the entire run.

        Track layout: pid :data:`RUNNER_PID` carries the parent runner's
        span timeline; pid :data:`POINTS_PID` has one thread per grid
        point with its lifecycle slices (``QUEUE_WAIT`` waits, ``RETRY``
        and ``CACHE_HIT`` instants); each worker process gets its own
        pid (named after the worker's OS pid) whose slices are the
        clock-aligned worker spans.  All timestamps are microseconds
        relative to the earliest aligned instant, so the viewer opens at
        t=0 with every process on one monotonic axis.
        """
        origin = self.origin_s()

        def event_entry(event: TelemetryEvent, pid: int, tid: int) -> dict:
            entry = {
                "name": event_slice_name(event.kind),
                "cat": "telemetry",
                "pid": pid,
                "tid": tid,
                "ts": (event.ts_s - origin) * 1e6,
                "args": {k: _json_safe(v) for k, v in event.meta.items()},
            }
            if event.dur_s > 0:
                entry.update(ph="X", dur=event.dur_s * 1e6)
            else:
                entry.update(ph="i", s="t")
            return entry

        out = [chrome_track_name(RUNNER_PID, "sweep runner")]
        out.extend(
            self.timeline.to_chrome_events(
                pid=RUNNER_PID, tid=0, clock_offset_s=origin
            )
        )

        point_ids = sorted(
            {event.meta["point"] for event in self.events
             if "point" in event.meta}
            | {worker.point_id for worker in self.workers}
        )
        if point_ids:
            out.append(chrome_track_name(POINTS_PID, "sweep points"))
        out.extend(
            chrome_track_name(POINTS_PID, f"point {point_id}", tid=point_id)
            for point_id in point_ids
        )
        out.extend(
            event_entry(event, POINTS_PID, event.meta.get("point", 0))
            for event in self.events
        )

        pid_of = {
            worker_id: WORKER_PID_BASE + index
            for index, worker_id in enumerate(self.worker_ids())
        }
        out.extend(
            chrome_track_name(pid, f"worker pid={worker_id}")
            for worker_id, pid in pid_of.items()
        )
        for worker in self.workers:
            pid = pid_of[worker.worker_id]
            for span in worker.spans:
                args = dict(span.meta)
                args["span"] = span.context.span_id
                args["point"] = worker.point_id
                out.append(
                    chrome_slice(span, pid=pid, origin_s=origin, args=args)
                )
            out.extend(event_entry(event, pid, 0) for event in worker.events)

        doc: dict = {"traceEvents": out, "displayTimeUnit": "ms"}
        other = {"run_id": self.run_id, "workers": len(pid_of)}
        if metadata:
            other.update({str(k): str(v) for k, v in metadata.items()})
        doc["otherData"] = {str(k): str(v) for k, v in other.items()}
        return doc

    def write_chrome_trace(
        self, target: str | IO[str], metadata: dict | None = None
    ) -> None:
        """Serialize :meth:`chrome_trace` to a path or open text file."""
        doc = self.chrome_trace(metadata=metadata)
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        else:
            json.dump(doc, target)

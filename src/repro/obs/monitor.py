"""Live sweep monitoring: an embedded ``/status`` + ``/metrics`` server.

PR 5 made sweeps observable *after the fact* (merged traces, OpenMetrics
dumps, HTML reports); this module makes them observable *while running*.
Two pieces:

* :class:`SweepStatus` -- thread-safe accounting the sweep runner
  updates as points complete: grid progress, per-worker state, retry
  and quarantine counts, cache hit rate, and a throughput-based ETA.
  It also accumulates the per-point metrics snapshots into a live
  :class:`~repro.obs.metrics.MetricsRegistry` so ``/metrics`` serves
  real mid-run numbers, not an end-of-run merge.
* :class:`SweepMonitor` -- a stdlib ``http.server`` thread in the
  parent process (``repro sweep --monitor PORT``; port 0 binds an
  ephemeral port) exposing:

  - ``GET /status`` -- one JSON document (:data:`STATUS_SCHEMA`):
    progress, throughput, ETA, per-worker state, failures, cache hits;
  - ``GET /metrics`` -- the OpenMetrics text exposition of the live
    registry plus progress gauges (scrapeable by any Prometheus agent,
    reusing :func:`repro.obs.openmetrics.render_openmetrics`);
  - ``GET /logs?n=N`` -- the newest N structured log records from the
    global ring buffer (:mod:`repro.obs.logging`), oldest first.

``python -m repro tail --url http://...`` polls ``/status`` and renders
the single-line live view (:func:`render_status_line`).

Monitoring is run *metadata*: the deterministic sweep document is
byte-identical with the monitor on or off (enforced by tests).
:class:`EmbeddedHTTPServer` and :class:`JsonRequestHandler` are the
server plumbing it shares with ``repro serve``
(:class:`~repro.serve.app.PlanServer`).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, TypeVar
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError
from repro.obs.histogram import (
    POINT_DURATION_BOUNDS,
    observe_latency,
    summarize_latencies,
)
from repro.obs.logging import RingBufferSink, get_logger, global_ring
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import render_openmetrics

#: Schema tag stamped into every ``/status`` document (v2 added the
#: ``latency`` summary section).
STATUS_SCHEMA = "repro-status/v2"

#: Exact key set of a ``repro-status/v2`` document.  SCHEMA001 holds
#: every producer of the tag to this declaration (``repro tail`` and CI
#: scrapers key off it); new fields need a new tag version.
STATUS_KEYS = frozenset(
    {
        "schema",
        "run_id",
        "state",
        "total",
        "completed",
        "simulated",
        "cached",
        "resumed",
        "failed",
        "failure_reasons",
        "retries",
        "jobs",
        "progress",
        "cache_hit_rate",
        "elapsed_s",
        "throughput_pts_per_s",
        "eta_s",
        "workers",
        "latency",
    }
)

#: The retired v1 status contract, kept declared so SCHEMA001 still
#: recognizes recorded v1 documents (no shipped producer remains).
STATUS_V1_SCHEMA = "repro-status/v1"
STATUS_V1_KEYS = frozenset(
    {
        "schema",
        "run_id",
        "state",
        "total",
        "completed",
        "simulated",
        "cached",
        "resumed",
        "failed",
        "failure_reasons",
        "retries",
        "jobs",
        "progress",
        "cache_hit_rate",
        "elapsed_s",
        "throughput_pts_per_s",
        "eta_s",
        "workers",
    }
)

#: Content type served by ``/metrics`` (OpenMetrics text exposition).
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Default record count for ``/logs`` when ``n`` is not given.
DEFAULT_LOG_TAIL = 100


class MonitorError(ReproError):
    """Invalid monitor configuration or use."""


# ---------------------------------------------------------------- sweep status
class SweepStatus:
    """Thread-safe live accounting of one sweep run.

    The runner calls the ``mark_*`` methods from its outcome loop; the
    monitor's HTTP threads call :meth:`snapshot` and
    :meth:`metrics_snapshot` concurrently.  All host-time reads live
    here (``repro.obs`` is the DET001-exempt zone) -- status is run
    metadata and never part of a deterministic result document.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.run_id: str | None = None
        self.state = "idle"
        self.total = 0
        self.simulated = 0
        self.cached = 0
        self.failed = 0
        self.retries = 0
        self.resumed = 0
        self.jobs = 0
        self._started_perf: float | None = None
        self._finished_perf: float | None = None
        #: worker_id -> {"points": n, "last_point": i, "last_seen_s": t}
        self._workers: dict[int, dict[str, Any]] = {}
        #: canonical QuarantineReason value -> count of quarantined points
        self._failure_reasons: dict[str, int] = {}
        self._registry = MetricsRegistry()

    # ------------------------------------------------------------- transitions
    def start_run(
        self, total: int, run_id: str | None = None,
        jobs: int = 1, resumed: int = 0,
    ) -> None:
        """Begin a run: reset counters, record identity and grid size."""
        with self._lock:
            self.run_id = run_id
            self.state = "running"
            self.total = int(total)
            self.simulated = 0
            self.cached = 0
            self.failed = 0
            self.retries = 0
            self.resumed = int(resumed)
            self.jobs = int(jobs)
            self._started_perf = time.perf_counter()
            self._finished_perf = None
            self._workers = {}
            self._failure_reasons = {}
            self._registry = MetricsRegistry()

    def finish(self) -> None:
        """Mark the run complete (``/status`` reports ``"done"``)."""
        with self._lock:
            self.state = "done"
            self._finished_perf = time.perf_counter()

    # --------------------------------------------------------------- progress
    def mark_cached(self, index: int) -> None:
        """One point replayed from the result cache."""
        with self._lock:
            self.cached += 1

    def mark_ok(
        self,
        index: int,
        worker_id: int | None = None,
        metrics: dict[str, Any] | None = None,
        duration_s: float | None = None,
    ) -> None:
        """One point simulated successfully.

        ``metrics`` is the worker's registry snapshot; folding it here
        keeps ``/metrics`` live instead of end-of-run.  ``duration_s``
        (the winning attempt's wall time) feeds the
        ``sweep.point_duration_s`` latency histogram behind the
        ``latency`` section of ``/status``.
        """
        with self._lock:
            self.simulated += 1
            if metrics:
                self._registry.merge_snapshot(metrics)
            if duration_s is not None:
                observe_latency(
                    self._registry,
                    "sweep.point_duration_s",
                    float(duration_s),
                    POINT_DURATION_BOUNDS,
                    help="per-point simulation wall time",
                )
            if worker_id is not None:
                entry = self._workers.setdefault(
                    worker_id, {"points": 0, "last_point": None,
                                "last_seen_s": 0.0},
                )
                entry["points"] += 1
                entry["last_point"] = index
                entry["last_seen_s"] = time.time()

    def mark_failed(self, index: int, reason: str | None = None) -> None:
        """One point quarantined after exhausting its attempts.

        ``reason`` is the canonical
        :class:`~repro.sweep.resilience.QuarantineReason` value from the
        failure record; ``/status`` reports the per-reason breakdown.
        """
        with self._lock:
            self.failed += 1
            if reason:
                key = str(reason)
                self._failure_reasons[key] = (
                    self._failure_reasons.get(key, 0) + 1
                )

    def mark_retry(self, index: int, attempts: int = 1) -> None:
        """``attempts`` extra attempts were spent on one point."""
        with self._lock:
            self.retries += int(attempts)

    # ------------------------------------------------------------------ views
    def _completed(self) -> int:
        return self.simulated + self.cached + self.failed

    def snapshot(self) -> dict[str, Any]:
        """The ``/status`` JSON document (consistent point-in-time copy)."""
        with self._lock:
            completed = self._completed()
            now = time.perf_counter()
            if self._started_perf is None:
                elapsed = 0.0
            else:
                end = (
                    self._finished_perf
                    if self._finished_perf is not None
                    else now
                )
                elapsed = max(0.0, end - self._started_perf)
            throughput = completed / elapsed if elapsed > 0 else 0.0
            remaining = max(0, self.total - completed - self.resumed)
            eta_s = remaining / throughput if throughput > 0 else None
            attempted = self.simulated + self.cached
            return {
                "schema": STATUS_SCHEMA,
                "run_id": self.run_id,
                "state": self.state,
                "total": self.total,
                "completed": completed + self.resumed,
                "simulated": self.simulated,
                "cached": self.cached,
                "resumed": self.resumed,
                "failed": self.failed,
                "failure_reasons": dict(sorted(self._failure_reasons.items())),
                "retries": self.retries,
                "jobs": self.jobs,
                "progress": (
                    (completed + self.resumed) / self.total
                    if self.total
                    else 0.0
                ),
                "cache_hit_rate": (
                    self.cached / attempted if attempted else 0.0
                ),
                "elapsed_s": elapsed,
                "throughput_pts_per_s": throughput,
                "eta_s": eta_s,
                "workers": {
                    str(worker_id): dict(entry)
                    for worker_id, entry in sorted(self._workers.items())
                },
                "latency": summarize_latencies(self._registry.as_dict()),
            }

    def metrics_snapshot(self) -> dict[str, dict]:
        """The live registry plus progress gauges (``/metrics`` source)."""
        with self._lock:
            merged = MetricsRegistry.from_snapshot(self._registry.as_dict())
        snap = self.snapshot()
        merged.gauge(
            "sweep.progress", help="completed fraction of the grid"
        ).set(snap["progress"])
        merged.gauge(
            "sweep.points_total", help="grid points in this run"
        ).set(snap["total"])
        merged.gauge(
            "sweep.points_completed", help="points finished so far"
        ).set(snap["completed"])
        merged.gauge(
            "sweep.points_failed", help="points quarantined so far"
        ).set(snap["failed"])
        merged.gauge(
            "sweep.cache_hit_rate", help="cache hits / attempted points"
        ).set(snap["cache_hit_rate"])
        merged.gauge(
            "sweep.throughput_pts_per_s", help="completed points per second"
        ).set(snap["throughput_pts_per_s"])
        merged.gauge(
            "sweep.workers_seen", help="distinct worker processes observed"
        ).set(len(snap["workers"]))
        return merged.as_dict()


# ----------------------------------------------------------------- HTTP server
#: Seconds a connection may stay silent while the server reads a request
#: before it is dropped, so an idle client cannot pin a handler thread.
READ_TIMEOUT_S = 10.0


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Handler plumbing shared by the embedded servers.

    JSON and raw responses, a read timeout of :data:`READ_TIMEOUT_S`,
    and ``http.server`` chatter routed into the owner's structured
    logger.  Subclasses add the routes (``do_GET`` / ``do_POST``).
    """

    #: Set by :class:`EmbeddedHTTPServer` on the server object.
    server: Any

    def setup(self) -> None:
        """Arm the read timeout (read per connection, so the module
        constant stays the single knob)."""
        self.timeout = READ_TIMEOUT_S
        super().setup()

    def _send_json(
        self,
        payload: dict[str, Any],
        code: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(
            code, "application/json; charset=utf-8", body, headers=headers
        )

    def _send(
        self,
        code: int,
        content_type: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Route http.server chatter into the structured logger."""
        get_logger(self.server.owner.logger_name).debug(
            "http request", request=format % args,
            client=self.client_address[0],
        )


_Server = TypeVar("_Server", bound="EmbeddedHTTPServer")


class EmbeddedHTTPServer:
    """A stdlib ``ThreadingHTTPServer`` on a daemon thread.

    The base of :class:`SweepMonitor` and
    :class:`~repro.serve.app.PlanServer`: each request gets its own
    thread, ``port=0`` binds an ephemeral port (read :attr:`port` /
    :attr:`url` after construction), :meth:`close` is idempotent, and
    the object is a context manager.  Subclasses set the class
    attributes below.
    """

    #: Request handler class (a :class:`JsonRequestHandler`).
    handler: type[JsonRequestHandler]
    #: Error raised for a bad port or a failed bind.
    error: type[ReproError]
    #: What the server is, for log and error messages.
    kind: str
    #: Name of the serving thread.
    thread_name: str
    #: Structured logger for the start notice and request chatter.
    logger_name: str

    def __init__(self, port: int = 0, host: str = "127.0.0.1") -> None:
        if port < 0 or port > 65535:
            raise self.error(f"invalid {self.kind} port {port}")
        try:
            self._server = ThreadingHTTPServer((host, port), self.handler)
        except OSError as exc:
            raise self.error(
                f"cannot bind {self.kind} to {host}:{port} ({exc})"
            ) from exc
        self._server.daemon_threads = True
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def host(self) -> str:
        """Bound host address."""
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (the actual one when constructed with ``port=0``)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self: _Server) -> _Server:
        """Serve requests in a daemon thread (no-op when already running)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name=self.thread_name,
                daemon=True,
            )
            self._thread.start()
            get_logger(self.logger_name).info(
                f"{self.kind} serving", url=self.url
            )
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self: _Server) -> _Server:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _MonitorHandler(JsonRequestHandler):
    """Request handler for the three monitor endpoints."""

    server_version = "repro-monitor/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        monitor: SweepMonitor = self.server.owner
        if split.path == "/status":
            self._send_json(monitor.status.snapshot())
        elif split.path == "/metrics":
            text = render_openmetrics(monitor.status.metrics_snapshot())
            self._send(200, OPENMETRICS_CONTENT_TYPE, text.encode("utf-8"))
        elif split.path == "/logs":
            query = parse_qs(split.query)
            try:
                n = int(query.get("n", [str(DEFAULT_LOG_TAIL)])[0])
            except ValueError:
                self._send_json(
                    {"error": "query parameter n must be an integer"},
                    code=400,
                )
                return
            records = monitor.ring.tail(n)
            self._send_json(
                {
                    "schema": "repro-logs-tail/v1",
                    "count": len(records),
                    "dropped": monitor.ring.dropped,
                    "records": [record.as_dict() for record in records],
                }
            )
        else:
            self._send_json(
                {
                    "error": f"unknown path {split.path!r}",
                    "endpoints": ["/status", "/metrics", "/logs"],
                },
                code=404,
            )


class SweepMonitor(EmbeddedHTTPServer):
    """The embedded monitoring server around one :class:`SweepStatus`.

    Usage (the CLI does exactly this for ``--monitor PORT``)::

        status = SweepStatus()
        with SweepMonitor(status, port=0) as monitor:
            print(monitor.url)
            run_sweep(grid, status=status, telemetry=True)

    A slow scraper never blocks the sweep: the server runs on its own
    daemon thread, one thread per request (:class:`EmbeddedHTTPServer`).
    """

    handler = _MonitorHandler
    error = MonitorError
    kind = "monitor"
    thread_name = "repro-monitor"
    logger_name = "repro.obs.monitor"

    def __init__(
        self,
        status: SweepStatus | None = None,
        port: int = 0,
        host: str = "127.0.0.1",
        ring: RingBufferSink | None = None,
    ) -> None:
        self.status = status if status is not None else SweepStatus()
        self._ring = ring
        super().__init__(port=port, host=host)

    @property
    def ring(self) -> RingBufferSink:
        """The ring buffer ``/logs`` serves (global pipeline's default)."""
        return self._ring if self._ring is not None else global_ring()


# ------------------------------------------------------------------- tail view
def render_status_line(snapshot: dict[str, Any], width: int = 24) -> str:
    """One-line live progress view of a ``/status`` snapshot.

    ``repro tail`` redraws this with a carriage return; it is also
    usable as a plain one-shot summary (``--once``).
    """
    total = snapshot.get("total", 0) or 0
    completed = snapshot.get("completed", 0) or 0
    progress = snapshot.get("progress", 0.0) or 0.0
    filled = int(round(width * min(1.0, max(0.0, progress))))
    bar = "#" * filled + "-" * (width - filled)
    run_id = snapshot.get("run_id") or "-"
    state = snapshot.get("state", "?")
    parts = [
        f"run {run_id}",
        f"[{bar}] {completed}/{total} ({100 * progress:.0f}%)",
        f"{len(snapshot.get('workers', {}))} worker(s)",
    ]
    cached = snapshot.get("cached", 0)
    if cached:
        parts.append(f"{cached} cached")
    failed = snapshot.get("failed", 0)
    if failed:
        parts.append(f"{failed} FAILED")
    retries = snapshot.get("retries", 0)
    if retries:
        parts.append(f"{retries} retries")
    throughput = snapshot.get("throughput_pts_per_s") or 0.0
    if throughput > 0:
        parts.append(f"{throughput:.2f} pt/s")
    latency = snapshot.get("latency") or {}
    summary = (
        latency.get("sweep.point_duration_s")
        or latency.get("serve.request_s")
    )
    if summary and summary.get("count"):
        p50 = summary.get("p50_s")
        p99 = summary.get("p99_s")
        if p50 is not None and p99 is not None:
            parts.append(f"p50 {p50:.3g}s p99 {p99:.3g}s")
    eta = snapshot.get("eta_s")
    if state == "done":
        parts.append("done")
    elif eta is not None:
        parts.append(f"ETA {eta:.0f}s")
    return " | ".join(parts)

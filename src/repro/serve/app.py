"""HTTP transport of the layout-planning service.

:class:`PlanServer` wraps one :class:`~repro.serve.service.PlanService`
on the same :class:`~repro.obs.monitor.EmbeddedHTTPServer` base as the
sweep monitor: a daemon thread, ephemeral ports via ``port=0``,
idempotent ``close()``, a read timeout per connection.  Endpoints:

* ``POST /plan``  -- one plan request; 200 (envelope), 400 (bad
  request), 429 + ``Retry-After`` (shed), 503 (degraded / shutdown),
  504 (deadline).
* ``GET /healthz`` -- liveness: 200 whenever the process serves HTTP.
* ``GET /readyz``  -- readiness: 200 while admitting with a closed
  breaker, 503 while draining or degraded.
* ``GET /status``  -- the service status document
  (:data:`~repro.serve.schemas.SERVE_STATUS_SCHEMA`).
* ``GET /metrics`` -- OpenMetrics text exposition of the ``serve_*``
  family (bucket tails carry trace_id exemplars).
* ``GET /debug/bundle`` -- an on-demand flight-recorder bundle
  (:data:`~repro.obs.flight.FLIGHT_SCHEMA`); 404 when the service runs
  without a recorder.

``POST /plan`` honours an incoming W3C ``traceparent`` header and
returns one on every response, so callers can stitch the service's
span tree into their own traces.

:func:`serve_forever` is the CLI body: it installs SIGTERM/SIGINT
handlers that trigger graceful shutdown -- stop admission, drain
in-flight requests within the drain deadline, then tear down in the
established compose order (server and service first; the CLI's
profiler and log sinks follow in ``main()``).
"""

from __future__ import annotations

import json
import signal
import threading
from typing import Any

from repro.obs.monitor import (
    OPENMETRICS_CONTENT_TYPE,
    EmbeddedHTTPServer,
    JsonRequestHandler,
)
from repro.obs.openmetrics import render_openmetrics
from repro.serve.schemas import ServeError, error_envelope
from repro.serve.service import PlanService

#: Maximum accepted request body, bytes (a plan request is tiny).
MAX_BODY_BYTES = 1 << 20


class _ServeHandler(JsonRequestHandler):
    """Request handler bridging HTTP to the service core."""

    server_version = "repro-serve/1"

    @property
    def _service(self) -> PlanService:
        return self.server.owner.service

    def _healthz(self) -> None:
        self._send_json({"ok": True})

    def _readyz(self) -> None:
        ready = self._service.ready()
        self._send_json({"ready": ready}, code=200 if ready else 503)

    def _status(self) -> None:
        self._send_json(self._service.status_snapshot())

    def _metrics(self) -> None:
        text = render_openmetrics(self._service.metrics_snapshot())
        self._send(200, OPENMETRICS_CONTENT_TYPE, text.encode("utf-8"))

    def _bundle(self) -> None:
        recorder = self._service.recorder
        if recorder is None:
            self._send_json(
                error_envelope(
                    "no-recorder",
                    "service is running without a flight recorder",
                ),
                code=404,
            )
        else:
            self._send_json(recorder.capture("on-demand"))

    def _plan(self) -> None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(
                error_envelope(
                    "bad-request", "missing or oversized request body"
                ),
                code=400,
            )
            return
        try:
            data = json.loads(self.rfile.read(length) or b"{}")
        except (OSError, json.JSONDecodeError) as exc:
            self._send_json(
                error_envelope("bad-request", f"invalid JSON body ({exc})"),
                code=400,
            )
            return
        try:
            code, payload, headers = self._service.handle(
                data, traceparent=self.headers.get("traceparent")
            )
        except ServeError as exc:
            self._send_json(
                error_envelope("unavailable", str(exc)), code=503
            )
            return
        self._send_json(payload, code=code, headers=headers)

    routes = {
        ("GET", "/healthz"): _healthz,
        ("GET", "/readyz"): _readyz,
        ("GET", "/status"): _status,
        ("GET", "/metrics"): _metrics,
        ("GET", "/debug/bundle"): _bundle,
        ("POST", "/plan"): _plan,
    }


class PlanServer(EmbeddedHTTPServer):
    """The HTTP server around one (started) :class:`PlanService`.

    Usage::

        with PlanService(...) as service, PlanServer(service, port=0) as srv:
            print(srv.url)
            ...

    ``port=0`` binds an ephemeral port; read :attr:`port` / :attr:`url`
    after construction.  :meth:`close` is idempotent and only stops the
    HTTP listener -- the service's own drain/teardown belongs to its
    owner.
    """

    handler = _ServeHandler
    error = ServeError
    kind = "service"
    thread_name = "repro-serve-http"
    logger_name = "repro.serve.http"

    def __init__(
        self,
        service: PlanService,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.service = service
        super().__init__(port=port, host=host)


def serve_forever(
    service: PlanService,
    port: int,
    host: str = "127.0.0.1",
    stop_event: threading.Event | None = None,
    install_signals: bool = True,
    announce: Any = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, then shut down gracefully.

    Graceful order: stop admission -> drain in-flight requests within
    the service's drain deadline -> close the HTTP listener -> close
    the service (cancelling anything the drain left behind).  Returns 0
    on a clean drain, 1 when the drain deadline expired.

    ``stop_event`` and ``install_signals`` exist for tests: pass an
    event and ``install_signals=False`` to drive shutdown without
    signals (handlers may only be installed on the main thread).
    """
    stop = stop_event if stop_event is not None else threading.Event()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop.set())
    service.start()
    server = PlanServer(service, port=port, host=host).start()
    if announce is not None:
        # Deliberate rendering path: the CLI's startup banner.
        print(  # repro: ignore[LOG001]
            f"serving at {server.url} "
            "(POST /plan; /healthz /readyz /status /metrics)",
            file=announce,
        )
    try:
        # Polling keeps the wait interruptible by signal handlers on
        # every platform (a bare Event.wait() may block them).
        while not stop.is_set():
            stop.wait(0.2)
        # Forensics first: snapshot the live state before the drain
        # empties the in-flight table.
        service.dump_flight("sigterm")
        drained = service.drain()
    finally:
        server.close()
        service.close()
    return 0 if drained else 1

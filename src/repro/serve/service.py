"""The layout-planning service core: asyncio over the sweep machinery.

:class:`PlanService` is the transport-independent heart of ``repro
serve``.  It owns an asyncio event loop on a dedicated thread and a
thread pool whose workers drive the sweep stack's killable per-attempt
child processes (:func:`repro.sweep.resilience.run_attempt`), so every
robustness property composes from pieces the offline path already
trusts:

* **Admission** -- :class:`~repro.serve.admission.AdmissionController`
  bounds in-flight requests; excess load is shed *before* any work is
  scheduled (HTTP 429 + ``Retry-After``).
* **Coalescing** -- identical in-flight points share one computation,
  keyed by the *same* content address the sweep's
  :class:`~repro.sweep.cache.ResultCache` uses, so the service and
  ``repro sweep`` interoperate through a shared on-disk cache.
* **Deadlines** -- each request's budget is enforced with
  ``asyncio.wait_for``; cancellation propagates through a
  ``threading.Event`` into :func:`run_attempt`, which terminates the
  abandoned child process.
* **Retries** -- every point runs through the sweep's one retry
  executor (:func:`~repro.sweep.resilience.run_with_retries`) under its
  :class:`~repro.sweep.resilience.RetryPolicy` (deterministic backoff),
  so a failed point reports the sweep's ``error`` / ``reason`` wording.
  A client error (``ConfigError``, ``LayoutError``, ``FFTError`` in the
  worker) answers 400 and never reaches the breaker.
* **Circuit breaking** -- consecutive worker failures trip the
  :class:`~repro.serve.breaker.CircuitBreaker`; while OPEN the service
  answers from cache only (``"degraded": true`` envelopes, ``/readyz``
  503) and recovers through a half-open probe without a restart.
* **Draining** -- :meth:`PlanService.drain` stops admission and waits
  for in-flight requests; accepted requests are never dropped.

Result documents embedded in response envelopes are byte-identical to
``repro sweep`` output for the same resolved config (enforced by test):
the service builds the same grid, hashes the same payloads and
assembles the same :class:`~repro.sweep.results.SweepResult`.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import CancelledError as FutureCancelled
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any

from repro.core.config import SystemConfig
from repro.errors import ConfigError
from repro.obs.flight import FlightRecorder
from repro.obs.histogram import (
    ATTEMPT_BOUNDS,
    ENGINE_PHASE_BOUNDS,
    QUEUE_WAIT_BOUNDS,
    SERVE_LATENCY_BOUNDS,
    observe_latency,
    summarize_latencies,
)
from repro.obs.logging import get_logger, global_ring
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    ClockAnchor,
    TelemetryError,
    align_worker_payload,
    task_telemetry,
)
from repro.obs.tracectx import RequestTracer, TraceContext, parse_traceparent
from repro.serialization import system_to_dict
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CLOSED, OPEN, STATE_VALUES, CircuitBreaker
from repro.serve.schemas import (
    SERVE_STATUS_SCHEMA,
    PlanRequest,
    ServeError,
    error_envelope,
    parse_plan_request,
    response_envelope,
)
from repro.sweep.cache import ResultCache
from repro.sweep.resilience import (
    CLIENT_ERRORS,
    QuarantineReason,
    RetryPolicy,
    WorkerChaos,
    run_attempt,
    run_with_retries,
)

#: Default bound on concurrently admitted requests.
DEFAULT_QUEUE_LIMIT = 16

#: Default per-request wall-clock budget in seconds.
DEFAULT_DEADLINE_S = 30.0

#: Default drain budget on graceful shutdown, seconds.
DEFAULT_DRAIN_S = 10.0

#: ``Retry-After`` hint (seconds) on shed responses.
SHED_RETRY_AFTER_S = 1

#: How often the drain loop re-checks for idleness, seconds.
_DRAIN_POLL_S = 0.02


class _PointFailure(ServeError):
    """A point exhausted its attempts; carries the canonical reason."""

    def __init__(self, error: str, message: str, reason: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error
        self.detail = message
        self.reason = reason


class _SharedPoint:
    """One in-flight point computation, shared by coalesced waiters."""

    __slots__ = ("key", "task", "cancel_event", "waiters", "trace_id")

    def __init__(
        self,
        key: str,
        task: "asyncio.Task[dict[str, Any] | None]",
        cancel_event: threading.Event,
        trace_id: str | None = None,
    ) -> None:
        self.key = key
        self.task = task
        self.cancel_event = cancel_event
        self.waiters = 0
        #: Trace of the request that started the computation; coalesced
        #: joiners link their traces to it.
        self.trace_id = trace_id


def _consume_exception(task: "asyncio.Task[Any]") -> None:
    """Done-callback: retrieve an abandoned task's exception quietly."""
    if not task.cancelled():
        task.exception()


def _log_ring_snapshot(n: int = 200) -> dict[str, Any]:
    """The process log ring as a flight-bundle section."""
    ring = global_ring()
    return {
        "records": [record.as_dict() for record in ring.tail(n)],
        "dropped": ring.dropped,
    }


class PlanService:
    """The serving core: admission, coalescing, deadlines, degradation.

    Thread model: HTTP handler threads call :meth:`handle`, which does
    admission accounting and blocks on a coroutine scheduled onto the
    service's private event loop; the loop fans point computations out
    to a thread pool whose workers drive killable child processes.

    Args:
        config: base system configuration requests override.
        cache: shared result cache (interoperable with ``repro sweep``).
        policy: retry policy for transient worker failures.
        jobs: thread-pool width (concurrent point computations).
        queue_limit: max concurrently admitted requests (excess sheds).
        default_deadline_s: per-request budget when the request names
            none.
        drain_s: default drain budget on graceful shutdown.
        breaker: circuit breaker (injectable clock for tests).
        chaos: worker fault injection (tests; point index is always 0).
        engine: timing engine for workers (never affects results).
        tracer: span collector for end-to-end request traces; ``None``
            disables span retention (every response still carries a
            deterministic trace_id -- result bytes are identical either
            way, enforced by test).
        recorder: flight recorder for crash-forensics bundles; the
            service registers its providers and auto-dumps on
            quarantine and breaker-open transitions.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        cache: ResultCache | None = None,
        policy: RetryPolicy | None = None,
        jobs: int = 4,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_deadline_s: float = DEFAULT_DEADLINE_S,
        drain_s: float = DEFAULT_DRAIN_S,
        breaker: CircuitBreaker | None = None,
        chaos: WorkerChaos | None = None,
        engine: str = "vector",
        tracer: RequestTracer | None = None,
        recorder: FlightRecorder | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"serve jobs must be >= 1, got {jobs}")
        if default_deadline_s <= 0:
            raise ConfigError(
                f"default deadline must be positive, got {default_deadline_s}"
            )
        self.config = config if config is not None else SystemConfig()
        self.cache = cache
        self.policy = policy if policy is not None else RetryPolicy(retries=1)
        self.jobs = int(jobs)
        self.default_deadline_s = float(default_deadline_s)
        self.drain_s = float(drain_s)
        self.admission = AdmissionController(queue_limit)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.chaos = chaos
        self.engine = engine
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._pool: ThreadPoolExecutor | None = None
        #: cache key -> in-flight shared computation (loop-confined).
        self._inflight: dict[str, _SharedPoint] = {}
        self._seq = itertools.count(1)
        self._metrics_lock = threading.Lock()
        self._counters = {
            "cache_hits": 0,
            "coalesced": 0,
            "computed_points": 0,
            "deadline_misses": 0,
            "degraded_answers": 0,
            "degraded_refusals": 0,
            "compute_failures": 0,
            "flight_dumps": 0,
        }
        #: canonical QuarantineReason value -> count of failed points.
        self._failure_reasons: dict[str, int] = {}
        self._closed = False
        self.tracer = tracer
        self.recorder = recorder
        #: Clock anchor pairing wall and perf time, used to shift worker
        #: span timestamps into this process's perf domain.
        self._anchor = ClockAnchor.now()
        #: Latency histograms (end-to-end, queue-wait, attempt, engine
        #: phase), guarded by ``_metrics_lock`` like the counters.
        self._latency = MetricsRegistry()
        #: request_id -> in-flight descriptor (the flight recorder's
        #: in-flight request table).
        self._active: dict[str, dict[str, Any]] = {}
        if self.breaker.on_transition is None:
            self.breaker.on_transition = self._on_breaker_transition
        if recorder is not None:
            self._register_flight_providers(recorder)

    # ------------------------------------------------------------- forensics
    def _register_flight_providers(self, recorder: FlightRecorder) -> None:
        """Wire every flight-bundle section to its live snapshot source."""
        recorder.register("status", self.status_snapshot)
        recorder.register("metrics", self.metrics_snapshot)
        recorder.register("breaker", self.breaker.snapshot)
        recorder.register(
            "config", lambda: system_to_dict(self.config)
        )
        recorder.register("in_flight", self.inflight_snapshot)
        recorder.register("logs", _log_ring_snapshot)
        recorder.register(
            "traces",
            lambda: self.tracer.snapshot() if self.tracer is not None else [],
        )

    def inflight_snapshot(self) -> list[dict[str, Any]]:
        """The in-flight request table (flight-bundle section)."""
        now = time.perf_counter()
        with self._metrics_lock:
            entries = [dict(entry) for entry in self._active.values()]
        for entry in entries:
            entry["age_s"] = max(0.0, now - entry.pop("started_s"))
        return entries

    def dump_flight(self, trigger: str, trace_id: str | None = None) -> str | None:
        """Write a flight bundle; forensics failures never propagate."""
        if self.recorder is None:
            return None
        try:
            path = self.recorder.dump(trigger, trace_id=trace_id)
        except Exception as exc:  # noqa: BLE001 - never fail the request path
            get_logger("repro.serve").error(
                "flight dump failed", trigger=trigger, error=str(exc)
            )
            return None
        self._bump("flight_dumps")
        log = (
            get_logger("repro.serve", trace_id=trace_id)
            if trace_id
            else get_logger("repro.serve")
        )
        log.warning(
            "flight bundle dumped", event="FLIGHT_DUMP", trigger=trigger, path=path
        )
        return path

    def _on_breaker_transition(
        self, old_state: str, new_state: str, snapshot: dict[str, Any]
    ) -> None:
        """Breaker observer (runs outside the breaker lock): log every
        transition, dump a flight bundle when the breaker opens."""
        get_logger("repro.serve").warning(
            "breaker transition",
            event="BREAKER_TRANSITION",
            old=old_state,
            new=new_state,
            consecutive_failures=snapshot["consecutive_failures"],
            trips=snapshot["trips"],
        )
        if new_state == OPEN:
            self.dump_flight("breaker-open")

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "PlanService":
        """Spin up the event loop thread and worker pool (idempotent)."""
        if self._loop is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-serve-worker"
        )
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-loop", daemon=True
        )
        self._loop_thread.start()
        get_logger("repro.serve").info(
            "service started",
            jobs=self.jobs,
            queue_limit=self.admission.limit,
        )
        return self

    def begin_drain(self) -> None:
        """Stop admitting new requests (they shed with 429)."""
        self.admission.begin_drain()
        get_logger("repro.serve").info("drain started")

    def drain(self, deadline_s: float | None = None) -> bool:
        """Stop admission and wait for in-flight requests to finish.

        Returns ``True`` when the service went idle within the budget;
        ``False`` means requests were still running when it expired
        (close() will cancel them).
        """
        self.begin_drain()
        budget = self.drain_s if deadline_s is None else deadline_s
        deadline = time.monotonic() + budget
        while not self.admission.idle():
            if time.monotonic() >= deadline:
                get_logger("repro.serve").warning(
                    "drain deadline expired",
                    in_flight=self.admission.snapshot()["depth"],
                )
                return False
            time.sleep(_DRAIN_POLL_S)
        get_logger("repro.serve").info("drain complete")
        return True

    def close(self) -> None:
        """Tear down: cancel leftovers, stop the loop, join the pool.

        Idempotent.  Callers wanting a graceful exit run :meth:`drain`
        first; anything still in flight here is cancelled (its waiters
        receive a shutdown error, its child processes are terminated).
        """
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None:

            def _cancel_inflight() -> None:
                for shared in list(self._inflight.values()):
                    shared.cancel_event.set()
                    shared.task.cancel()

            loop.call_soon_threadsafe(_cancel_inflight)
            # Give cancellations one beat to propagate, then stop.
            loop.call_soon_threadsafe(loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=5.0)
                self._loop_thread = None
            loop.close()
            self._loop = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        get_logger("repro.serve").info("service closed")

    def __enter__(self) -> "PlanService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- public API
    def ready(self) -> bool:
        """``/readyz`` truth: admitting requests and breaker closed."""
        return (
            not self._closed
            and not self.admission.draining
            and self.breaker.state == CLOSED
        )

    def _trace_root(
        self, request_id: str, traceparent: str | None
    ) -> TraceContext:
        """The root trace context of one request.

        Without an incoming header the root is derived from the request
        id alone (deterministic); with one, the request joins the
        remote trace as a child span.
        """
        if traceparent:
            try:
                remote = parse_traceparent(traceparent)
            except Exception:  # noqa: BLE001 - bad headers never fail a request
                return TraceContext.root(request_id)
            return remote.child(f"request:{request_id}")
        return TraceContext.root(request_id)

    def handle(
        self, data: Any, traceparent: str | None = None
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Answer one decoded request body; ``(code, payload, headers)``.

        Called from transport threads.  Validation failures are 400 and
        never enter admission; shed requests are 429 with
        ``Retry-After`` and never schedule work.  Every response --
        including errors -- carries a ``trace_id``; ``traceparent`` (the
        W3C header, when the caller sent one) makes the request a child
        of the caller's trace.
        """
        if self._loop is None or self._closed:
            raise ServeError("service is not running (call start())")
        try:
            request = parse_plan_request(data)
            payloads = request.point_payloads(self.config)
        except ConfigError as exc:
            ctx = self._trace_root(f"bad-request-{next(self._seq)}", traceparent)
            return (
                400,
                error_envelope("bad-request", str(exc), trace_id=ctx.trace_id),
                {"traceparent": ctx.format_traceparent()},
            )
        request_id = f"{request.digest()[:8]}-{next(self._seq)}"
        ctx = self._trace_root(request_id, traceparent)
        trace_headers = {"traceparent": ctx.format_traceparent()}
        if not self.admission.try_admit():
            why = "draining" if self.admission.draining else "queue full"
            return (
                429,
                error_envelope(
                    "shed",
                    f"request shed ({why}); retry after a backoff",
                    request_id=request_id,
                    trace_id=ctx.trace_id,
                ),
                {"Retry-After": str(SHED_RETRY_AFTER_S), **trace_headers},
            )
        disposition = "cancelled"
        admitted_s = time.perf_counter()
        with self._metrics_lock:
            self._active[request_id] = {
                "request_id": request_id,
                "trace_id": ctx.trace_id,
                "n": request.n,
                "points": len(payloads),
                "started_s": admitted_s,
            }
        code = 0
        try:
            future = asyncio.run_coroutine_threadsafe(
                self._handle(request, request_id, payloads, ctx, admitted_s),
                self._loop,
            )
            code, payload, headers, disposition = future.result()
            return code, payload, {**headers, **trace_headers}
        except (FutureCancelled, asyncio.CancelledError):
            code = 503
            return (
                503,
                error_envelope(
                    "shutdown",
                    "service shut down before the request completed",
                    request_id=request_id,
                    reason=QuarantineReason.CANCELLED.value,
                    trace_id=ctx.trace_id,
                ),
                trace_headers,
            )
        finally:
            duration_s = time.perf_counter() - admitted_s
            with self._metrics_lock:
                self._active.pop(request_id, None)
                observe_latency(
                    self._latency,
                    "serve.request_s",
                    duration_s,
                    SERVE_LATENCY_BOUNDS,
                    exemplar=ctx.trace_id,
                    help="end-to-end POST /plan latency (seconds)",
                )
            if self.tracer is not None:
                self.tracer.record(
                    ctx,
                    "request",
                    start_s=admitted_s,
                    duration_s=duration_s,
                    request_id=request_id,
                    code=code,
                )
            if disposition == "completed":
                self.admission.complete()
            else:
                self.admission.cancel()

    # ------------------------------------------------------------ request core
    async def _handle(
        self,
        request: PlanRequest,
        request_id: str,
        payloads: list[tuple[str, dict[str, Any]]],
        ctx: TraceContext,
        admitted_s: float,
    ) -> tuple[int, dict[str, Any], dict[str, str], str]:
        """One admitted request on the loop: cache, breaker, compute."""
        log = get_logger(
            "repro.serve", request_id=request_id, trace_id=ctx.trace_id
        )
        queue_wait_s = max(0.0, time.perf_counter() - admitted_s)
        with self._metrics_lock:
            observe_latency(
                self._latency,
                "serve.queue_wait_s",
                queue_wait_s,
                QUEUE_WAIT_BOUNDS,
                exemplar=ctx.trace_id,
                help="admission-to-loop-pickup wait (seconds)",
            )
        deadline_s = request.deadline_s or self.default_deadline_s
        results: dict[int, dict[str, Any]] = {}
        missing: list[tuple[int, str, dict[str, Any]]] = []
        for index, (key, payload) in enumerate(payloads):
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                results[index] = hit
            else:
                missing.append((index, key, payload))
        cached = len(results)
        if cached:
            self._bump("cache_hits", cached)
        log.info(
            "request admitted",
            event="REQUEST_START",
            n=request.n,
            points=len(payloads),
            cached=cached,
            deadline_s=deadline_s,
        )

        degraded = False
        coalesced = 0
        if missing:
            if not self.breaker.allow():
                self._bump("degraded_refusals")
                retry_after = max(1, int(self.breaker.retry_after_s()) or 1)
                log.warning(
                    "degraded refusal",
                    missing=len(missing),
                    breaker=self.breaker.state,
                )
                return (
                    503,
                    error_envelope(
                        "degraded",
                        "worker pool unavailable (circuit open) and "
                        f"{len(missing)} point(s) not cached",
                        request_id=request_id,
                        reason=self._last_failure_reason(),
                        trace_id=ctx.trace_id,
                    ),
                    {"Retry-After": str(retry_after)},
                    "completed",
                )
            shares = [self._acquire(key, payload, ctx) for _, key, payload in missing]
            coalesced = sum(1 for share in shares if share.waiters > 1)
            if coalesced:
                self._bump("coalesced", coalesced)
            for share in shares:
                if (
                    share.waiters > 1
                    and share.trace_id is not None
                    and share.trace_id != ctx.trace_id
                ):
                    if self.tracer is not None:
                        self.tracer.link(ctx, share.trace_id, "coalesced")
                    log.info(
                        "coalesce link",
                        event="COALESCE_LINK",
                        linked_trace_id=share.trace_id,
                        key=share.key[:12],
                    )
            try:
                computed = await asyncio.wait_for(
                    asyncio.gather(
                        *(self._await_share(share) for share in shares)
                    ),
                    timeout=deadline_s,
                )
            except (asyncio.TimeoutError, asyncio.CancelledError) as exc:
                self._bump("deadline_misses")
                log.warning("deadline missed", deadline_s=deadline_s)
                if isinstance(exc, asyncio.CancelledError) and self._closed:
                    raise
                return (
                    504,
                    error_envelope(
                        "deadline-exceeded",
                        f"request exceeded its {deadline_s}s deadline; "
                        "abandoned work was cancelled",
                        request_id=request_id,
                        reason=QuarantineReason.TIMEOUT.value,
                        trace_id=ctx.trace_id,
                    ),
                    {},
                    "cancelled",
                )
            except _PointFailure as exc:
                if exc.error in CLIENT_ERRORS:
                    log.info("bad request", error=exc.error, detail=exc.detail)
                    return (
                        400,
                        error_envelope(
                            "bad-request",
                            exc.detail,
                            request_id=request_id,
                            trace_id=ctx.trace_id,
                        ),
                        {},
                        "completed",
                    )
                self._bump("compute_failures")
                log.error(
                    "compute failed", error=exc.error, reason=exc.reason
                )
                self.dump_flight("quarantine", trace_id=ctx.trace_id)
                return (
                    500,
                    error_envelope(
                        exc.error,
                        exc.detail,
                        request_id=request_id,
                        reason=exc.reason,
                        trace_id=ctx.trace_id,
                    ),
                    {},
                    "completed",
                )
            finally:
                for share in shares:
                    self._release(share)
            for (index, _, _), result in zip(missing, computed):
                results[index] = result
            self._bump("computed_points", len(missing))
        elif self.breaker.state != CLOSED:
            # Every point answered from cache while the pool is sick:
            # still a correct document, flagged so callers know.
            degraded = True
            self._bump("degraded_answers")

        ordered = [results[index] for index in range(len(payloads))]
        envelope = response_envelope(
            request,
            request_id,
            ordered,
            cached=cached,
            computed=len(missing),
            coalesced=coalesced,
            degraded=degraded,
            trace_id=ctx.trace_id,
        )
        log.info(
            "request served",
            best_layout=envelope["best"]["layout"],
            cached=cached,
            computed=len(missing),
            degraded=degraded,
        )
        return 200, envelope, {}, "completed"

    # ------------------------------------------------------------- coalescing
    def _acquire(
        self, key: str, payload: dict[str, Any], ctx: TraceContext | None = None
    ) -> _SharedPoint:
        """Join (or start) the in-flight computation for ``key``."""
        assert self._loop is not None
        shared = self._inflight.get(key)
        if shared is None:
            cancel_event = threading.Event()
            point_ctx = ctx.child(f"point:{key[:12]}") if ctx is not None else None
            task = self._loop.create_task(
                self._run_point(key, payload, cancel_event, point_ctx)
            )
            task.add_done_callback(_consume_exception)
            shared = _SharedPoint(
                key,
                task,
                cancel_event,
                trace_id=ctx.trace_id if ctx is not None else None,
            )
            self._inflight[key] = shared
        shared.waiters += 1
        return shared

    def _release(self, shared: _SharedPoint) -> None:
        """Drop one waiter; the last one cancels abandoned work."""
        shared.waiters -= 1
        if shared.waiters <= 0 and not shared.task.done():
            shared.cancel_event.set()
            shared.task.cancel()
            self._inflight.pop(shared.key, None)

    async def _await_share(self, shared: _SharedPoint) -> dict[str, Any]:
        """Await a shared computation without cancelling co-waiters."""
        result = await asyncio.shield(shared.task)
        if result is None:
            # The computation noticed its cancel event (another waiter's
            # deadline raced ours); treat as our own cancellation.
            raise asyncio.CancelledError()
        return result

    async def _run_point(
        self,
        key: str,
        payload: dict[str, Any],
        cancel_event: threading.Event,
        ctx: TraceContext | None = None,
    ) -> dict[str, Any] | None:
        """The single shared task computing one point on the pool."""
        assert self._loop is not None and self._pool is not None
        try:
            return await self._loop.run_in_executor(
                self._pool, self._compute_point, key, payload, cancel_event, ctx
            )
        finally:
            self._inflight.pop(key, None)

    # ----------------------------------------------------------- worker bridge
    def _compute_point(
        self,
        key: str,
        payload: dict[str, Any],
        cancel_event: threading.Event,
        ctx: TraceContext | None = None,
    ) -> dict[str, Any] | None:
        """Pool-thread body: one point through the shared retry executor.

        Returns the point result, ``None`` when cancelled, or raises
        :class:`_PointFailure` after the policy is exhausted.  Breaker
        outcomes are recorded here, per point; a client error (see
        :data:`~repro.sweep.resilience.CLIENT_ERRORS`) never counts
        against the breaker.  With a tracer attached, the task ships the
        point's trace context into every worker child and the returned
        telemetry spans fold back into the request tree; the task
        payload mutations happen *after* the cache key is fixed, so
        results and keys are byte-identical either way.
        """
        task = {**payload, "index": 0, "engine": self.engine}
        if ctx is not None and self.tracer is not None:
            # The worker derives each attempt's context itself.
            task["telemetry"] = task_telemetry(ctx.trace_id, ctx)
        point_start_s = time.perf_counter()
        # run_attempt is looked up in this module at call time, so a
        # wrapped module attribute sees every serve attempt.
        entry = run_with_retries(
            run_attempt, task, self.policy, self.chaos, cancel_event
        )
        with self._metrics_lock:
            for record in entry["attempts_log"]:
                observe_latency(
                    self._latency,
                    "serve.attempt_s",
                    record["duration_s"],
                    ATTEMPT_BOUNDS,
                    exemplar=ctx.trace_id if ctx is not None else None,
                    help="one killable worker attempt (seconds)",
                )
        if ctx is not None and self.tracer is not None:
            for record in entry["attempts_log"]:
                self.tracer.record(
                    ctx.child("attempt", record["attempt"]),
                    "attempt",
                    start_s=record["start_s"],
                    duration_s=record["duration_s"],
                    attempt=record["attempt"],
                    status=record["status"],
                )
            self.tracer.record(
                ctx,
                "point",
                start_s=point_start_s,
                duration_s=time.perf_counter() - point_start_s,
                key=key[:12],
            )
        if entry["status"] == "cancelled":
            return None
        if entry["status"] == "ok":
            result = entry["outcome"]["result"]
            self._fold_worker_spans(entry["outcome"].get("telemetry"))
            self.breaker.record_success()
            if self.cache is not None:
                # The payload is exactly the {point, config, max_requests}
                # document the key was computed from.
                self.cache.put(key, payload, result)
            return result
        failure = entry["failure"]
        if failure["error"] in CLIENT_ERRORS:
            # The worker answered, so the pool is healthy: this closes a
            # half-open probe instead of leaving it in flight forever.
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
            with self._metrics_lock:
                self._failure_reasons[failure["reason"]] = (
                    self._failure_reasons.get(failure["reason"], 0) + 1
                )
        raise _PointFailure(failure["error"], failure["message"], failure["reason"])

    def _fold_worker_spans(self, payload: dict[str, Any] | None) -> None:
        """Add a worker child's spans to the request trace.

        The payload is clock-aligned by the same fold the sweep runner
        uses; its spans already hang under the attempt's context.
        Telemetry defects are swallowed -- tracing must never fail a
        successful compute.

        ``serve.engine_phase_s`` observes the worker's own ``simulate``
        span (the child of its ``point`` span) only: the engine's inner
        ``simulate`` under ``column-phase/<layout>`` shares the name but
        is a different phase.
        """
        if self.tracer is None or not payload:
            return
        try:
            worker = align_worker_payload(payload, self._anchor)
        except TelemetryError:
            return
        point_ids = {
            span.context.span_id for span in worker.spans if span.name == "point"
        }
        for span in worker.spans:
            self.tracer.add(replace(span, name=f"worker:{span.name}"))
            if span.name == "simulate" and span.context.parent_id in point_ids:
                with self._metrics_lock:
                    observe_latency(
                        self._latency,
                        "serve.engine_phase_s",
                        span.duration_s,
                        ENGINE_PHASE_BOUNDS,
                        exemplar=span.context.trace_id,
                        help="engine simulation phase inside a worker (seconds)",
                    )

    # ----------------------------------------------------------------- metrics
    def _bump(self, name: str, by: int = 1) -> None:
        with self._metrics_lock:
            self._counters[name] += by

    def _last_failure_reason(self) -> str | None:
        """The most common recorded failure reason (degraded envelopes)."""
        with self._metrics_lock:
            if not self._failure_reasons:
                return None
            return max(
                sorted(self._failure_reasons),
                key=lambda reason: self._failure_reasons[reason],
            )

    def status_snapshot(self) -> dict[str, Any]:
        """The ``/status`` JSON document of the service."""
        admission = self.admission.snapshot()
        with self._metrics_lock:
            counters = dict(self._counters)
            reasons = dict(sorted(self._failure_reasons.items()))
            latency = self._latency.as_dict()
        return {
            "schema": SERVE_STATUS_SCHEMA,
            "state": "draining" if admission["draining"] else "serving",
            "ready": self.ready(),
            "admission": admission,
            "breaker": self.breaker.snapshot(),
            "counters": counters,
            "failure_reasons": reasons,
            "latency": summarize_latencies(latency),
        }

    def metrics_snapshot(self) -> dict[str, dict]:
        """The ``serve_*`` gauge/counter family for ``/metrics``."""
        snap = self.status_snapshot()
        admission = snap["admission"]
        registry = MetricsRegistry()
        registry.gauge(
            "serve.queue_depth", help="admitted requests in flight"
        ).set(admission["depth"])
        registry.gauge(
            "serve.queue_limit", help="admission bound"
        ).set(admission["limit"])
        registry.gauge(
            "serve.draining", help="1 while draining, else 0"
        ).set(1.0 if admission["draining"] else 0.0)
        registry.gauge(
            "serve.breaker_state",
            help="0 closed, 1 half-open, 2 open",
        ).set(STATE_VALUES[snap["breaker"]["state"]])
        registry.counter(
            "serve.requests", help="requests submitted"
        ).inc(admission["submitted"])
        registry.counter(
            "serve.accepted", help="requests admitted"
        ).inc(admission["accepted"])
        registry.counter(
            "serve.shed", help="requests shed with 429"
        ).inc(admission["shed"])
        registry.counter(
            "serve.completed", help="admitted requests answered"
        ).inc(admission["completed"])
        registry.counter(
            "serve.cancelled", help="admitted requests abandoned"
        ).inc(admission["cancelled"])
        registry.counter(
            "serve.breaker_trips", help="times the breaker opened"
        ).inc(snap["breaker"]["trips"])
        counters = snap["counters"]
        registry.counter(
            "serve.deadline_misses", help="requests past their deadline"
        ).inc(counters["deadline_misses"])
        registry.counter(
            "serve.cache_hits", help="points answered from cache"
        ).inc(counters["cache_hits"])
        registry.counter(
            "serve.coalesced", help="point computations joined in flight"
        ).inc(counters["coalesced"])
        registry.counter(
            "serve.computed_points", help="points computed by workers"
        ).inc(counters["computed_points"])
        registry.counter(
            "serve.degraded_answers", help="cache-only degraded 200s"
        ).inc(counters["degraded_answers"])
        registry.counter(
            "serve.degraded_refusals", help="degraded 503 refusals"
        ).inc(counters["degraded_refusals"])
        registry.counter(
            "serve.compute_failures", help="requests failed by workers"
        ).inc(counters["compute_failures"])
        registry.counter(
            "serve.flight_dumps", help="flight-recorder bundles written"
        ).inc(counters["flight_dumps"])
        with self._metrics_lock:
            latency = self._latency.as_dict()
        registry.merge_snapshot(latency)
        return registry.as_dict()

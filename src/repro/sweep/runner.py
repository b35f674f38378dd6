"""Sweep execution: serial fallback, process-pool fan-out, cache reuse.

The runner walks a grid's points in their deterministic order and, for
each point, either replays a cached result or simulates the column
phase via :func:`repro.core.simulate.simulate_column_phase`.  Uncached
points fan out across worker processes
(:class:`concurrent.futures.ProcessPoolExecutor`); ``jobs=1`` runs the
identical code path inline, so parallelism can never change results.

Each worker returns its point result together with a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot; the parent merges
the snapshots (counters add, histograms combine bucket-wise) in grid
order into one run-level registry.

Execution is *resilient*: a worker exception is quarantined as a
structured record in the result's ``failures`` section instead of
aborting the grid.  A :class:`~repro.sweep.resilience.RetryPolicy`
upgrades every point to killable per-attempt child processes with
timeouts and deterministic exponential backoff; a checkpoint path makes
the runner snapshot completed points periodically so ``resume=True``
replays them after an interruption.  See :mod:`repro.sweep.resilience`
and ``docs/sweep.md``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from collections.abc import Callable, Iterator
from typing import Any

from repro.core.config import SystemConfig
from repro.core.simulate import simulate_column_phase
from repro.errors import ConfigError
from repro.obs.events import EV_CACHE_HIT, EV_RETRY, EV_WORKER_END
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import SweepStatus
from repro.obs.spans import SpanTimeline, span_or_null
from repro.obs.telemetry import RunTelemetry, WorkerTelemetry, task_telemetry
from repro.serialization import system_from_dict, system_to_dict, system_with_overrides
from repro.sweep.cache import CACHE_VERSION, ResultCache
from repro.sweep.grid import SweepGrid, SweepPoint
from repro.sweep.resilience import (
    RetryPolicy,
    SweepCheckpoint,
    WorkerChaos,
    apply_chaos,
    describe_exception,
    failure_record,
    run_attempt,
    run_with_retries,
)
from repro.sweep.results import SweepResult

#: Default cap on exactly-simulated requests per point.
DEFAULT_SWEEP_REQUESTS = 65_536

#: Completed points between checkpoint snapshots.
DEFAULT_CHECKPOINT_EVERY = 8

#: Bucket bounds for the per-run utilization histogram (% of peak).
_UTILIZATION_BOUNDS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0)


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value: ``<= 0`` means one per CPU."""
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def validate_grid(grid: SweepGrid, config: SystemConfig) -> None:
    """Fail fast on points the simulator would reject later.

    Checks every ``"ddl"`` point's block shape against the row-buffer
    capacity and the matrix dimensions, so a bad grid dies with one
    clear error instead of mid-sweep inside a worker.
    """
    s = config.memory.row_elements
    for point in grid.points():
        if point.layout != "ddl" or point.height is None:
            continue
        if s % point.height:
            raise ConfigError(
                f"grid point N={point.n}: height {point.height} does not "
                f"divide the {s}-element row buffer"
            )
        width = s // point.height
        if point.n % point.height or point.n % width:
            raise ConfigError(
                f"grid point N={point.n}: block {width}x{point.height} does "
                f"not tile an {point.n}x{point.n} matrix"
            )


def point_result(
    point: SweepPoint,
    config: SystemConfig,
    max_requests: int,
    engine: str = "vector",
    spans: SpanTimeline | None = None,
) -> dict[str, Any]:
    """Simulate one sweep point and package the result as a plain dict.

    The dict is JSON-native (string keys, scalars only) so it survives
    the cache round-trip byte-for-byte -- a replayed point is
    indistinguishable from a fresh one.  ``engine`` picks the timing
    engine; the two are stat-for-stat equivalent (CI's
    ``engine-equivalence`` gate), so it changes wall-clock only, never
    the result dict.  ``spans`` records the column phase's engine spans
    (:func:`~repro.core.simulate.simulate_column_phase`).
    """
    run = simulate_column_phase(
        config,
        point.n,
        layout=point.layout,
        height=point.height,
        whole_blocks=point.whole_blocks,
        max_requests=max_requests,
        spans=spans,
        engine=engine,
    )
    metrics = run.metrics
    stats = metrics.stats
    assert stats is not None  # every column-phase path simulates a trace
    peak = config.peak_bandwidth
    return {
        "n": point.n,
        "layout": point.layout,
        "config": point.config_label,
        "height": run.height,
        "width": run.width,
        "discipline": run.discipline,
        "whole_blocks": point.whole_blocks,
        "throughput_gbps": metrics.throughput_gbps,
        "throughput_gbitps": metrics.throughput_gbitps,
        "utilization": metrics.utilization(peak),
        "bound": metrics.bound,
        "memory_time_ns": metrics.memory_time_ns,
        "kernel_time_ns": metrics.kernel_time_ns,
        "first_output_latency_ns": metrics.first_output_latency_ns,
        "memory_bandwidth_gbps": stats.bandwidth_gbps,
        "memory_utilization": stats.utilization(peak),
        "requests": stats.requests,
        "row_activations": stats.row_activations,
        "row_hits": stats.row_hits,
        "row_hit_rate": stats.row_hit_rate,
    }


def _record_point_metrics(registry: MetricsRegistry, result: dict[str, Any]) -> None:
    registry.counter("sweep.points", help="points simulated").inc()
    registry.counter("sweep.requests", help="extrapolated requests across points").inc(
        result["requests"]
    )
    registry.counter("sweep.row_activations", help="row activations across points").inc(
        result["row_activations"]
    )
    registry.counter("sweep.row_hits", help="open-row hits across points").inc(
        result["row_hits"]
    )
    registry.histogram(
        "sweep.memory_utilization_pct",
        _UTILIZATION_BOUNDS,
        help="per-point memory bandwidth as % of peak",
    ).observe(100.0 * result["memory_utilization"])


def _execute_task(task: dict[str, Any]) -> dict[str, Any]:
    """Worker body: simulate one point, return result + metrics snapshot.

    Module-level (picklable) and fed only JSON-native payloads, so it
    runs identically inline, under ``fork`` and under ``spawn``.  An
    optional ``chaos`` member (see
    :class:`~repro.sweep.resilience.WorkerChaos`) makes the attempt
    misbehave for executor testing.

    When the task carries a ``telemetry`` member (see
    :func:`~repro.obs.telemetry.task_telemetry`) the worker records
    spans under the attempt's trace context -- ``point > simulate`` and,
    below them, the engine phases of
    :func:`~repro.core.simulate.simulate_column_phase` -- and ships the
    serialized :class:`~repro.obs.telemetry.WorkerTelemetry` payload
    back on the outcome; without it every span is a no-op.
    """
    chaos = task.get("chaos")
    if chaos:
        apply_chaos(chaos, task["index"], task.get("attempt", 1))
    worker_tel = WorkerTelemetry.for_task(task)
    config = system_from_dict(task["config"])
    point = SweepPoint(**task["point"])
    registry = MetricsRegistry()
    engine = task.get("engine", "vector")
    timeline = worker_tel.timeline if worker_tel is not None else None
    with span_or_null(
        timeline,
        "point",
        n=point.n,
        layout=point.layout,
        config=point.config_label,
        attempt=int(task.get("attempt", 1)),
    ):
        with span_or_null(timeline, "simulate"):
            result = point_result(
                point, config, task["max_requests"], engine=engine,
                spans=timeline,
            )
    _record_point_metrics(registry, result)
    outcome = {
        "index": task["index"],
        "result": result,
        "metrics": registry.as_dict(),
    }
    if worker_tel is not None:
        worker_tel.record_event(EV_WORKER_END, point=task["index"])
        worker_tel.logger().debug(
            "point simulated",
            n=result["n"],
            layout=result["layout"],
            config=result["config"],
            throughput_gbps=result["throughput_gbps"],
        )
        outcome["telemetry"] = worker_tel.as_dict()
    return outcome


# -------------------------------------------------------------- outcome plumbing
def _record_retry_events(
    run_tel: RunTelemetry, entry: dict[str, Any]
) -> None:
    """Turn one outcome's failed attempts into RETRY telemetry events."""
    if entry["status"] == "ok":
        index = entry["outcome"]["index"]
    else:
        index = entry["failure"]["index"]
    for record in entry.get("attempts_log", []):
        if record["status"] == "ok":
            continue
        run_tel.record_event(
            EV_RETRY,
            point=index,
            attempt=record["attempt"],
            status=record["status"],
            duration_s=record["duration_s"],
        )


def _iter_outcomes_fast(
    tasks: list[dict[str, Any]], jobs: int
) -> Iterator[dict[str, Any]]:
    """Plain execution: inline or process pool, exceptions quarantined."""

    def outcome_of(task: dict[str, Any], call: Callable[[], Any]) -> dict[str, Any]:
        try:
            return {"status": "ok", "outcome": call(), "retries": 0}
        except Exception as exc:  # noqa: BLE001 - quarantine, never abort
            error, message = describe_exception(exc)
            return {
                "status": "failed",
                "failure": failure_record(
                    index=task["index"],
                    point=task["point"],
                    error=error,
                    message=message,
                    attempts=1,
                ),
                "retries": 0,
            }

    if jobs == 1 or len(tasks) == 1:
        for task in tasks:
            yield outcome_of(task, lambda task=task: _execute_task(task))
        return
    # Workers are forked before this module's thread pool exists (the
    # resilient path uses run_attempt's fresh children instead), and
    # the worker body re-imports everything it touches; spawn would add
    # a full interpreter+numpy start per worker for no safety gain.
    # repro: ignore[CONC003]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures: dict[Future[Any], dict[str, Any]] = {
            pool.submit(_execute_task, task): task for task in tasks
        }
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                task = futures[future]
                yield outcome_of(task, future.result)


def _iter_outcomes_resilient(
    tasks: list[dict[str, Any]],
    jobs: int,
    policy: RetryPolicy,
    chaos: WorkerChaos | None,
) -> Iterator[dict[str, Any]]:
    """Isolated-attempt execution: worker threads drive child processes."""
    if jobs == 1 or len(tasks) == 1:
        for task in tasks:
            yield run_with_retries(run_attempt, task, policy, chaos)
        return
    with ThreadPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        pending = {
            pool.submit(run_with_retries, run_attempt, task, policy, chaos)
            for task in tasks
        }
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result()


def run_sweep(
    grid: SweepGrid,
    config: SystemConfig | None = None,
    max_requests: int = DEFAULT_SWEEP_REQUESTS,
    jobs: int = 1,
    cache: ResultCache | None = None,
    policy: RetryPolicy | None = None,
    chaos: WorkerChaos | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    telemetry: bool = False,
    status: SweepStatus | None = None,
    engine: str = "vector",
) -> SweepResult:
    """Execute every point of ``grid`` and return the merged result.

    Args:
        grid: the design space to sweep.
        config: base system configuration; each grid config variant's
            overrides are merged on top of it.
        max_requests: exactly-simulated request budget per point.
        jobs: worker processes; ``1`` runs inline (deterministic serial
            fallback), ``<= 0`` uses one worker per CPU.
        cache: optional on-disk result cache; hits skip simulation,
            misses are stored after simulation.
        policy: optional :class:`~repro.sweep.resilience.RetryPolicy`;
            when given (or when ``chaos`` is), every point runs in
            killable per-attempt child processes with timeouts and
            deterministic backoff between retries.
        chaos: optional executor fault injection
            (:class:`~repro.sweep.resilience.WorkerChaos`); test/CI only.
        checkpoint: optional path for periodic progress snapshots
            (written atomically every ``checkpoint_every`` completions
            and at the end).
        resume: replay completed points from ``checkpoint`` before
            executing the remainder.  The final document is
            byte-identical to an uninterrupted run (enforced by tests).
        checkpoint_every: completions between snapshots.
        telemetry: record cross-process run telemetry -- every worker
            task carries its point's trace context
            (:func:`~repro.obs.telemetry.task_telemetry`), workers ship
            span/event payloads back, and the merged
            :class:`~repro.obs.telemetry.RunTelemetry` lands on the
            result's ``telemetry`` attribute (run metadata only: the
            deterministic JSON document is untouched).
        status: optional :class:`~repro.obs.monitor.SweepStatus` the
            runner keeps current while executing, so an embedded
            :class:`~repro.obs.monitor.SweepMonitor` can serve live
            ``/status`` + ``/metrics`` from another thread.  Run
            metadata only -- the deterministic document is identical
            with or without it.
        engine: timing engine workers use (``"vector"`` by default,
            ``"exact"`` for the reference loop).  The engines are
            stat-for-stat equivalent (CI's ``engine-equivalence``
            gate), so the choice never enters cache keys or result
            documents -- a cache written by one engine replays under
            the other.

    A point that keeps failing is quarantined into the result's
    ``failures`` list instead of aborting the grid; infrastructure
    errors (invalid grid, unusable checkpoint) still raise.
    """
    config = config or SystemConfig()
    if engine not in ("exact", "vector"):
        raise ConfigError(
            f"unknown engine {engine!r}; expected 'exact' or 'vector'"
        )
    if max_requests <= 0:
        raise ConfigError(f"max_requests must be positive, got {max_requests}")
    if checkpoint_every <= 0:
        raise ConfigError(
            f"checkpoint_every must be positive, got {checkpoint_every}"
        )
    if resume and checkpoint is None:
        raise ConfigError("resume=True requires a checkpoint path")
    validate_grid(grid, config)
    jobs = resolve_jobs(jobs)
    # Wall-clock is run *metadata* (meta["wall_s"]), never part of the
    # deterministic result document results.py serializes.
    started = time.perf_counter()  # repro: ignore[DET001]

    config_dicts = {
        variant.label: system_to_dict(
            system_with_overrides(config, dict(variant.overrides))
        )
        for variant in grid.configs
    }
    run_tel: RunTelemetry | None = None
    run_id: str | None = None
    if telemetry or status is not None:
        run_id = SweepCheckpoint.digest_for(
            grid.as_dict(), config_dicts, max_requests, CACHE_VERSION
        )[:12]
    if telemetry:
        assert run_id is not None
        run_tel = RunTelemetry.start(run_id)
    log = get_logger("repro.sweep", **({"run_id": run_id} if run_id else {}))
    points = grid.points()
    results: list[dict[str, Any] | None] = [None] * len(points)
    registry = MetricsRegistry()

    ckpt: SweepCheckpoint | None = None
    completed: dict[int, dict[str, Any]] = {}
    resumed = 0
    if checkpoint is not None:
        ckpt = SweepCheckpoint(
            checkpoint,
            SweepCheckpoint.digest_for(
                grid.as_dict(), config_dicts, max_requests, CACHE_VERSION
            ),
        )
        if resume:
            completed, _ = ckpt.load()
            for index, result in completed.items():
                if 0 <= index < len(points):
                    results[index] = result
            resumed = sum(1 for entry in results if entry is not None)

    if status is not None:
        status.start_run(
            len(points), run_id=run_id, jobs=jobs, resumed=resumed
        )
    log.info("sweep started", points=len(points), jobs=jobs, resumed=resumed)

    tasks: list[dict[str, Any]] = []
    cached = 0
    for index, point in enumerate(points):
        if results[index] is not None:
            continue
        payload = {
            "point": point.as_dict(),
            "config": config_dicts[point.config_label],
            "max_requests": max_requests,
        }
        key = None
        if cache is not None:
            key = cache.key_for(payload)
            hit = cache.get(key)
            if hit is not None:
                results[index] = hit
                completed[index] = hit
                cached += 1
                if status is not None:
                    status.mark_cached(index)
                if run_tel is not None:
                    run_tel.record_event(EV_CACHE_HIT, point=index)
                log.debug("cache hit", point=index)
                continue
        task = {"index": index, "key": key, **payload}
        # Attached AFTER key_for(payload): the engine choice (like the
        # trace context below) must never influence cache identity --
        # both engines produce the identical result document.
        task["engine"] = engine
        if run_tel is not None:
            # Attached AFTER key_for(payload): the trace context must
            # never influence cache identity.
            task["telemetry"] = task_telemetry(
                run_tel.run_id, run_tel.context_for(index)
            )
        tasks.append(task)

    failures: list[dict[str, Any]] = []
    retries_total = 0
    simulated = 0
    outcomes_by_index: dict[int, dict[str, Any]] = {}
    tasks_by_index = {task["index"]: task for task in tasks}

    if tasks:
        if run_tel is not None:
            for task in tasks:
                run_tel.mark_submit(task["index"])
        if policy is not None or chaos is not None:
            stream = _iter_outcomes_resilient(
                tasks, jobs, policy or RetryPolicy(), chaos
            )
        else:
            stream = _iter_outcomes_fast(tasks, jobs)
        since_snapshot = 0
        with span_or_null(
            run_tel.timeline if run_tel is not None else None,
            "execute",
            tasks=len(tasks),
            jobs=jobs,
        ):
            for entry in stream:
                retries_total += entry["retries"]
                if run_tel is not None:
                    _record_retry_events(run_tel, entry)
                if entry["status"] == "ok":
                    outcome = entry["outcome"]
                    index = outcome["index"]
                    results[index] = outcome["result"]
                    completed[index] = outcome["result"]
                    outcomes_by_index[index] = outcome
                    simulated += 1
                    worker_id: int | None = None
                    if run_tel is not None and "telemetry" in outcome:
                        worker_id = run_tel.merge_worker(
                            outcome["telemetry"]
                        ).worker_id
                    if status is not None:
                        attempts_log = entry.get("attempts_log") or []
                        status.mark_ok(
                            index,
                            worker_id=worker_id,
                            metrics=outcome["metrics"],
                            duration_s=(
                                attempts_log[-1].get("duration_s")
                                if attempts_log
                                else None
                            ),
                        )
                        if entry["retries"]:
                            status.mark_retry(index, entry["retries"])
                    task = tasks_by_index[index]
                    if cache is not None:
                        cache.put(
                            task["key"],
                            {
                                "point": task["point"],
                                "config": task["config"],
                                "max_requests": task["max_requests"],
                            },
                            outcome["result"],
                        )
                else:
                    failure = entry["failure"]
                    failures.append(failure)
                    if status is not None:
                        status.mark_failed(
                            failure["index"], reason=failure.get("reason")
                        )
                        if entry["retries"]:
                            status.mark_retry(
                                failure["index"], entry["retries"]
                            )
                    log.warning(
                        "point quarantined",
                        point=failure["index"],
                        error=failure["error"],
                        reason=failure.get("reason"),
                        attempts=failure["attempts"],
                    )
                since_snapshot += 1
                if ckpt is not None and since_snapshot >= checkpoint_every:
                    ckpt.save(
                        completed,
                        sorted(failures, key=lambda f: f["index"]),
                    )
                    since_snapshot = 0

    failures.sort(key=lambda f: f["index"])
    if ckpt is not None:
        ckpt.save(completed, failures)
    for index in sorted(outcomes_by_index):
        registry.merge_snapshot(outcomes_by_index[index]["metrics"])

    registry.counter("sweep.cache.hits", help="points replayed from cache").inc(
        cached
    )
    registry.counter("sweep.cache.misses", help="points simulated fresh").inc(
        len(tasks)
    )
    if retries_total:
        registry.counter("sweep.retries", help="extra attempts across points").inc(
            retries_total
        )
    if failures:
        registry.counter("sweep.failures", help="points quarantined").inc(
            len(failures)
        )
    final: list[dict[str, Any]] = []
    failed_indices = {failure["index"] for failure in failures}
    for index, entry in enumerate(results):
        if entry is None:
            assert index in failed_indices, f"point {index} produced no result"
            continue
        final.append(entry)
    meta = {
        "jobs": jobs,
        "simulated": simulated,
        "cached": cached,
        "resumed": resumed,
        "failed": len(failures),
        "retries": retries_total,
        "wall_s": time.perf_counter() - started,  # repro: ignore[DET001]
        "cache": cache.stats.as_dict() if cache is not None else None,
    }
    if run_tel is not None:
        meta["run_id"] = run_tel.run_id
    if status is not None:
        status.finish()
    log.info(
        "sweep finished",
        simulated=simulated,
        cached=cached,
        failed=len(failures),
        retries=retries_total,
        wall_s=meta["wall_s"],
    )
    return SweepResult(
        grid=grid,
        max_requests=max_requests,
        results=final,
        registry=registry,
        meta=meta,
        failures=failures,
        telemetry=run_tel,
    )

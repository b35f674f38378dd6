"""Cross-process run telemetry: task members, payloads, clock-aligned merge."""

import json
from dataclasses import replace

import pytest

from repro.obs import ClockAnchor, RunTelemetry, TraceContext, WorkerTelemetry
from repro.obs.events import (
    EV_CACHE_HIT,
    EV_QUEUE_WAIT,
    EV_RETRY,
    EV_WORKER_START,
)
from repro.obs.telemetry import (
    POINTS_PID,
    RUNNER_PID,
    WORKER_PID_BASE,
    WORKER_TELEMETRY_KEYS,
    WORKER_TELEMETRY_SCHEMA,
    TelemetryError,
    TelemetryEvent,
    align_worker_payload,
    task_telemetry,
)


def make_run(run_id="run", wall=1000.0, perf=50.0) -> RunTelemetry:
    """A RunTelemetry with a pinned (deterministic) parent anchor."""
    run = RunTelemetry.start(run_id)
    run.anchor = ClockAnchor(wall_s=wall, perf_s=perf)
    return run


def make_worker(
    run_id="run",
    point_id=0,
    worker_id=4242,
    wall=1000.0,
    perf=7.0,
    span_at=8.0,
    span_len=0.5,
) -> WorkerTelemetry:
    """A WorkerTelemetry with a pinned anchor and one closed span."""
    context = RunTelemetry(run_id).context_for(point_id).child("attempt", 1)
    telemetry = WorkerTelemetry(
        context,
        run_id=run_id,
        point_id=point_id,
        worker_id=worker_id,
        anchor=ClockAnchor(wall_s=wall, perf_s=perf),
    )
    with telemetry.span("point", n=128):
        pass
    telemetry.spans = [
        replace(telemetry.spans[0], start_s=span_at, duration_s=span_len)
    ]
    return telemetry


class TestClockAnchor:
    def test_offset_between_synthetic_clocks(self):
        # Worker's perf clock started 43 s after the parent's: a worker
        # perf timestamp needs +43 s to land in the parent domain.
        parent = ClockAnchor(wall_s=1000.0, perf_s=50.0)
        worker = ClockAnchor(wall_s=1000.0, perf_s=7.0)
        assert worker.offset_to(parent) == pytest.approx(43.0)
        assert parent.offset_to(worker) == pytest.approx(-43.0)
        assert parent.offset_to(parent) == 0.0

    def test_round_trip(self):
        anchor = ClockAnchor(wall_s=123.5, perf_s=9.25)
        assert ClockAnchor.from_dict(anchor.as_dict()) == anchor

    def test_now_reads_both_clocks(self):
        anchor = ClockAnchor.now()
        assert anchor.wall_s > 0 and anchor.perf_s > 0


class TestTraceContext:
    def test_round_trip(self):
        # The task member survives JSON, and the worker derives the
        # attempt's context from the point's.
        point = TraceContext.root("abc123").child("point", 7)
        task = {
            "index": 7,
            "attempt": 3,
            "telemetry": task_telemetry("abc123", point),
        }
        telemetry = WorkerTelemetry.for_task(json.loads(json.dumps(task)))
        assert telemetry.context == point.child("attempt", 3)
        assert (telemetry.run_id, telemetry.point_id, telemetry.attempt) == (
            "abc123", 7, 3,
        )

    def test_attempt_defaults_to_one(self):
        point = TraceContext.root("r").child("point", 0)
        task = {"index": 0, "telemetry": task_telemetry("r", point)}
        assert WorkerTelemetry.for_task(task).attempt == 1

    def test_no_member_records_nothing(self):
        assert WorkerTelemetry.for_task({"index": 0}) is None


class TestTelemetryEvent:
    def test_round_trip(self):
        event = TelemetryEvent(
            kind=EV_RETRY, ts_s=1.5, dur_s=0.25, meta={"point": 3}
        )
        assert TelemetryEvent.from_dict(event.as_dict()) == event

    def test_unregistered_kind_rejected(self):
        with pytest.raises(TelemetryError, match="unregistered"):
            TelemetryEvent.from_dict({"kind": 999, "ts_s": 0.0})


class TestWorkerTelemetry:
    def test_start_marks_worker_start(self):
        point = TraceContext.root("run").child("point", 5)
        telemetry = WorkerTelemetry.for_task(
            {"index": 5, "telemetry": task_telemetry("run", point)}
        )
        assert [event.kind for event in telemetry.events] == [EV_WORKER_START]
        assert telemetry.events[0].meta == {"point": 5, "attempt": 1}

    def test_spans_hang_under_the_attempt_context(self):
        telemetry = make_worker()
        telemetry.spans = []
        with telemetry.span("point"):
            with telemetry.span("simulate"):
                pass
        by_name = {span.name: span.context for span in telemetry.spans}
        assert by_name["point"].parent_id == telemetry.context.span_id
        assert by_name["simulate"].parent_id == by_name["point"].span_id
        assert {ctx.trace_id for ctx in by_name.values()} == {
            telemetry.context.trace_id
        }

    def test_payload_round_trips_through_json(self):
        telemetry = make_worker(point_id=2)
        telemetry.record_event(EV_RETRY, dur_s=0.1, point=2, status="error")
        telemetry.registry.counter("c", help="x").inc(3)

        wire = json.loads(json.dumps(telemetry.as_dict()))
        rebuilt = WorkerTelemetry.from_dict(wire)

        assert rebuilt.context == telemetry.context
        assert (rebuilt.run_id, rebuilt.point_id, rebuilt.attempt) == (
            "run", 2, 1,
        )
        assert rebuilt.worker_id == telemetry.worker_id
        assert rebuilt.anchor == telemetry.anchor
        assert rebuilt.events == telemetry.events
        assert rebuilt.registry.as_dict() == telemetry.registry.as_dict()
        assert rebuilt.spans == telemetry.spans
        assert dict(rebuilt.spans[0].meta) == {"n": 128}
        # Serialization is idempotent: the rebuilt payload re-serializes
        # to the exact same wire form.
        assert rebuilt.as_dict() == wire

    def test_foreign_schema_rejected(self):
        payload = make_worker().as_dict()
        payload["schema"] = "something-else/v9"
        with pytest.raises(TelemetryError, match="schema"):
            WorkerTelemetry.from_dict(payload)
        with pytest.raises(TelemetryError):
            WorkerTelemetry.from_dict("not a mapping")

    def test_malformed_member_rejected(self):
        payload = make_worker().as_dict()
        payload["anchor"] = {"wall_s": "NaN-ish", "perf_s": {}}
        with pytest.raises(TelemetryError, match="malformed"):
            WorkerTelemetry.from_dict(payload)

    @pytest.mark.parametrize(
        "member, value",
        [
            ("context", {"trace_id": "t", "span_id": "s"}),
            ("spans", [{"name": "point"}]),
            ("attempt", None),
        ],
    )
    def test_malformed_trace_members_rejected(self, member, value):
        payload = make_worker().as_dict()
        payload[member] = value
        with pytest.raises(TelemetryError, match="malformed"):
            WorkerTelemetry.from_dict(payload)

    def test_malformed_event_kind_rejected(self):
        payload = make_worker().as_dict()
        payload["events"] = [{"kind": 999, "ts_s": 0.0}]
        with pytest.raises(TelemetryError, match="unregistered"):
            WorkerTelemetry.from_dict(payload)


class TestRunTelemetryMerge:
    def test_clock_alignment_shifts_worker_spans(self):
        run = make_run()  # parent perf clock at 50.0
        worker = make_worker(span_at=8.0)  # worker perf clock at 7.0
        merged = run.merge_worker(worker.as_dict())
        # Same wall instant, perf 7.0 vs 50.0: offset is +43 s, so the
        # span recorded at worker-perf 8.0 lands at parent-perf 51.0.
        assert merged.spans[0].start_s == pytest.approx(51.0)
        assert merged.spans[0].duration_s == pytest.approx(0.5)
        assert merged.anchor == run.anchor

    def test_alignment_shifts_events_and_logs_alike(self):
        worker = make_worker(span_at=8.0)
        worker.record_event(EV_RETRY, ts_s=8.25, point=0)
        worker.logger().warning("late")
        logged_at = worker.logs[0].perf_s
        aligned = align_worker_payload(
            worker.as_dict(), ClockAnchor(wall_s=1000.0, perf_s=50.0)
        )
        assert aligned.events[-1].ts_s == pytest.approx(51.25)
        assert aligned.logs[0].perf_s == pytest.approx(logged_at + 43.0)

    def test_trace_id_mismatch_rejected(self):
        run = make_run(run_id="expected")
        with pytest.raises(TelemetryError, match="expected"):
            run.merge_worker(make_worker(run_id="other").as_dict())
        assert not run.workers

    def test_span_ids_unique_across_workers(self):
        run = make_run()
        # Two workers, each with local span 0, for different points.
        run.merge_worker(make_worker(worker_id=111, point_id=0).as_dict())
        run.merge_worker(make_worker(worker_id=222, point_id=1).as_dict())
        ids = [
            span.context.span_id for worker in run.workers
            for span in worker.spans
        ]
        assert len(ids) == 2
        assert len(set(ids)) == len(ids)

    def test_queue_wait_derived_from_submit_mark(self):
        run = make_run()
        run._submits[0] = 50.2  # dispatched at parent-perf 50.2
        run.merge_worker(make_worker(span_at=8.0).as_dict())  # starts at 51.0
        waits = [e for e in run.events if e.kind == EV_QUEUE_WAIT]
        assert len(waits) == 1
        assert waits[0].dur_s == pytest.approx(0.8)
        assert waits[0].ts_s == pytest.approx(50.2)
        hist = run.registry.as_dict()["telemetry.queue_wait_s"]
        assert hist["count"] == 1

    def test_worker_metrics_fold_into_run_registry(self):
        run = make_run()
        worker = make_worker()
        worker.registry.counter("sim.points", help="points").inc(1)
        run.merge_worker(worker.as_dict())
        run.merge_worker(make_worker(worker_id=999, point_id=1).as_dict())
        assert run.registry.as_dict()["sim.points"]["value"] == 1

    def test_worker_ids_first_seen_order(self):
        run = make_run()
        for worker_id, point in ((222, 0), (111, 1), (222, 2)):
            run.merge_worker(
                make_worker(worker_id=worker_id, point_id=point).as_dict()
            )
        assert run.worker_ids() == [222, 111]
        assert "2 process(es)" in run.summary()


class TestChromeTrace:
    def test_empty_run_is_valid_and_minimal(self):
        run = make_run(run_id="empty")
        doc = run.chrome_trace()
        # Only the runner's process metadata; still a valid trace doc.
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
        assert doc["otherData"]["run_id"] == "empty"
        assert json.loads(json.dumps(doc)) == doc

    def test_tracks_and_alignment(self):
        run = make_run()
        with run.span("execute", tasks=2):
            pass
        run.record_event(EV_CACHE_HIT, point=3)
        run.merge_worker(make_worker(worker_id=111, point_id=0).as_dict())
        run.merge_worker(make_worker(worker_id=222, point_id=1).as_dict())
        doc = run.chrome_trace(metadata={"jobs": 2})

        events = doc["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {RUNNER_PID, POINTS_PID, WORKER_PID_BASE,
                        WORKER_PID_BASE + 1}
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {
            "sweep runner", "sweep points", "worker pid=111",
            "worker pid=222",
        }
        # Monotonic alignment: all timestamps relative to a t=0 origin.
        stamps = [e["ts"] for e in events if "ts" in e]
        assert stamps and min(stamps) == 0.0
        # The cache hit renders as an instant on the point's thread.
        instants = [e for e in events if e["ph"] == "i"]
        assert any(
            e["name"] == "CACHE_HIT" and e["tid"] == 3 for e in instants
        )
        assert doc["otherData"]["jobs"] == "2"

    def test_write_chrome_trace_path_and_handle(self, tmp_path):
        run = make_run()
        run.merge_worker(make_worker().as_dict())
        target = tmp_path / "trace.json"
        run.write_chrome_trace(str(target))
        doc = json.loads(target.read_text())
        assert doc["traceEvents"]
        with open(tmp_path / "trace2.json", "w") as handle:
            run.write_chrome_trace(handle)
        assert json.loads((tmp_path / "trace2.json").read_text()) == doc


class TestSchemaConstant:
    def test_payload_carries_schema(self):
        assert make_worker().as_dict()["schema"] == WORKER_TELEMETRY_SCHEMA

    def test_payload_keys_match_declaration(self):
        assert set(make_worker().as_dict()) == WORKER_TELEMETRY_KEYS

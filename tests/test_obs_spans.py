"""Hierarchical host-time spans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.simulate import simulate_baseline_column_phase
from repro.fft import FFT2D
from repro.framework import LayoutPlanner, fft2d_spec
from repro.memory3d import pact15_hmc_config
from repro.obs import SpanTimeline, TraceContext
from repro.obs.spans import HOST_ROOT, span_or_null

import numpy as np


class TestSpanTimeline:
    def test_nesting_depth_and_parent(self):
        timeline = SpanTimeline()
        with timeline.span("outer"):
            with timeline.span("inner"):
                pass
        outer, inner = timeline.spans
        assert outer.context.parent_id == timeline.context.span_id
        assert inner.context.parent_id == outer.context.span_id

    def test_durations_are_positive_and_nested(self):
        timeline = SpanTimeline()
        with timeline.span("outer"):
            with timeline.span("inner"):
                sum(range(1000))
        outer, inner = timeline.spans
        assert 0.0 < inner.duration_s <= outer.duration_s
        assert timeline.total_s() == pytest.approx(outer.duration_s)

    def test_meta_is_kept(self):
        timeline = SpanTimeline()
        with timeline.span("run", n=2048, layout="ddl"):
            pass
        assert dict(timeline.spans[0].meta) == {"n": 2048, "layout": "ddl"}

    def test_sequential_roots(self):
        timeline = SpanTimeline()
        with timeline.span("a"):
            pass
        with timeline.span("b"):
            pass
        assert [span.name for span in timeline.spans] == ["a", "b"]
        assert {span.context.parent_id for span in timeline.spans} == {
            timeline.context.span_id
        }

    def test_render_contains_names_and_meta(self):
        timeline = SpanTimeline()
        with timeline.span("phase", n=128):
            pass
        out = timeline.render()
        assert "phase" in out and "[n=128]" in out and "ms" in out

    def test_render_empty(self):
        assert SpanTimeline().render() == "(no spans recorded)"

    def test_chrome_events_relative_to_first_span(self):
        timeline = SpanTimeline()
        with timeline.span("outer", n=1):
            with timeline.span("inner"):
                pass
        events = timeline.to_chrome_events(pid=7, tid=3)
        assert [e["name"] for e in events] == ["outer", "inner"]
        assert events[0]["ts"] == 0.0
        assert events[1]["ts"] >= 0.0
        assert events[0]["pid"] == 7 and events[0]["tid"] == 3
        assert events[0]["args"] == {"n": "1"}

    def test_chrome_events_empty(self):
        assert SpanTimeline().to_chrome_events() == []


class TestSpanOrNull:
    def test_none_timeline_is_noop(self):
        with span_or_null(None, "anything", n=1):
            pass  # must not raise and record nothing anywhere

    def test_timeline_records(self):
        timeline = SpanTimeline()
        with span_or_null(timeline, "region"):
            pass
        assert [span.name for span in timeline.spans] == ["region"]


class TestInstrumentedEntryPoints:
    def test_core_simulate_records_phase_spans(self):
        spans = SpanTimeline()
        simulate_baseline_column_phase(
            SystemConfig(), 256, max_requests=8192, spans=spans
        )
        names = [span.name for span in spans.spans]
        assert names == ["column-phase/baseline", "generate-trace", "simulate"]
        assert spans.spans[1].context.parent_id == spans.spans[0].context.span_id

    def test_fft2d_records_row_and_column_phases(self):
        spans = SpanTimeline()
        fft = FFT2D(8, 8, spans=spans)
        data = np.arange(64, dtype=float).reshape(8, 8)
        np.testing.assert_allclose(fft.transform(data), np.fft.fft2(data))
        names = [span.name for span in spans.spans]
        assert names == ["fft2d", "row-phase", "column-phase"]

    def test_planner_records_candidate_scores(self):
        spans = SpanTimeline()
        planner = LayoutPlanner(
            pact15_hmc_config(), sample_requests=4096, spans=spans
        )
        planner.plan(fft2d_spec(256))
        names = [span.name for span in spans.spans]
        assert names[0].startswith("plan/fft2d")
        assert any(name.startswith("matrix/") for name in names)
        assert any(name.startswith("score/") for name in names)

    def test_sweep_worker_trace_reaches_the_engine_phases(self):
        from repro.sweep import SweepGrid, run_sweep

        swept = run_sweep(
            SweepGrid(sizes=(256,), layouts=("ddl",)),
            max_requests=4096,
            telemetry=True,
        )
        [worker] = swept.telemetry.workers
        payload = worker.as_dict()
        by_id = {span["span_id"]: span for span in payload["spans"]}
        assert [span["name"] for span in payload["spans"]] == [
            "point", "simulate", "column-phase/ddl", "generate-trace",
            "simulate",
        ]
        parent_names = {
            span["name"]: by_id[span["parent_id"]]["name"]
            for span in payload["spans"][1:4]
        }
        assert parent_names == {
            "simulate": "point",
            "column-phase/ddl": "simulate",
            "generate-trace": "column-phase/ddl",
        }
        attempt = swept.telemetry.context_for(0).child("attempt", 1)
        assert payload["context"]["span_id"] == attempt.span_id
        for span in payload["spans"]:
            assert span["parent_id"] in by_id or (
                span["parent_id"] == attempt.span_id
            )

    def test_uninstrumented_paths_record_nothing(self):
        fft = FFT2D(8, 8)
        fft.transform(np.zeros((8, 8)))
        assert fft.spans is None


# ----------------------------------------------------------------- properties
#: A nesting program: a list of spans, each ``(name, children)``.
programs = st.recursive(
    st.just([]),
    lambda children: st.lists(
        st.tuples(st.sampled_from(["point", "simulate", "generate-trace"]),
                  children),
        max_size=3,
    ),
    max_leaves=12,
)


def run_program(timeline, program, depth=0, parent=None, out=None):
    """Open the program's spans on ``timeline``; return the expected
    ``(name, depth, parent span id, span id)`` of each in start order."""
    out = [] if out is None else out
    parent = timeline.context.span_id if parent is None else parent
    for name, children in program:
        with timeline.span(name) as context:
            out.append((name, depth, parent, context.span_id))
            run_program(timeline, children, depth + 1, context.span_id, out)
    return out


@pytest.mark.property
class TestSpanTreeProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(program=programs, root=st.one_of(st.none(), st.text(max_size=8)))
    def test_nesting_programs_build_one_consistent_tree(self, program, root):
        context = None if root is None else TraceContext.root(root)
        timeline = SpanTimeline(context)
        expected = run_program(timeline, program)
        records = timeline.spans
        assert timeline.context == (HOST_ROOT if root is None else context)

        # Records come out in start order.
        assert [(r.name, r.context.span_id) for r in records] == [
            (name, span_id) for name, _, _, span_id in expected
        ]
        starts = [r.start_s for r in records]
        assert starts == sorted(starts)

        # Every parent is the root context or an earlier record.
        seen = {timeline.context.span_id}
        for record, (_, _, parent, _) in zip(records, expected, strict=True):
            assert record.context.parent_id == parent
            assert record.context.parent_id in seen
            assert record.context.trace_id == timeline.context.trace_id
            seen.add(record.context.span_id)

        # render() indents each record to its nesting depth.
        if records:
            lines = timeline.render().splitlines()
            assert len(lines) == len(records)
            for line, (name, depth, _, _) in zip(lines, expected, strict=True):
                assert line.startswith("  " * depth + name)
                assert not line[2 * depth:].startswith(" ")

        # The same program run again gives identical ids.
        again = SpanTimeline(context)
        run_program(again, program)
        assert [r.context for r in again.spans] == [r.context for r in records]

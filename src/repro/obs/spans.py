"""Hierarchical wall-clock spans for the modelling pipeline.

Where :mod:`repro.obs.events` traces *simulated* time inside the memory
device, spans trace *host* time spent in the modelling code itself --
trace generation, engine runs, planner scoring, FFT phases, sweep
workers -- as a nested timeline::

    timeline = SpanTimeline()
    with timeline.span("fft2d", n=2048):
        with timeline.span("row-phase"):
            ...
        with timeline.span("column-phase"):
            ...
    print(timeline.render())

:class:`SpanTimeline` is the one nesting span recorder.  It writes the
one span type, :class:`~repro.obs.tracectx.SpanRecord`, under the
:class:`~repro.obs.tracectx.TraceContext` it is built on -- a worker
attempt's, a sweep run's, or :data:`HOST_ROOT` for a bare host
timeline -- so every span it records is a node of the one trace model.

The instrumented entry points (:mod:`repro.core.simulate`,
:class:`repro.fft.fft2d.FFT2D`, :class:`repro.framework.planner.LayoutPlanner`)
accept an optional timeline; passing None keeps them span-free with no
overhead beyond a single ``is None`` test (:func:`span_or_null`).
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from typing import Any

from repro.obs.tracectx import SpanRecord, TraceContext, chrome_slice, json_safe

#: The context a timeline built without one records under.
HOST_ROOT = TraceContext.root("host")


class SpanTimeline:
    """Nested spans recorded as :class:`SpanRecord` s under one context.

    The ``i``-th span opened gets the id of ``context.child("wspan", i)``
    and, as parent, the innermost open span or the context itself.
    :attr:`spans` holds the records in start order; a span still open
    has ``duration_s == 0``.  Depth and roots are derived from the
    parent ids.
    """

    def __init__(self, context: TraceContext | None = None) -> None:
        #: The context root spans hang from.
        self.context = HOST_ROOT if context is None else context
        self.spans: list[SpanRecord] = []
        self._open: list[str] = []
        self._ids = itertools.count()

    # ------------------------------------------------------------- recording
    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[TraceContext]:
        """Time one region as a span nested under any open one."""
        context = replace(
            self.context.child("wspan", next(self._ids)),
            parent_id=self._open[-1] if self._open else self.context.span_id,
        )
        pairs = tuple(sorted((k, json_safe(v)) for k, v in meta.items()))
        index = len(self.spans)
        start_s = time.perf_counter()
        self.spans.append(SpanRecord(context, name, start_s, 0.0, pairs))
        self._open.append(context.span_id)
        try:
            yield context
        finally:
            self._open.pop()
            self.spans[index] = SpanRecord(
                context, name, start_s, time.perf_counter() - start_s, pairs
            )

    # ----------------------------------------------------------------- views
    def __len__(self) -> int:
        return len(self.spans)

    def _depths(self) -> list[int]:
        """Nesting depth of each record (0 for roots), from parent ids."""
        depth_of: dict[str | None, int] = {}
        for record in self.spans:
            depth_of[record.context.span_id] = (
                depth_of.get(record.context.parent_id, -1) + 1
            )
        return [depth_of[record.context.span_id] for record in self.spans]

    def total_s(self) -> float:
        """Summed duration of the root spans."""
        return sum(
            record.duration_s
            for record, depth in zip(self.spans, self._depths(), strict=True)
            if depth == 0
        )

    def render(self) -> str:
        """Indented text timeline with per-span durations and shares."""
        if not self.spans:
            return "(no spans recorded)"
        total = self.total_s() or 1.0
        lines = []
        for record, depth in zip(self.spans, self._depths(), strict=True):
            meta = ""
            if record.meta:
                meta = " [" + ", ".join(f"{k}={v}" for k, v in record.meta) + "]"
            lines.append(
                f"{'  ' * depth}{record.name:<{32 - 2 * depth}} "
                f"{record.duration_s * 1e3:9.2f} ms "
                f"({100 * record.duration_s / total:5.1f}%)"
                f"{meta}"
            )
        return "\n".join(lines)

    def to_chrome_events(
        self, pid: int = 0, tid: int = 0, clock_offset_s: float | None = None
    ) -> list[dict]:
        """Chrome ``trace_event`` slices for the timeline (``ph: "X"``).

        Timestamps are microseconds relative to the first span (or to
        ``clock_offset_s`` when stitching several timelines together).
        """
        if not self.spans:
            return []
        origin = (
            clock_offset_s
            if clock_offset_s is not None
            else min(record.start_s for record in self.spans)
        )
        return [
            chrome_slice(
                record,
                pid=pid,
                tid=tid,
                origin_s=origin,
                args={k: str(v) for k, v in record.meta} or None,
            )
            for record in self.spans
        ]


def span_or_null(timeline: SpanTimeline | None, name: str, **meta: Any):
    """``timeline.span(name)`` when a timeline is given, else a no-op.

    The uninstrumented call costs one ``is None`` test plus a shared
    :func:`contextlib.nullcontext`, so hot modelling paths can be
    instrumented unconditionally.
    """
    if timeline is None:
        return nullcontext()
    return timeline.span(name, **meta)

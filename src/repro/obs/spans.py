"""Hierarchical wall-clock spans for the modelling pipeline.

Where :mod:`repro.obs.events` traces *simulated* time inside the memory
device, spans trace *host* time spent in the modelling code itself --
trace generation, engine runs, planner scoring, FFT phases -- as a
nested timeline::

    timeline = SpanTimeline()
    with timeline.span("fft2d", n=2048):
        with timeline.span("row-phase"):
            ...
        with timeline.span("column-phase"):
            ...
    print(timeline.render())

The instrumented entry points (:mod:`repro.core.simulate`,
:class:`repro.fft.fft2d.FFT2D`, :class:`repro.framework.planner.LayoutPlanner`)
accept an optional timeline; passing None keeps them span-free with no
overhead beyond a single ``is None`` test (:func:`span_or_null`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.obs.tracectx import SpanRecord


class SpanError(ReproError):
    """Invalid span nesting or use."""


@dataclass
class Span:
    """One completed (or still-open) timeline region.

    Attributes:
        name: human-readable region label.
        start_s: ``perf_counter`` timestamp at entry.
        end_s: ``perf_counter`` timestamp at exit (None while open).
        depth: nesting depth (0 for roots).
        parent: index of the enclosing span in the timeline, or -1.
        meta: free-form key/value annotations (problem size, layout, ...).
    """

    name: str
    start_s: float
    end_s: float | None = None
    depth: int = 0
    parent: int = -1
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s


class SpanTimeline:
    """An ordered collection of nested spans with rendering helpers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    # ------------------------------------------------------------- recording
    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        """Context manager timing one region; nests under any open span."""
        index = len(self.spans)
        record = Span(
            name=name,
            start_s=time.perf_counter(),
            depth=len(self._stack),
            parent=self._stack[-1] if self._stack else -1,
            meta=meta,
        )
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end_s = time.perf_counter()
            self._stack.pop()

    # ----------------------------------------------------------------- views
    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> list[Span]:
        """Top-level spans (depth 0), in start order."""
        return [span for span in self.spans if span.depth == 0]

    def children_of(self, span: Span) -> list[Span]:
        """Direct children of a span, in start order."""
        index = self.spans.index(span)
        return [child for child in self.spans if child.parent == index]

    def total_s(self) -> float:
        """Summed duration of the root spans."""
        return sum(span.duration_s for span in self.roots())

    def render(self) -> str:
        """Indented text timeline with per-span durations and shares."""
        if not self.spans:
            return "(no spans recorded)"
        total = self.total_s() or 1.0
        lines = []
        for span in self.spans:
            meta = ""
            if span.meta:
                meta = " [" + ", ".join(
                    f"{k}={v}" for k, v in span.meta.items()
                ) + "]"
            lines.append(
                f"{'  ' * span.depth}{span.name:<{32 - 2 * span.depth}} "
                f"{span.duration_s * 1e3:9.2f} ms "
                f"({100 * span.duration_s / total:5.1f}%)"
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
            else min(span.start_s for span in self.spans)
        )
        return [
            chrome_slice(
                span,
                pid=pid,
                tid=tid,
                origin_s=origin,
                args={k: str(v) for k, v in span.meta.items()} or None,
            )
            for span in self.spans
        ]


def chrome_slice(
    span: Span | SpanRecord,
    pid: int,
    tid: int = 0,
    origin_s: float = 0.0,
    args: dict[str, Any] | None = None,
) -> dict:
    """One span as a Chrome ``trace_event`` complete slice (``ph: "X"``).

    The single slice builder behind every span exporter (host-phase
    timelines, merged sweep runs, serve request trees).  Timestamps are
    microseconds relative to ``origin_s``; ``args`` is attached only
    when non-empty.
    """
    event: dict[str, Any] = {
        "name": span.name,
        "cat": "span",
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": (span.start_s - origin_s) * 1e6,
        "dur": span.duration_s * 1e6,
    }
    if args:
        event["args"] = args
    return event


def chrome_track_name(pid: int, name: str, tid: int | None = None) -> dict:
    """A Chrome metadata event naming a process (or, with ``tid``, one
    of its threads) in the viewer's track list."""
    return {
        "name": "process_name" if tid is None else "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": 0 if tid is None else tid,
        "args": {"name": name},
    }


def span_or_null(timeline: SpanTimeline | None, name: str, **meta: Any):
    """``timeline.span(name)`` when a timeline is given, else a no-op.

    The uninstrumented call costs one ``is None`` test plus a shared
    :func:`contextlib.nullcontext`, so hot modelling paths can be
    instrumented unconditionally.
    """
    if timeline is None:
        return nullcontext()
    return timeline.span(name, **meta)

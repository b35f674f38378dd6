"""In-memory span recording around the program's public functions.

The benchmark never edits ``src/``: it replaces module and class
attributes with thin wrappers, so every call into a layer opens a span
(name, start, end, parent, point-or-request id, attributes) or bumps a
call counter.  Spans stay in memory; :meth:`Recorder.dump` writes them
out once, at the end of the run.

Forked children (the killable per-attempt workers of ``run_attempt``)
inherit the wrappers and the calling thread's span stack, so their
spans keep their parent.  A child writes its own spans to
``child-<pid>.json`` as soon as its ``point_result`` span closes --
before the worker reports back -- because it exits without running
``atexit`` handlers.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from collections.abc import Callable
from typing import Any

#: Fields of one span record, in storage order.
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "pid", "tid", "rid", "attrs")


class Recorder:
    """Collects spans and per-id call counts for one process."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.owner_pid = os.getpid()
        self.spans: list[list[Any]] = []
        self.counts: dict[tuple[Any, str], int] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child starts with a copy of the parent's finished spans;
        # it reports only its own.
        self.spans = []
        self.counts = {}

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------ wrapping
    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        rid_of: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
        flush: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span a call.

        ``rid_of(*args, **kwargs)`` names the point or request the span
        belongs to (children inherit their parent's); ``after(attrs,
        result, *args, **kwargs)`` adds attributes once the call returns.
        ``flush`` makes a forked child write its spans when this span
        closes.
        """
        fn = getattr(owner, attr)
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            pid = os.getpid()
            rid = rid_of(*args, **kwargs) if rid_of is not None else None
            if rid is None and parent is not None:
                rid = parent[7]
            record = [
                f"{pid}:{next(recorder._ids)}",
                parent[0] if parent is not None else None,
                name,
                time.perf_counter(),
                None,
                pid,
                threading.get_ident(),
                rid,
                {},
            ]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(record[8], result, *args, **kwargs)
                return result
            finally:
                record[4] = time.perf_counter()
                stack.pop()
                recorder.spans.append(record)
                if flush and pid != recorder.owner_pid:
                    recorder.dump(f"child-{pid}.json")

        self._patch(owner, attr, fn, wrapper)

    def counter(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls.

        Used for per-block and per-batch calls, where a span each would
        cost more than the call itself.  Counts are kept per id of the
        innermost open span.
        """
        fn = getattr(owner, attr)
        local = self._local
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            key = (stack[-1][7] if stack else None, name)
            counts = recorder.counts
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -------------------------------------------------------------- output
    def dump(self, filename: str) -> Path:
        """Write this process's spans and counts as one JSON file."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / filename
        payload = {
            "pid": os.getpid(),
            "spans": [dict(zip(SPAN_FIELDS, record, strict=True)) for record in self.spans],
            "counts": [
                {"rid": rid, "name": name, "count": count}
                for (rid, name), count in self.counts.items()
            ],
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        return path


def load_dumps(out_dir: str | Path) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """All spans and counts written under ``out_dir`` (any process)."""
    spans: list[dict[str, Any]] = []
    counts: list[dict[str, Any]] = []
    for path in sorted(Path(out_dir).glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(payload["spans"])
        counts.extend(payload["counts"])
    return spans, counts


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover (seconds).

    The covered part is the union of the children's intervals, clipped
    to the parent, so overlapping children are not subtracted twice.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result: dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span["id"]] = max(0.0, end - start - covered)
    return result


def write_chrome_trace(
    spans: list[dict[str, Any]], path: str | Path, metadata: dict[str, Any]
) -> None:
    """Write spans as Chrome/Perfetto ``traceEvents`` (complete events)."""
    origin = min((span["start"] for span in spans), default=0.0)
    events = [
        {
            "name": span["name"],
            "ph": "X",
            "ts": round((span["start"] - origin) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "pid": span["pid"],
            "tid": span["tid"],
            "args": {
                "id": span["id"],
                "parent": span["parent"],
                "rid": span["rid"],
                **span["attrs"],
            },
        }
        for span in spans
    ]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(
        json.dumps({"traceEvents": events, "otherData": metadata}), encoding="utf-8"
    )

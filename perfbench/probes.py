"""Which public functions of the program the traced run wraps, and how.

Every wrapper is installed on the attribute its caller looks up at call
time (the importing module's global, or the class), so the program's
own code runs unchanged.  Span names are the layer names the per-layer
metrics use (``repro.trace`` -> ``trace.*`` and so on).
"""

from __future__ import annotations

import itertools
from typing import Any

from tracing import Recorder


def point_label(point: Any) -> str:
    """Stable id of one sweep point (config/N/layout/height/whole_blocks)."""
    return (
        f"{point.config_label}/{point.n}/{point.layout}/"
        f"{point.height}/{int(point.whole_blocks)}"
    )


def _generated(family: str) -> Any:
    def after(attrs: dict, trace: Any, *args: Any, **kwargs: Any) -> None:
        attrs["family"] = family
        attrs["requests"] = len(trace)

    return after


def _priced(attrs: dict, stats: Any, memory: Any, trace: Any, *args: Any, **kwargs: Any) -> None:
    sample = kwargs.get("sample", args[1] if len(args) > 1 else None)
    total = len(trace)
    attrs["requests"] = min(total, sample) if sample and 0 < sample < total else total
    attrs["engine"] = memory.last_engine


def _modelled(attrs: dict, run: Any, config: Any, n: int, *args: Any, **kwargs: Any) -> None:
    layout = kwargs.get("layout", args[0] if args else "row-major")
    attrs["family"] = "flat" if layout == "row-major" else "ddl"
    attrs["n"] = n


def _attempt_key(task: dict, *args: Any, **kwargs: Any) -> str:
    from repro.sweep.cache import ResultCache

    payload = {key: task[key] for key in ("point", "config", "max_requests")}
    return ResultCache.key_for(payload)[:12]


def _attempted(attrs: dict, status: dict, task: dict, *args: Any, **kwargs: Any) -> None:
    attrs["status"] = status["status"]
    attrs["n"] = task["point"]["n"]


def install(recorder: Recorder, serve: bool = False) -> None:
    """Wrap the program's layer entry points with spans and counters."""
    import repro.core.simulate as core_simulate
    import repro.layouts.block_ddl as block_ddl
    import repro.memory3d.memory as memory
    import repro.sweep.cache as cache
    import repro.sweep.runner as runner
    import repro.trace.compile as compile_mod

    recorder.span(
        core_simulate, "block_column_read_trace", "trace.generate",
        after=_generated("ddl"),
    )
    recorder.span(
        core_simulate, "column_walk_trace", "trace.generate",
        after=_generated("flat"),
    )
    recorder.span(
        compile_mod, "compile_trace", "trace.compile",
        after=lambda attrs, compiled, *a, **k: attrs.update(runs=len(compiled.runs)),
    )
    recorder.counter(compile_mod, "expand_runs", "memory3d.expand_runs")
    recorder.counter(
        block_ddl.BlockDDLLayout, "block_base_address", "layouts.block_base_address"
    )
    recorder.span(memory.Memory3D, "simulate", "memory3d.simulate", after=_priced)
    recorder.span(
        runner, "simulate_column_phase", "core.simulate_column_phase",
        after=_modelled,
    )
    recorder.span(
        runner, "point_result", "sweep.point_result",
        rid_of=lambda point, *a, **k: point_label(point),
        flush=True,
    )
    recorder.span(
        cache.ResultCache, "get", "cache.get",
        rid_of=lambda self, key, *a, **k: key[:12],
        after=lambda attrs, hit, *a, **k: attrs.update(hit=hit is not None),
    )
    recorder.span(
        cache.ResultCache, "put", "cache.put",
        rid_of=lambda self, key, *a, **k: key[:12],
    )
    if not serve:
        return
    import repro.serve.service as service

    recorder.span(
        service, "run_attempt", "sweep.run_attempt",
        rid_of=_attempt_key, after=_attempted,
    )
    requests = itertools.count(1)
    recorder.span(
        service.PlanService, "handle", "serve.handle",
        rid_of=lambda *a, **k: f"request-{next(requests)}",
        after=lambda attrs, answer, *a, **k: attrs.update(code=answer[0]),
    )

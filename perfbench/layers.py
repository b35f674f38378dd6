"""Per-layer metrics from the traced run's spans and counters.

Every metric is a ratio, a count or a time measured where the work
happens.  A layer that does no work on a workload reports 0 (the
prediction for a bypass workload).  ``LAYER_TARGETS`` names the
end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any

from tracing import self_times

#: per-layer metric -> (unit, end-to-end metric it should move, workload);
#: every target but ``cpu_per_point`` is observed, not bounded.
LAYER_TARGETS: dict[str, tuple[str, str, str]] = {
    "trace.generate_ms.ddl": ("ms", "cpu_per_point", "sweep-paper"),
    "trace.generate_ms.flat": ("ms", "cpu_per_point", "sweep-paper"),
    "trace.used_ratio": ("ratio", "cpu_per_point", "sweep-paper"),
    "trace.compile_ms": ("ms", "cpu_per_point", "sweep-paper"),
    "layouts.block_base_calls": ("count", "cpu_per_point", "sweep-paper"),
    "memory3d.price_ms.ddl": ("ms", "cpu_per_point", "sweep-paper"),
    "memory3d.price_ms.flat": ("ms", "cpu_per_point", "sweep-paper"),
    "memory3d.ns_per_request.ddl": ("ns", "cpu.base", "sweep-paper"),
    "memory3d.ns_per_request.flat": ("ns", "cpu.base", "sweep-paper"),
    "memory3d.batches_per_point": ("count", "cpu_per_point", "sweep-paper"),
    "memory3d.vector_share": ("ratio", "cpu_per_point", "sweep-paper"),
    "core.model_ms": ("ms", "cpu_per_point", "sweep-paper"),
    "sweep.point_ms.p50": ("ms", "cpu_per_point", "sweep-paper"),
    "sweep.point_ms.p99": ("ms", "cpu.peak", "sweep-paper"),
    # The cold serving path: measured on serve-warm's cache fill.
    "sweep.dispatch_ms.p50": ("ms", "cpu_per_point", "serve-warm"),
    "sweep.attempts_per_point": ("count", "cpu_per_point", "serve-warm"),
    "sweep.attempts_malformed": ("count", "points_per_s", "serve-warm"),
    "cache.put_ms.p50": ("ms", "cpu_per_point", "serve-warm"),
    "serve.pool_busy_ratio": ("ratio", "points_per_s", "serve-warm"),
    "serve.coalesced_ratio": ("ratio", "cpu_per_point", "serve-warm"),
    # The warm serving path: serve-warm's base and peak phases.
    "cache.get_ms.p50": ("ms", "cpu.base", "serve-warm"),
    "cache.hit_ratio": ("ratio", "cpu.base", "serve-warm"),
    "serve.handle_ms.p50": ("ms", "cpu.base", "serve-warm"),
    "serve.transport_ms.p50": ("ms", "cpu.base", "serve-warm"),
    # Shedding and degraded answers cut latency-from-due-time (observed).
    "serve.shed_ratio": ("ratio", "tail_ms.peak", "serve-warm"),
    "serve.degraded_ratio": ("ratio", "tail_ms.peak", "serve-warm"),
    "serve.breaker_trips": ("count", "points_per_s", "serve-warm"),
    # The benchmark's own: run validity and the probes' cost; they
    # should move nothing of the program's.
    "loadgen.lag_p99_ms": ("ms", "", ""),
    "bench.trace_overhead_ratio": ("ratio", "", ""),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[dict[str, Any]], counts: list[dict[str, Any]], since: float = -math.inf
) -> tuple[dict[str, float], dict[str, float]]:
    """The span-derived per-layer metrics over spans starting at ``since``.

    Also returns the per-point accounting check: the self times of
    generate + compile + price + model summed over all points
    (``layer_sum_ms``) against the points' own total (``point_sum_ms``).
    """
    spans = [span for span in spans if span["start"] >= since]
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def family(span: dict[str, Any]) -> str | None:
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != "core.simulate_column_phase":
            parent = by_id.get(parent["parent"])
        return parent["attrs"].get("family") if parent is not None else None

    models = [s for s in by_name["core.simulate_column_phase"] if "family" in s["attrs"]]
    points = {fam: sum(1 for s in models if s["attrs"]["family"] == fam) for fam in ("ddl", "flat")}
    n_points = points["ddl"] + points["flat"]

    def self_ms(name: str, fam: str | None = None) -> float:
        return 1e3 * sum(
            own[s["id"]]
            for s in by_name[name]
            if fam is None or s["attrs"].get("family", family(s)) == fam
        )

    out: dict[str, float] = {}
    generated = 0
    for fam in ("ddl", "flat"):
        out[f"trace.generate_ms.{fam}"] = _ratio(self_ms("trace.generate", fam), points[fam])
        generated += sum(
            s["attrs"].get("requests", 0)
            for s in by_name["trace.generate"]
            if s["attrs"].get("family") == fam
        )
    prices = [s for s in by_name["memory3d.simulate"] if "requests" in s["attrs"]]
    simulated = sum(s["attrs"]["requests"] for s in prices)
    out["trace.used_ratio"] = _ratio(simulated, generated)
    out["trace.compile_ms"] = _ratio(self_ms("trace.compile"), n_points)
    totals: dict[str, int] = defaultdict(int)
    for entry in counts:
        totals[entry["name"]] += entry["count"]
    out["layouts.block_base_calls"] = _ratio(totals["layouts.block_base_address"], points["ddl"])
    for fam in ("ddl", "flat"):
        priced = [s for s in prices if family(s) == fam]
        out[f"memory3d.price_ms.{fam}"] = _ratio(
            1e3 * sum(own[s["id"]] for s in priced), points[fam]
        )
        out[f"memory3d.ns_per_request.{fam}"] = _ratio(
            1e9 * sum(s["end"] - s["start"] for s in priced),
            sum(s["attrs"]["requests"] for s in priced),
        )
    out["memory3d.batches_per_point"] = _ratio(totals["memory3d.expand_runs"], len(prices))
    out["memory3d.vector_share"] = _ratio(
        sum(1 for s in prices if s["attrs"].get("engine") == "vector"), len(prices)
    )
    out["core.model_ms"] = _ratio(self_ms("core.simulate_column_phase"), n_points)
    point_ms = [1e3 * (s["end"] - s["start"]) for s in by_name["sweep.point_result"]]
    out["sweep.point_ms.p50"] = percentile(point_ms, 0.5)
    out["sweep.point_ms.p99"] = percentile(point_ms, 0.99)

    attempts = by_name["sweep.run_attempt"]
    in_child = {s["parent"]: s for s in by_name["sweep.point_result"]}
    dispatch = [
        1e3 * ((a["end"] - a["start"]) - (in_child[a["id"]]["end"] - in_child[a["id"]]["start"]))
        for a in attempts
        if a["id"] in in_child
    ]
    out["sweep.dispatch_ms.p50"] = percentile(dispatch, 0.5)
    out["sweep.attempts_per_point"] = _ratio(len(attempts), len({a["rid"] for a in attempts}))
    out["sweep.attempts_malformed"] = float(
        sum(1 for a in attempts if a["attrs"].get("n", 1) & (a["attrs"].get("n", 1) - 1))
    )
    gets = by_name["cache.get"]
    out["cache.get_ms.p50"] = percentile([1e3 * (s["end"] - s["start"]) for s in gets], 0.5)
    out["cache.put_ms.p50"] = percentile(
        [1e3 * (s["end"] - s["start"]) for s in by_name["cache.put"]], 0.5
    )
    out["cache.hit_ratio"] = _ratio(sum(1 for s in gets if s["attrs"].get("hit")), len(gets))
    out["serve.handle_ms.p50"] = percentile(
        [1e3 * (s["end"] - s["start"]) for s in by_name["serve.handle"]], 0.5
    )
    check = {
        "layer_sum_ms": sum(
            self_ms(name)
            for name in (
                "trace.generate", "trace.compile", "memory3d.simulate",
                "core.simulate_column_phase",
            )
        ),
        "point_sum_ms": sum(point_ms),
    }
    return out, check

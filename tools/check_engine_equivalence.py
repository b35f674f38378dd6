#!/usr/bin/env python3
"""Exact-vs-vector timing engine equivalence gate.

Builds the full corpus -- every layout family x device config x trace
generator, under both scheduling disciplines, healthy and under every
builtin fault plan, as raw request arrays and as compiled run
descriptors -- prices each case on both engines and demands:

* **stat-for-stat equality**: the two :class:`AccessStats` compare
  ``==`` (not approximately; both engines share the integer-picosecond
  timebase, so agreement is exact or it is a bug);
* **fault-accounting equality**: the compiled fault summaries match
  field for field;
* **event-count equality**: the vector engine's aggregate
  activation/row-hit counters equal the number of ACTIVATE / ROW_HIT
  events the exact engine emits to a recorder.

A structured JSON report (one record per case) is always written; the
exit status is nonzero iff any case disagrees.  CI runs this as the
``engine-equivalence`` job and uploads the report as an artifact on
failure.

Usage::

    python tools/check_engine_equivalence.py [--report engine-equivalence-report.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import (  # noqa: E402
    BlockDDLLayout,
    ColumnMajorLayout,
    EventTrace,
    Memory3D,
    RowMajorLayout,
    TiledLayout,
    TraceArray,
    block_column_read_trace,
    block_write_trace,
    column_walk_trace,
    compile_trace,
    row_walk_trace,
)
from repro.faults.plan import builtin_fault_plans  # noqa: E402
from repro.memory3d.config import (  # noqa: E402
    hmc_gen2_config,
    pact15_hmc_config,
    wideio_like_config,
)
from repro.memory3d.vector import BLOCK  # noqa: E402
from repro.trace.generators import (  # noqa: E402
    linear_trace,
    strided_trace,
    tiled_walk_trace,
)

#: Matrix edge for the corpus layouts: big enough to span banks, rows
#: and block seams on every config, small enough that the exact engine
#: prices the whole corpus in seconds.
N = 64

#: A stride that keeps every request of a run on one bank on every
#: corpus config (the largest full vault x bank interleave among them).
BANK_STRIDE = 1 << 17


def build_traces() -> dict[str, TraceArray]:
    """The trace corpus: one entry per generator x layout family."""
    rm = RowMajorLayout(N, N)
    cm = ColumnMajorLayout(N, N)
    tiled = TiledLayout(N, N, 16, 16)
    ddl = BlockDDLLayout(N, N, width=16, height=16)
    sweep_ddl = BlockDDLLayout(N, 4 * N, width=8, height=4)
    rng = np.random.default_rng(20150214)
    random_addr = rng.integers(0, (N * N), size=N * N, dtype=np.int64) * 8
    arrivals = np.cumsum(rng.uniform(0.0, 3.0, size=N * N))
    traces = {
        "linear": linear_trace(0, N * N),
        "strided-row": strided_trace(0, N * N, N * 8),
        "strided-bank": strided_trace(0, 2048, 1 << 15),
        "row-walk-rm": row_walk_trace(rm),
        "col-walk-rm": column_walk_trace(rm),
        "row-walk-cm": row_walk_trace(cm),
        "col-walk-cm": column_walk_trace(cm),
        "tiled-walk": tiled_walk_trace(tiled, 16, 16),
        "col-walk-tiled": column_walk_trace(tiled),
        "ddl-block-write": block_write_trace(ddl),
        "ddl-block-read": block_column_read_trace(ddl, n_streams=4),
        "ddl-narrow-read": block_column_read_trace(
            ddl, n_streams=4, whole_blocks=False
        ),
        "random": TraceArray(random_addr),
        "linear-arrivals": TraceArray(
            linear_trace(0, N * N).addresses, arrival_ns=arrivals
        ),
        # The sweep's narrow DDL shape on a 32-element row: h=4, w=8,
        # 16 of 32 block columns streamed, priced as a prefix the way the
        # sweep does.
        "ddl-h4-read-prefix": block_column_read_trace(
            sweep_ddl, n_streams=16, limit=3000
        ),
        "ddl-h4-narrow-read-prefix": block_column_read_trace(
            sweep_ddl, n_streams=16, whole_blocks=False, limit=3000
        ),
        "mixed-runs": mixed_run_trace(rng),
        # A stride-8 run that crosses a pricing-window boundary.
        "window-crossing": TraceArray(
            np.concatenate(
                (
                    rng.integers(0, N * N, size=5, dtype=np.int64) * 8,
                    linear_trace(1 << 20, BLOCK + 1500).addresses,
                    strided_trace(1 << 22, 40, BANK_STRIDE).addresses,
                )
            )
        ),
    }
    return traces


def mixed_run_trace(rng: np.random.Generator) -> TraceArray:
    """Bank-stride runs, singleton seams and array runs, interleaved.

    Compiled, it exercises every kind transition of the run walker:
    leading singletons, seams after closed and after array runs, a
    stride-0 (all-hit) run and row-stepping bank-stride runs.
    """
    singles = rng.integers(0, N * N, size=12, dtype=np.int64) * 8
    pieces = [
        singles[:3],
        strided_trace(0, 48, BANK_STRIDE).addresses,
        singles[3:4],
        linear_trace(4096, 300).addresses,
        singles[4:9],
        linear_trace(1 << 16, 200, stride_elements=3).addresses,
        np.full(24, 1 << 21, dtype=np.int64),
        strided_trace(8 << 10, 32, BANK_STRIDE).addresses,
        singles[9:],
        column_walk_trace(RowMajorLayout(N, N), cols=range(3)).addresses,
        linear_trace(1 << 18, 100).addresses,
    ]
    return TraceArray(np.concatenate(pieces))


def build_configs() -> dict[str, Any]:
    """Device configs under test (the paper's part plus two variants)."""
    return {
        "pact15-hmc": pact15_hmc_config(),
        "hmc-gen2": hmc_gen2_config(),
        "wideio": wideio_like_config(),
    }


def _stats_dict(stats: Any) -> dict[str, Any]:
    """JSON-able dump of an AccessStats for the diff report."""
    return {
        "requests": stats.requests,
        "bytes_transferred": stats.bytes_transferred,
        "elapsed_ns": stats.elapsed_ns,
        "row_activations": stats.row_activations,
        "row_hits": stats.row_hits,
        "per_vault_busy_ns": {str(k): v for k, v in stats.per_vault_busy_ns.items()},
        "first_response_ns": stats.first_response_ns,
        "mean_request_latency_ns": stats.mean_request_latency_ns,
        "max_request_latency_ns": stats.max_request_latency_ns,
    }


def compare_case(
    config: Any,
    trace: Any,
    discipline: str,
    plan: Any,
) -> dict[str, Any]:
    """Price one corpus case on both engines; return the case record."""
    mem_exact = Memory3D(config)
    mem_vector = Memory3D(config)
    exact = mem_exact.simulate(
        trace, discipline=discipline, fault_plan=plan, engine="exact"
    )
    exact_summary = mem_exact.last_fault_summary if plan is not None else None
    vector = mem_vector.simulate(
        trace, discipline=discipline, fault_plan=plan, engine="vector"
    )
    vector_summary = mem_vector.last_fault_summary if plan is not None else None

    record: dict[str, Any] = {
        "engine_used": mem_vector.last_engine,
        "fallback_reason": mem_vector.last_fallback_reason,
        "stats_equal": exact == vector,
        "summary_equal": exact_summary == vector_summary,
    }
    if not record["stats_equal"]:
        record["exact"] = _stats_dict(exact)
        record["vector"] = _stats_dict(vector)
    if not record["summary_equal"]:
        record["exact_summary"] = exact_summary
        record["vector_summary"] = vector_summary

    # Event-count cross-check (healthy runs: the recorder itself forces
    # the exact engine, so we compare its event tally to the vector
    # engine's aggregate counters).
    if plan is None:
        recorder = EventTrace()
        Memory3D(config, recorder=recorder).simulate(trace, discipline=discipline)
        counts = recorder.counts()
        record["events_equal"] = (
            counts.get("ACTIVATE", 0) == vector.row_activations
            and counts.get("ROW_HIT", 0) == vector.row_hits
        )
        if not record["events_equal"]:
            record["exact_events"] = counts
            record["vector_counts"] = {
                "ACTIVATE": vector.row_activations,
                "ROW_HIT": vector.row_hits,
            }
    else:
        record["events_equal"] = True
    record["ok"] = bool(
        record["stats_equal"] and record["summary_equal"] and record["events_equal"]
    )
    return record


def run_corpus() -> tuple[list[dict[str, Any]], dict[str, int]]:
    """Run every corpus case; return (records, tally)."""
    traces = build_traces()
    configs = build_configs()
    plans: dict[str, Any] = {"healthy": None}
    plans.update(builtin_fault_plans(seed=7))

    records: list[dict[str, Any]] = []
    tally = {"cases": 0, "failed": 0, "vector_priced": 0, "fallbacks": 0}
    for config_name, config in configs.items():
        for trace_name, trace in traces.items():
            for form in ("array", "compiled"):
                run_trace = compile_trace(trace) if form == "compiled" else trace
                for discipline in ("in_order", "per_vault"):
                    for plan_name, plan in plans.items():
                        if plan_name == "vault-failure" and config.vaults < 16:
                            # The builtin plan kills vaults 0/5/10/15.
                            continue
                        record = compare_case(config, run_trace, discipline, plan)
                        record.update(
                            config=config_name,
                            trace=trace_name,
                            form=form,
                            discipline=discipline,
                            plan=plan_name,
                        )
                        records.append(record)
                        tally["cases"] += 1
                        if not record["ok"]:
                            tally["failed"] += 1
                        if record["engine_used"] == "vector":
                            tally["vector_priced"] += 1
                        else:
                            tally["fallbacks"] += 1
    return records, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report",
        default="engine-equivalence-report.json",
        help="where to write the structured JSON diff report",
    )
    args = parser.parse_args(argv)

    records, tally = run_corpus()
    failures = [r for r in records if not r["ok"]]
    report = {
        "tally": tally,
        "failures": failures,
        "cases": records,
    }
    Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))

    print(
        f"engine equivalence: {tally['cases']} cases, "
        f"{tally['vector_priced']} vector-priced, "
        f"{tally['fallbacks']} exact fallbacks, "
        f"{tally['failed']} failed"
    )
    if failures:
        for rec in failures[:10]:
            print(
                f"  MISMATCH {rec['config']}/{rec['trace']}/{rec['form']}"
                f"/{rec['discipline']}/{rec['plan']}: "
                f"stats_equal={rec['stats_equal']} "
                f"summary_equal={rec['summary_equal']} "
                f"events_equal={rec['events_equal']}"
            )
        print(f"report: {args.report}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

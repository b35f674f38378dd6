"""Vector-engine speedup guard -- the batch pricer must stay >=10x.

The vectorized engine exists for one reason: pricing the paper's big
column-phase traces (N=4096 is 16.7M requests) at array speed instead of
355 ns/request Python-loop speed.  This benchmark pins that claim on the
exact workload the issue names -- the column walk over a row-major
N=4096 image -- and writes ``BENCH_engine.json`` for
``tools/check_bench.py``, CI's benchmark-regression gate.

Three timings per run:

* **exact**   -- the per-request reference loop (``engine="exact"``);
* **vector**  -- a raw request array handed to ``engine="vector"``
  (auto-compilation into run descriptors is part of the measured cost);
* **compiled**-- a pre-compiled :class:`repro.CompiledTrace`, isolating
  the closed-form run pricer from compilation overhead.

Equivalence is asserted outright (``==`` on the stats, not approximate;
both engines share the integer-picosecond timebase), and the vector runs
must report ``last_engine == "vector"`` -- a silent exact fallback would
otherwise masquerade as a 1x "speedup".

A second case prices the paper's own layout the way a sweep point
does: the DDL at Eq. (1) with 16 column streams, both ``whole_blocks``
values, on the 65,536-request prefix the sweep prices.  It times trace
generation (``ddl_generate_ms``, both prefixes together) and the two
engines (``ddl_speedup_x`` = exact over vector, both prefixes
together), each best of 3, with the same equality and no-fallback
assertions.  That case is the same in quick and full mode.

Run quick mode (``pytest benchmarks/bench_engine.py --quick``) for the
CI smoke variant: a 256-column prefix of the row-major trace.
"""

from __future__ import annotations

import time
from typing import Any

from conftest import banner, write_bench_json
from repro import (
    BlockDDLLayout,
    Memory3D,
    RowMajorLayout,
    block_column_read_trace,
    column_walk_trace,
    compile_trace,
)
from repro.layouts import optimal_block_geometry
from repro.memory3d import pact15_hmc_config

#: Matrix edge for the column-phase trace (the paper's largest problem).
N = 4096

#: Columns walked per mode: full = the whole N=4096 phase (16.7M
#: requests), quick = a 256-column prefix (1M requests).
FULL_COLS = N
QUICK_COLS = 256

#: Speedup floor from BENCH_engine.json; measured headroom is ~10x
#: beyond this on both paths.
SPEEDUP_FLOOR = 10.0

#: The DDL case: column streams and the priced prefix of a sweep point.
DDL_STREAMS = 16
DDL_PREFIX = 65_536

#: Floor for the DDL case (BENCH_engine.json); the vector engine must
#: beat the exact loop on the paper's own layout, not only on row-major.
DDL_SPEEDUP_FLOOR = 1.2

#: Repeats per timing of the DDL case (best of).
DDL_REPEATS = 3


def _best_of(repeats: int, fn, *args, **kwargs) -> tuple[float, Any]:
    """Minimum wall-clock seconds over ``repeats`` calls, and the last result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, out


def _time_simulate(memory: Memory3D, trace, engine: str) -> tuple[float, object]:
    start = time.perf_counter()
    stats = memory.simulate(trace, discipline="in_order", engine=engine)
    return time.perf_counter() - start, stats


def test_vector_engine_speedup(quick):
    cols = QUICK_COLS if quick else FULL_COLS
    layout = RowMajorLayout(N, N)
    trace = column_walk_trace(layout, cols=range(cols))
    compiled = compile_trace(trace)
    requests = len(trace)

    config = pact15_hmc_config()
    exact_s, exact = _time_simulate(Memory3D(config), trace, "exact")

    mem_vector = Memory3D(config)
    vector_s, vector = _time_simulate(mem_vector, trace, "vector")
    assert mem_vector.last_engine == "vector", mem_vector.last_fallback_reason

    mem_compiled = Memory3D(config)
    compiled_s, from_compiled = _time_simulate(mem_compiled, compiled, "vector")
    assert mem_compiled.last_engine == "vector", mem_compiled.last_fallback_reason

    # The contract the equivalence gate enforces corpus-wide, re-checked
    # here on the headline workload: identical stats, not close ones.
    assert exact == vector, "vector engine diverged from exact on column phase"
    assert exact == from_compiled, "compiled pricing diverged from exact"

    speedup_x = exact_s / vector_s if vector_s > 0 else float("inf")
    compiled_speedup_x = exact_s / compiled_s if compiled_s > 0 else float("inf")
    per_request_ns = exact_s / requests * 1e9

    print(banner(f"ENGINE: vector batch pricer vs exact loop (N={N})"))
    print(f"  trace               : column walk, {cols} cols, "
          f"{requests:,} requests")
    print(f"  exact engine        : {exact_s:.3f} s "
          f"({per_request_ns:.0f} ns/request)")
    print(f"  vector (raw array)  : {vector_s:.3f} s  ({speedup_x:.1f}x)")
    print(f"  vector (compiled)   : {compiled_s:.3f} s  "
          f"({compiled_speedup_x:.1f}x)")

    ddl_metrics, ddl_info = measure_ddl()
    write_bench_json(
        "engine",
        {
            "speedup_x": speedup_x,
            "compiled_speedup_x": compiled_speedup_x,
            "exact_s": exact_s,
            "vector_s": vector_s,
            "compiled_s": compiled_s,
            **ddl_metrics,
        },
        info={"n": N, "cols": cols, "requests": requests, "quick": quick,
              "discipline": "in_order", **ddl_info},
    )

    assert speedup_x >= SPEEDUP_FLOOR, (
        f"vector engine only {speedup_x:.1f}x over exact "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    assert compiled_speedup_x >= SPEEDUP_FLOOR
    ddl_speedup_x = ddl_metrics["ddl_speedup_x"]
    assert ddl_speedup_x >= DDL_SPEEDUP_FLOOR, (
        f"DDL vector engine only {ddl_speedup_x:.2f}x over exact "
        f"(floor {DDL_SPEEDUP_FLOOR}x)"
    )


def measure_ddl() -> tuple[dict[str, float], dict[str, Any]]:
    """Time the DDL case; return its BENCH metrics and info."""
    config = pact15_hmc_config()
    geometry = optimal_block_geometry(config, N)
    layout = BlockDDLLayout(N, N, geometry.width, geometry.height)
    generate_s = exact_s = vector_s = 0.0
    for whole_blocks in (True, False):
        gen_s, trace = _best_of(
            DDL_REPEATS, block_column_read_trace, layout, DDL_STREAMS,
            whole_blocks=whole_blocks, block_cols=range(DDL_STREAMS),
            limit=DDL_PREFIX,
        )
        assert len(trace) == DDL_PREFIX
        ex_s, exact = _best_of(
            DDL_REPEATS, Memory3D(config).simulate, trace, "per_vault"
        )
        memory = Memory3D(config)
        vec_s, vector = _best_of(
            DDL_REPEATS, memory.simulate, trace, "per_vault", engine="vector"
        )
        assert memory.last_engine == "vector", memory.last_fallback_reason
        assert exact == vector, f"vector diverged from exact (whole_blocks={whole_blocks})"
        generate_s += gen_s
        exact_s += ex_s
        vector_s += vec_s

    ddl_speedup_x = exact_s / vector_s if vector_s > 0 else float("inf")
    print(banner(f"ENGINE: DDL column phase, Eq. (1) h={layout.height} (N={N})"))
    print(f"  traces              : {DDL_STREAMS} streams, whole_blocks true+false,"
          f" {DDL_PREFIX:,}-request prefixes")
    print(f"  generation          : {1e3 * generate_s:.2f} ms")
    print(f"  exact engine        : {1e3 * exact_s:.1f} ms")
    print(f"  vector engine       : {1e3 * vector_s:.1f} ms  ({ddl_speedup_x:.1f}x)")
    metrics = {
        "ddl_generate_ms": 1e3 * generate_s,
        "ddl_speedup_x": ddl_speedup_x,
        "ddl_exact_s": exact_s,
        "ddl_vector_s": vector_s,
    }
    info = {"ddl_height": layout.height, "ddl_width": layout.width,
            "ddl_streams": DDL_STREAMS, "ddl_prefix": DDL_PREFIX}
    return metrics, info

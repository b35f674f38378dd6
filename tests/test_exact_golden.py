"""Golden values for the exact engine's faulted paths.

The engine-equivalence gate cross-checks the vector engine against the
exact one, but storm and throttle plans fall back to the exact engine,
so for those cases the gate compares the exact engine with itself.
This module pins them instead: every built-in fault plan (plus the
healthy run) x both disciplines x three corpus traces x refresh on/off,
priced by the exact engine, must reproduce the committed
``AccessStats``, ``last_fault_summary`` and recorded event stream
exactly (``==`` on every double).

Regenerate the golden file (only when a timing rule changes on purpose)
with ``PYTHONPATH=src python tests/test_exact_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.faults.plan import builtin_fault_plans
from repro.layouts import BlockDDLLayout, RowMajorLayout
from repro.memory3d import Memory3D, RefreshParameters, pact15_hmc_config
from repro.obs import EventTrace
from repro.trace import TraceArray, block_column_read_trace, column_walk_trace

GOLDEN = Path(__file__).with_name("exact_golden.json")

#: Matrix edge of the corpus traces (4,096 requests each).
N = 64
SEED = 7
DISCIPLINES = ("in_order", "per_vault")


def _traces() -> dict[str, TraceArray]:
    rng = np.random.default_rng(20150214)
    addresses = rng.integers(0, N * N, size=N * N, dtype=np.int64) * 8
    arrivals = np.cumsum(rng.uniform(0.0, 3.0, size=N * N))
    return {
        "ddl-block-read": block_column_read_trace(
            BlockDDLLayout(N, N, width=16, height=16), n_streams=4
        ),
        "col-walk-rm": column_walk_trace(RowMajorLayout(N, N)),
        "random-arrivals": TraceArray(addresses, arrival_ns=arrivals),
    }


def _configs() -> dict[str, Any]:
    plain = pact15_hmc_config()
    refreshing = replace(
        plain, refresh=RefreshParameters(t_refi_ns=1000.0, t_rfc_ns=100.0)
    )
    return {"refresh-off": plain, "refresh-on": refreshing}


def _plans() -> dict[str, Any]:
    return {"healthy": None, **builtin_fault_plans(seed=SEED)}


def _stats_dict(stats: Any) -> dict[str, Any]:
    return {
        "requests": stats.requests,
        "bytes_transferred": stats.bytes_transferred,
        "elapsed_ns": stats.elapsed_ns,
        "row_activations": stats.row_activations,
        "row_hits": stats.row_hits,
        "per_vault_busy_ns": {
            str(k): v for k, v in sorted(stats.per_vault_busy_ns.items())
        },
        "first_response_ns": stats.first_response_ns,
        "mean_request_latency_ns": stats.mean_request_latency_ns,
        "max_request_latency_ns": stats.max_request_latency_ns,
    }


def _events_digest(recorder: EventTrace) -> str:
    """sha256 over the exact recorded columns (float reprs included)."""
    digest = hashlib.sha256()
    for row in zip(
        recorder.kinds, recorder.vaults, recorder.banks, recorder.rows,
        recorder.ts_ns, recorder.dur_ns, strict=True,
    ):
        digest.update(repr(row).encode())
    return digest.hexdigest()


def run_case(
    config: Any, trace: TraceArray, discipline: str, plan: Any
) -> dict[str, Any]:
    """Price one case on the exact engine, with and without a recorder."""
    memory = Memory3D(config)
    stats = memory.simulate(trace, discipline, fault_plan=plan, engine="exact")
    recorder = EventTrace()
    recorded = Memory3D(config, recorder=recorder)
    recorded_stats = recorded.simulate(
        trace, discipline, fault_plan=plan, engine="exact"
    )
    assert recorded_stats == stats, "a recorder must not change the timing"
    return {
        "stats": _stats_dict(stats),
        "fault_summary": memory.last_fault_summary,
        "events": len(recorder),
        "event_counts": recorder.counts(),
        "events_sha256": _events_digest(recorder),
    }


def case_ids() -> list[str]:
    return [
        f"{config}/{trace}/{discipline}/{plan}"
        for config in _configs()
        for trace in _traces()
        for discipline in DISCIPLINES
        for plan in _plans()
    ]


def compute_all() -> dict[str, dict[str, Any]]:
    configs, traces, plans = _configs(), _traces(), _plans()
    out = {}
    for case in case_ids():
        config, trace, discipline, plan = case.split("/")
        out[case] = run_case(
            configs[config], traces[trace], discipline, plans[plan]
        )
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def corpus() -> tuple[dict[str, Any], dict[str, TraceArray], dict[str, Any]]:
    return _configs(), _traces(), _plans()


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_exact_engine_reproduces_golden(case, golden, corpus):
    configs, traces, plans = corpus
    config, trace, discipline, plan = case.split("/")
    got = run_case(configs[config], traces[trace], discipline, plans[plan])
    # Round-trip through JSON so int dict keys and tuples compare alike.
    assert json.loads(json.dumps(got)) == golden[case]


if __name__ == "__main__":
    lines = [
        f"{json.dumps(case)}: {json.dumps(value, sort_keys=True)}"
        for case, value in sorted(compute_all().items())
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")

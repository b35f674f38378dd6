"""DRAM refresh is a periodic lockout, the same one a refresh storm is.

The exact engine prices refresh windows and ``RefreshStorm`` windows
with one lockout rule; refresh is the all-vault lockout staggered by
``v * t_refi / vaults``, exactly as ``compile_plan`` staggers a storm.
Seeded and deterministic (``derandomize=True``) with capped
``max_examples``; marked ``property`` like the other Hypothesis suites.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, LatencyJitter, RefreshStorm
from repro.memory3d import Memory3D, RefreshParameters, pact15_hmc_config
from repro.obs import EventTrace
from repro.trace import TraceArray, linear_trace

pytestmark = pytest.mark.property

MAX_EXAMPLES = 40
DISCIPLINES = ("in_order", "per_vault")


def _random_trace(seed: int, size: int, span: int, arrivals: bool) -> TraceArray:
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, span, size=size, dtype=np.int64) * 8
    arrival_ns = np.cumsum(rng.uniform(0.0, 3.0, size=size)) if arrivals else None
    return TraceArray(addresses, arrival_ns=arrival_ns)


def _events(recorder: EventTrace) -> list[tuple]:
    return list(
        zip(
            recorder.kinds, recorder.vaults, recorder.banks, recorder.rows,
            recorder.ts_ns, recorder.dur_ns, strict=True,
        )
    )


@settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    size=st.integers(1, 300),
    span=st.sampled_from([1 << 10, 1 << 14, 1 << 18]),
    arrivals=st.booleans(),
    t_refi_ns=st.sampled_from([400.0, 1000.0, 2000.0, 3900.0]),
    t_rfc_ns=st.sampled_from([10.0, 50.0, 100.0, 160.0]),
)
def test_refresh_equals_an_all_vault_storm(
    seed, size, span, arrivals, t_refi_ns, t_rfc_ns
):
    trace = _random_trace(seed, size, span, arrivals)
    plain = pact15_hmc_config()
    refreshing = replace(plain, refresh=RefreshParameters(t_refi_ns, t_rfc_ns))
    storm = FaultPlan((RefreshStorm(t_refi_ns, t_rfc_ns),), name="storm")
    for discipline in DISCIPLINES:
        refresh_rec, storm_rec = EventTrace(), EventTrace()
        refresh_mem = Memory3D(refreshing, recorder=refresh_rec)
        storm_mem = Memory3D(plain, recorder=storm_rec)
        with_refresh = refresh_mem.simulate(trace, discipline)
        with_storm = storm_mem.simulate(trace, discipline, fault_plan=storm)
        assert with_refresh == with_storm
        assert _events(refresh_rec) == _events(storm_rec)
        assert refresh_mem.last_fault_summary is None

        reference = Memory3D(refreshing).simulate_reference(trace, discipline)
        assert with_refresh.row_activations == reference.row_activations
        assert with_refresh.row_hits == reference.row_hits
        assert with_refresh.elapsed_ns == pytest.approx(reference.elapsed_ns)
        assert with_refresh.first_response_ns == pytest.approx(
            reference.first_response_ns
        )
        assert with_refresh.max_request_latency_ns == pytest.approx(
            reference.max_request_latency_ns
        )


def test_refresh_stalls_never_count_as_storm_stalls():
    config = replace(
        pact15_hmc_config(), refresh=RefreshParameters(1000.0, 100.0)
    )
    recorder = EventTrace()
    memory = Memory3D(config, recorder=recorder)
    memory.simulate(
        linear_trace(0, 20_000),
        "per_vault",
        fault_plan=FaultPlan((LatencyJitter(amplitude_ns=1.0),), name="jitter"),
    )
    assert recorder.counts()["REFRESH_STALL"] > 0
    assert memory.last_fault_summary is not None
    assert memory.last_fault_summary["storm_stall_ns"] == 0.0

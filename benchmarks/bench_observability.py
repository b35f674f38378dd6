"""Engineering guard -- event recording must not tax the hot loop.

The observability layer hooks the exact timing engine
(:meth:`repro.memory3d.memory.Memory3D._simulate_exact`, the one
per-request loop that prices healthy and faulted runs): with recording
off the loop pays a single pointer test per request, with an
:class:`~repro.obs.EventTrace` attached it additionally appends one
columnar record per event.  The same loop carries the fault hooks and
the refresh/storm lockouts behind flags computed before it starts, so
this benchmark also pins what a healthy run pays for them:

* recorder **off** vs a seed replica of the loop (the pre-instrumentation,
  fault-free engine, inlined below): within a few percent -- the
  instrumentation and the fault machinery are free unless asked for;
* recorder **on**: bounded constant factor, reported for the record.

Run quick mode (``pytest benchmarks/bench_observability.py --quick``)
for the CI smoke variant: a smaller workload and looser thresholds.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import banner, write_bench_json
from repro.memory3d import AccessStats, Memory3D, pact15_hmc_config
from repro.memory3d.timebase import (
    mean_latency_ns,
    ns_array_to_ps,
    ns_to_ps,
    ps_to_ns,
)
from repro.obs import EventTrace
from repro.trace import TraceArray
from repro.units import ELEMENT_BYTES

_NEG_INF = float("-inf")

#: Workload and tolerance per mode: (requests, repeats, off_overhead_cap).
FULL = (131_072, 5, 1.05)
QUICK = (16_384, 3, 1.25)


def seed_simulate_fast(
    memory: Memory3D, trace: TraceArray, discipline: str
) -> AccessStats:
    """Replica of the pre-instrumentation array-state hot loop.

    The seed engine (commit 4b3fa0b) the instrumented loop is measured
    against: identical per-request rules and stats assembly, no recorder
    gate, no fault hooks.  It is ported to the engines' integer-picosecond
    timebase (ns converted on entry, back on exit) so its stats equal the
    live engine's exactly; agreement is asserted before timing.
    """
    cfg = memory.config
    timing = cfg.timing
    t_in_row = ns_to_ps(timing.t_in_row)
    t_in_vault = ns_to_ps(timing.t_in_vault)
    t_diff_bank = ns_to_ps(timing.t_diff_bank)
    t_diff_row = ns_to_ps(timing.t_diff_row)
    n_layers = cfg.layers
    banks_per_vault = cfg.banks_per_vault
    in_order = discipline == "in_order"
    refresh = cfg.refresh
    if refresh is not None:
        refi = ns_to_ps(refresh.t_refi_ns)
        rfc = ns_to_ps(refresh.t_rfc_ns)
        refresh_offset = [
            ns_to_ps(v * refresh.t_refi_ns / cfg.vaults) for v in range(cfg.vaults)
        ]

    vaults_arr, banks_arr, rows_arr, _ = memory.mapping.decode_array(trace.addresses)
    gbank_list = (vaults_arr * banks_per_vault + banks_arr).tolist()
    vault_list = vaults_arr.tolist()
    bank_list = banks_arr.tolist()
    row_list = rows_arr.tolist()
    arrival_list = (
        ns_array_to_ps(trace.arrival_ns).tolist()
        if trace.arrival_ns is not None
        else None
    )

    n_banks = cfg.total_banks
    n_vaults = cfg.vaults
    open_row = [-1] * n_banks
    bank_next_act = [0] * n_banks
    tsv_next = [0] * n_vaults
    last_act_time = [_NEG_INF] * n_vaults
    last_act_layer = [-1] * n_vaults
    last_act_bank = [-1] * n_vaults
    vault_ready = [0] * n_vaults
    stream_ready = 0

    activations = 0
    hits = 0
    first_completion = 0
    last_completion = 0

    latency_sum = 0
    latency_max = 0

    for i, gbank in enumerate(gbank_list):
        vid = vault_list[i]
        row = row_list[i]
        ready = stream_ready if in_order else vault_ready[vid]
        if arrival_list is not None and arrival_list[i] > ready:
            ready = arrival_list[i]
        if open_row[gbank] == row:
            hits += 1
            beat = tsv_next[vid]
            if ready > beat:
                beat = ready
            if refresh is not None:
                phase = (beat - refresh_offset[vid]) % refi
                if phase < rfc:
                    beat += rfc - phase
            completion = beat + t_in_row
        else:
            act = bank_next_act[gbank]
            if ready > act:
                act = ready
            prev_act = last_act_time[vid]
            bank = bank_list[i]
            if prev_act != _NEG_INF and last_act_bank[vid] != bank:
                layer = bank % n_layers
                gap = t_diff_bank if layer == last_act_layer[vid] else t_in_vault
                gated = prev_act + gap
                if gated > act:
                    act = gated
            if refresh is not None:
                phase = (act - refresh_offset[vid]) % refi
                if phase < rfc:
                    act += rfc - phase
            open_row[gbank] = row
            bank_next_act[gbank] = act + t_diff_row
            last_act_time[vid] = act
            last_act_layer[vid] = bank % n_layers
            last_act_bank[vid] = bank
            activations += 1
            beat = tsv_next[vid]
            if act > beat:
                beat = act
            if refresh is not None:
                phase = (beat - refresh_offset[vid]) % refi
                if phase < rfc:
                    beat += rfc - phase
            completion = beat + t_in_row
        tsv_next[vid] = completion
        if in_order:
            stream_ready = completion
        else:
            vault_ready[vid] = completion
        if i == 0:
            first_completion = completion
        if completion > last_completion:
            last_completion = completion
        if arrival_list is not None:
            latency = completion - arrival_list[i]
            latency_sum += latency
            if latency > latency_max:
                latency_max = latency

    busy = {
        vid: ps_to_ns(tsv_next[vid]) for vid in range(n_vaults) if tsv_next[vid] > 0
    }
    n_requests = len(trace)
    return AccessStats(
        requests=n_requests,
        bytes_transferred=n_requests * ELEMENT_BYTES,
        elapsed_ns=ps_to_ns(last_completion),
        row_activations=activations,
        row_hits=hits,
        per_vault_busy_ns=busy,
        first_response_ns=ps_to_ns(first_completion),
        mean_request_latency_ns=(
            mean_latency_ns(latency_sum, n_requests)
            if arrival_list is not None
            else 0.0
        ),
        max_request_latency_ns=ps_to_ns(latency_max),
    )


def timed(fn, *args) -> float:
    """Wall-clock seconds of one call."""
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def best_of(repeats: int, fn, *args) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls."""
    return min(timed(fn, *args) for _ in range(repeats))


def test_recorder_off_matches_seed_throughput(quick):
    requests, repeats, cap = QUICK if quick else FULL
    rng = np.random.default_rng(0x0B5)
    trace = TraceArray(
        rng.integers(0, 1 << 20, size=requests, dtype=np.int64) * 8
    )
    memory = Memory3D(pact15_hmc_config())

    # The replica must be the same engine, or the comparison means nothing.
    seed_stats = seed_simulate_fast(memory, trace, "per_vault")
    live_stats = memory.simulate(trace, "per_vault")
    assert seed_stats.elapsed_ns == live_stats.elapsed_ns
    assert seed_stats.row_activations == live_stats.row_activations
    assert seed_stats.row_hits == live_stats.row_hits

    # Warm up, then alternate seed and live runs in one loop so both
    # sides see the same machine state; each side keeps its best.
    seed_simulate_fast(memory, trace, "per_vault")
    memory.simulate(trace, "per_vault")
    seed_times, off_times = [], []
    for _ in range(repeats):
        seed_times.append(timed(seed_simulate_fast, memory, trace, "per_vault"))
        off_times.append(timed(memory.simulate, trace, "per_vault"))
    seed_s, off_s = min(seed_times), min(off_times)
    ratio = off_s / seed_s

    recorder = EventTrace()
    instrumented = Memory3D(pact15_hmc_config(), recorder=recorder)

    def run_instrumented():
        recorder.clear()
        instrumented.simulate(trace, "per_vault")

    run_instrumented()
    on_s = best_of(repeats, run_instrumented)

    print(banner("OBS: recorder overhead on the array-state hot loop"))
    print(f"  requests            : {requests:,}")
    print(f"  seed replica        : {1e9 * seed_s / requests:7.1f} ns/request")
    print(f"  recorder off        : {1e9 * off_s / requests:7.1f} ns/request "
          f"({ratio:.3f}x seed)")
    print(f"  recorder on         : {1e9 * on_s / requests:7.1f} ns/request "
          f"({on_s / seed_s:.3f}x seed, {len(recorder):,} events)")

    write_bench_json(
        "observability",
        {
            "off_overhead_x": ratio,
            "on_overhead_x": on_s / seed_s,
            "seed_ns_per_request": 1e9 * seed_s / requests,
            "off_ns_per_request": 1e9 * off_s / requests,
            "on_ns_per_request": 1e9 * on_s / requests,
        },
        info={"requests": requests, "repeats": repeats, "quick": quick},
    )

    # The tentpole's gate: uninstrumented runs stay at seed speed.
    assert ratio < cap, (
        f"recorder-off hot loop is {ratio:.3f}x the seed replica "
        f"(cap {cap}x)"
    )
    # Recording costs a bounded constant factor (measured ~1.6x).
    assert on_s / seed_s < 5.0

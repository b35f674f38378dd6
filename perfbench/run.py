#!/usr/bin/env python3
"""The repository benchmark: one command, two seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 40 --trace 0

Workloads:

* ``sweep-paper`` -- ``run_sweep`` over the paper's design space
  (N in {1024, 2048, 4096}; row-major plus the DDL at Eq. (1) and
  h in {4, 8, 16, 32}; ``whole_blocks`` true and false) under seeded
  timing variants, no cache, ``jobs = nproc``;
* ``serve-warm`` -- ``repro serve --jobs nproc`` filled from an empty
  cache by a closed loop of new small plans with in-flight repeats and
  malformed requests (the cold path), then a seeded Poisson open loop
  of Zipf-popular repeats at a base and a peak rate, then a max-rate
  search.

``--trace 0`` measures the end-to-end metrics with no probes anywhere.
``--trace 1`` runs the program with span probes around its layer
functions and reports the per-layer metrics; the spans are also written
as a Chrome/Perfetto trace under ``.perfbench-out/``.  The last line of
standard output is the JSON result.  Every metric is defined in
``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from subprocess import DEVNULL
from typing import Any

from inputs import (
    arrivals,
    fill_requests,
    is_malformed,
    sweep_plan,
    warm_set,
    zipf_picker,
)
from layers import LAYER_TARGETS, layer_metrics, percentile
from loadgen import Phase, exchange, request_bytes, run_phase
from programs import (
    HERE,
    ROOT,
    SRC,
    BenchError,
    HostSpeed,
    MemoryWatch,
    Server,
    become_subreaper,
    end_descendants,
    launch_sweep_host,
    nproc,
    start,
    stop,
    tree_cpu_s,
)
from tracing import load_dumps, write_chrome_trace

WORKLOADS = ("sweep-paper", "serve-warm")

#: End-to-end metric -> unit (the ``--trace 0`` result): the bounded
#: ones.  ``refs`` are multiples of the CPU time of the host-speed
#: reference loop (``reference_sampler.py``) in the same run.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_per_point": "refs",
}

#: Measured and printed, but not bounded (see METRICS.md): on a shared
#: 2-vCPU host their spread over ten seeds reached 0.2-0.9.
OBSERVED_UNITS = {
    "cpu.base": "refs",
    "cpu.peak": "refs",
    "points_per_s": "1/s",
    "reference_ms": "ms",
    "cpu_ms_per_point": "ms",
    "cpu_ms.base": "ms",
    "cpu_ms.peak": "ms",
    "p50_ms.base": "ms",
    "tail_ms.base": "ms",
    "p50_ms.peak": "ms",
    "tail_ms.peak": "ms",
    "max_rate_rps": "1/s",
}

#: The tail percentile of ``sweep-paper`` call latencies (see METRICS.md).
SWEEP_TAIL_Q = 0.8

#: Program launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5

#: Config variants in a sweep plan (more than any run reaches).
SWEEP_VARIANTS = 200

#: Sweep points re-priced with the exact engine per run.
EXACT_SAMPLE = 3

#: A generator whose wake-ups run later than this share of the latency
#: limit (at p99 of its wake-ups) invalidates the run.
LAG_LIMIT_SHARE = 0.5

OUT = ROOT / ".perfbench-out"


#: ``serve-warm`` traffic.  The tail is p90: on a 2-core VM the
#: service's own p99 at 40 req/s swings between 20 and 40 ms from
#: scheduling hiccups alone (the generator's wake-ups run 5-10 ms late
#: at p99 too), so p99 does not repeat from run to run; p90 does, and
#: has ~100 samples beyond it per phase.  The limit applies to it.
TAIL_Q = 0.9
LIMIT_MS = 30.0
BASE_RPS = 50.0
PEAK_RPS = 100.0
#: Shares of ``--seconds`` for the base and peak phases and each probe.
BASE_SHARE = 0.3
PEAK_SHARE = 0.25
PROBE_SHARE = 0.09
PROBES = 5

#: The cold fill: distinct plans, share of in-flight repeats, share of
#: malformed requests.
FILL_PLANS = 120
#: The fill runs as this many consecutive closed-loop chunks;
#: ``points_per_s`` is the median of their rates.
FILL_CHUNKS = 3
REPEAT_SHARE = 0.1
MALFORMED_SHARE = 0.015


def document_of(answer: bytes) -> tuple[dict[str, Any], str]:
    """A 200 envelope and its embedded document in ``repro sweep`` form."""
    envelope = json.loads(answer)
    return envelope, json.dumps(envelope["document"], indent=2, sort_keys=True) + "\n"


def body_key(body: dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True)


def sha256_of(documents: list[str]) -> str:
    digest = hashlib.sha256()
    for document in documents:
        digest.update(document.encode("utf-8"))
    return digest.hexdigest()


# ------------------------------------------------------------------ sweep
def sweep_paper(args: argparse.Namespace, run_dir: Path) -> dict[str, Any]:
    plan = run_dir / "plan.json"
    plan.write_text(json.dumps(sweep_plan(args.seed, SWEEP_VARIANTS)), encoding="utf-8")
    out = run_dir / "calls.json"
    log = run_dir / "sweep.log"
    host = [str(plan), str(out), str(args.seconds)]
    if args.trace:
        trace_dir = run_dir / "spans"
        proc, _ = launch_sweep_host([*host, "1", "--traced", str(trace_dir)], log)
        proc.wait()
        if stop(proc) != 0:
            raise BenchError("traced sweep host failed:\n" + log.read_text()[-2000:])
        report = json.loads(out.read_text(encoding="utf-8"))
        spans, counts = load_dumps(trace_dir)
        metrics, check = layer_metrics(spans, counts)
        overhead = report["traced_wall_s"] / report["untraced_wall_s"]
        metrics["bench.trace_overhead_ratio"] = overhead
        # The probes' own cost lands in the self time of the spans that
        # enclose them, so the points may exceed the layer sum by at
        # most the overhead.
        check_ok = check["layer_sum_ms"] <= check["point_sum_ms"] <= (
            check["layer_sum_ms"] * max(overhead, 1.0) * 1.02
        )
        notes = [
            f"per-point layer self times sum to {check['layer_sum_ms']:.1f} ms "
            f"against {check['point_sum_ms']:.1f} ms of points "
            f"(overhead ratio {overhead:.3f}): {'ok' if check_ok else 'MISMATCH'}"
        ]
        return finish_sweep(args, report["calls"], metrics, notes, extra_ok=check_ok, spans=spans)

    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        proc, ready_s = launch_sweep_host([*host, "1", "--ready-only"], log)
        proc.wait()
        stop(proc)
        setups.append(ready_s)
    proc, ready_s = launch_sweep_host([*host, str(nproc())], log)
    setups.append(ready_s)
    speed = HostSpeed(run_dir / "host-speed.txt")
    try:
        since = time.monotonic()
        watch = MemoryWatch(proc.pid)
        while proc.poll() is None:
            watch.sample()
            time.sleep(0.1)
        reference_s = speed.reference_s(since, time.monotonic())
    finally:
        speed.stop()
        returncode = stop(proc)
    if returncode != 0:
        raise BenchError("sweep host failed:\n" + log.read_text()[-2000:])
    calls = json.loads(out.read_text(encoding="utf-8"))["calls"]
    wall_s = sum(call["wall_s"] for call in calls)
    base = [1e3 * c["wall_s"] for c in calls if c["whole_blocks"]]
    peak = [1e3 * c["wall_s"] for c in calls if not c["whole_blocks"]]
    points = sum(c["points"] for c in calls)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": watch.peak_mb,
        "cpu_per_point": sum(c["cpu_s"] for c in calls) / points / reference_s,
        "cpu.base": statistics.median(c["cpu_s"] for c in calls if c["whole_blocks"])
        / reference_s,
        "cpu.peak": statistics.median(c["cpu_s"] for c in calls if not c["whole_blocks"])
        / reference_s,
        "points_per_s": points / wall_s,
        "reference_ms": 1e3 * reference_s,
        "cpu_ms_per_point": 1e3 * sum(c["cpu_s"] for c in calls) / points,
        "cpu_ms.base": 1e3 * statistics.median(c["cpu_s"] for c in calls if c["whole_blocks"]),
        "cpu_ms.peak": 1e3
        * statistics.median(c["cpu_s"] for c in calls if not c["whole_blocks"]),
        "p50_ms.base": percentile(base, 0.5),
        "tail_ms.base": percentile(base, SWEEP_TAIL_Q),
        "p50_ms.peak": percentile(peak, 0.5),
        "tail_ms.peak": percentile(peak, SWEEP_TAIL_Q),
        "max_rate_rps": len(calls) / wall_s,
    }
    notes = [
        f"tail p{round(100 * SWEEP_TAIL_Q)}; {len(calls)} run_sweep calls ({len(base)} base: "
        f"whole_blocks=true, {len(peak)} peak: whole_blocks=false), "
        f"{sum(c['points'] for c in calls)} points in {wall_s:.2f} s, "
        f"jobs={nproc()}; max_rate_rps here is sweep calls per second"
    ]
    return finish_sweep(args, calls, metrics, notes)


def finish_sweep(
    args: argparse.Namespace,
    calls: list[dict[str, Any]],
    metrics: dict[str, float],
    notes: list[str],
    extra_ok: bool = True,
    spans: list[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Correctness of a sweep run: no quarantine, exact re-pricing matches."""
    from repro.core.config import SystemConfig
    from repro.serialization import system_with_overrides
    from repro.sweep import grid_from_dict, point_result

    quarantined = sum(call["failures"] for call in calls)
    rng = random.Random(f"exact-sample:{args.seed}")
    mismatches = 0
    for call in rng.sample(calls, min(EXACT_SAMPLE, len(calls))):
        document = json.loads(call["document"])
        grid = grid_from_dict(document["grid"])
        index = rng.randrange(len(grid.points()))
        point = grid.points()[index]
        config = system_with_overrides(SystemConfig(), dict(grid.configs[0].overrides))
        exact = point_result(point, config, document["max_requests"], engine="exact")
        if exact != document["results"][index]:
            mismatches += 1
            notes.append(f"exact re-pricing differs at {point}")
    notes.append(
        f"failed_ratio {(quarantined + mismatches) / max(1, sum(c['points'] for c in calls))} "
        f"(quarantined points {quarantined}, exact mismatches {mismatches})"
    )
    notes.append(
        f"documents_sha256 {sha256_of([c['document'] for c in calls])} "
        f"({len(calls)} sweep documents)"
    )
    points = sum(call["points"] + call["failures"] for call in calls)
    return {
        "metrics": metrics,
        "attempted": points,
        "failed": quarantined + mismatches,
        "correct": quarantined == 0 and mismatches == 0 and extra_ok,
        "notes": notes,
        "spans": spans,
    }


# ------------------------------------------------------------------ serve
def warm_phase(name: str, rate: float, duration_s: float, seed: int, plans: list[dict]) -> Phase:
    """Seeded Poisson arrivals of Zipf-popular repeats of the filled plans."""
    rng = random.Random(f"serve-warm:{seed}:{name}")
    offsets = arrivals(rng, rate, duration_s)
    pick = zipf_picker(rng, len(plans))
    bodies = [plans[pick()] for _ in offsets]
    return Phase(name, rate, offsets, bodies, [True] * len(bodies))


def cold_fill(server: Server, seed: int, plans: list[dict], tick: Any = None) -> list[Phase]:
    """The cache fill: every plan once from an empty cache, closed loop.

    ``nproc`` connections each send their next request as soon as the
    previous one is answered.  In-flight repeats and malformed requests
    are mixed in (see :func:`inputs.fill_requests`).  The sequence runs
    as :data:`FILL_CHUNKS` consecutive chunks, timed apart.
    """
    rng = random.Random(f"serve-warm:{seed}:fill")
    bodies = fill_requests(rng, plans, REPEAT_SHARE, MALFORMED_SHARE)
    size = -(-len(bodies) // FILL_CHUNKS)
    chunks = []
    for start in range(0, len(bodies), size):
        part = bodies[start : start + size]
        phase = Phase(
            f"fill{len(chunks)}", 0.0, [0.0] * len(part), part,
            [not is_malformed(body) for body in part],
        )
        chunks.append(run_phase(server.address, phase, nproc(), tick))
    return chunks


def new_points(chunks: list[Phase]) -> list[int]:
    """Grid points each fill chunk computed: those of each plan's first request."""
    seen: set[str] = set()
    counts = []
    for chunk in chunks:
        count = 0
        for body, valid in zip(chunk.bodies, chunk.valid, strict=True):
            key = body_key(body)
            if valid and key not in seen:
                seen.add(key)
                count += 1 + len(body["heights"])
        counts.append(count)
    return counts


def service_cpu_s(server: Server, bodies: list[dict[str, Any]]) -> float:
    """Send bodies one after another; the service's CPU seconds for them.

    CPU rather than wall time: on a shared host the wall time of the
    same 400 requests varies by more than the probes cost.
    """
    started = tree_cpu_s(server.proc.pid)
    for body in bodies:
        exchange(server.address, request_bytes(server.address[0], body))
    return tree_cpu_s(server.proc.pid) - started


def probe_passes(phase: Phase) -> bool:
    tail = percentile(phase.latencies_ms(), TAIL_Q)
    return tail <= LIMIT_MS and not phase.backlog_growing(LIMIT_MS)


def search_max_rate(
    args: argparse.Namespace,
    server: Server,
    base: Phase,
    peak: Phase,
    plans: list[dict],
    tick: Any,
) -> tuple[float, list[Phase]]:
    """Highest rate meeting the limit without a growing backlog.

    The base and peak phases are the first probes.  Probes step by 1.5x
    until a pass/fail bracket appears, then split it (geometric mean).
    The answer is the rate where the tail crosses the limit,
    interpolated in log-latency between the bracket's ends (a failing
    probe's tail is capped at 10x the limit), so it varies continuously
    with the program's speed instead of jumping by probe steps.
    """
    results: list[tuple[float, float, bool]] = []

    def record(phase: Phase) -> None:
        tail = percentile(phase.latencies_ms(), TAIL_Q)
        results.append((phase.rate, tail, probe_passes(phase)))

    def bracket() -> tuple[Any, Any]:
        lo = max((r for r in results if r[2]), key=lambda r: r[0], default=None)
        hi = min(
            (r for r in results if not r[2] and (lo is None or r[0] > lo[0])),
            key=lambda r: r[0],
            default=None,
        )
        return lo, hi

    record(base)
    record(peak)
    probes = []
    for index in range(PROBES):
        lo, hi = bracket()
        if hi is None:
            rate = lo[0] * 1.5
        elif lo is None:
            rate = hi[0] / 1.5
        else:
            rate = math.sqrt(lo[0] * hi[0])
        phase = warm_phase(f"probe{index}", rate, PROBE_SHARE * args.seconds, args.seed, plans)
        probes.append(run_phase(server.address, phase, nproc(), tick))
        record(probes[-1])
    lo, hi = bracket()
    if lo is None:
        # Nothing passed: report the bracket below the lowest probe.
        return min(r[0] for r in results) / 1.5, probes
    if hi is None:
        return lo[0], probes
    low = max(lo[1], 1e-3)
    high = min(max(hi[1], LIMIT_MS * 1.0001), 10 * LIMIT_MS)
    share = (math.log(LIMIT_MS) - math.log(low)) / (math.log(high) - math.log(low))
    return lo[0] + (hi[0] - lo[0]) * min(1.0, max(0.0, share)), probes


def offline_documents(run_dir: Path, bodies: list[dict[str, Any]]) -> list[str]:
    """The offline ``run_sweep`` documents of plan requests, in order.

    ``nproc`` offline hosts (``offline_host.py``) each compute every
    ``nproc``-th document.
    """
    shares = nproc()
    procs = []
    for share in range(shares):
        bodies_path = run_dir / f"offline{share}-in.json"
        bodies_path.write_text(json.dumps(bodies[share::shares]), encoding="utf-8")
        out_path = run_dir / f"offline{share}-out.json"
        log = run_dir / f"offline{share}.log"
        with open(log, "wb") as handle:
            proc = start(
                [sys.executable, str(HERE / "offline_host.py"), str(bodies_path), str(out_path)],
                cwd=ROOT, stdin=DEVNULL, stdout=DEVNULL, stderr=handle,
            )
        procs.append((proc, out_path, log))
    documents: list[str] = [""] * len(bodies)
    try:
        for share, (proc, out_path, log) in enumerate(procs):
            if proc.wait() != 0:
                raise BenchError("offline host failed:\n" + log.read_text()[-2000:])
            documents[share::shares] = json.loads(out_path.read_text(encoding="utf-8"))
    finally:
        for proc, _, _ in procs:
            stop(proc)
    return documents


def check_answers(run_dir: Path, phases: list[Phase], plans: list[dict]) -> dict[str, Any]:
    """Failures, malformed handling and byte identity with offline sweeps.

    Every distinct plan's documents must all be identical, and equal to
    the offline ``run_sweep`` document of the same request.
    """
    attempted = failed = malformed = malformed_ok = 0
    documents: dict[str, set[str]] = {}
    envelopes = {"shed": 0, "degraded": 0, "coalesced": 0, "points": 0, "answered": 0}
    for phase in phases:
        answered = zip(phase.bodies, phase.valid, phase.codes, phase.answers, strict=True)
        for body, valid, code, answer in answered:
            if not valid:
                malformed += 1
                malformed_ok += code == 200
                continue
            attempted += 1
            if code == 429:
                envelopes["shed"] += 1
            if code != 200:
                failed += 1
                continue
            envelope, document = document_of(answer)
            envelopes["answered"] += 1
            envelopes["coalesced"] += envelope["coalesced"]
            envelopes["points"] += envelope["cached"] + envelope["computed"]
            if envelope["degraded"]:
                envelopes["degraded"] += 1
                failed += 1
            documents.setdefault(body_key(body), set()).add(document)
    checked = [body for body in plans if body_key(body) in documents]
    references = offline_documents(run_dir, checked)
    wrong = sum(
        documents[body_key(body)] != {reference}
        for body, reference in zip(checked, references, strict=True)
    )
    return {
        "attempted": attempted,
        "failed": failed + wrong,
        "wrong": wrong,
        "checked": len(documents),
        "malformed": malformed,
        "malformed_ok": malformed_ok,
        "envelopes": envelopes,
        "sha256": sha256_of([min(documents[key]) for key in sorted(documents)]),
    }


def serve_warm(args: argparse.Namespace, run_dir: Path) -> dict[str, Any]:
    plans = warm_set(args.seed, FILL_PLANS)
    jobs = nproc()
    if args.trace:
        return serve_traced(args, run_dir, plans, jobs)
    marks = [time.perf_counter()]
    setups = []
    for index in range(SETUP_LAUNCHES - 1):
        server = Server(run_dir, f"setup{index}", jobs)
        setups.append(server.setup_s)
        server.stop()
    server = Server(run_dir, "server", jobs)
    setups.append(server.setup_s)
    speed = HostSpeed(run_dir / "host-speed.txt")
    try:
        marks.append(time.perf_counter())
        tick = server.memory.sample
        # (monotonic clock, program CPU seconds) at the edges of the
        # fill, base and peak windows.
        cpu = [(time.monotonic(), tree_cpu_s(server.proc.pid))]
        filled = cold_fill(server, args.seed, plans, tick)
        cpu.append((time.monotonic(), tree_cpu_s(server.proc.pid)))
        marks.append(time.perf_counter())
        phases = []
        for name, rate, share in (("base", BASE_RPS, BASE_SHARE), ("peak", PEAK_RPS, PEAK_SHARE)):
            phase = warm_phase(name, rate, share * args.seconds, args.seed, plans)
            phases.append(run_phase(server.address, phase, jobs, tick))
            cpu.append((time.monotonic(), tree_cpu_s(server.proc.pid)))
        speed.stop()
        base, peak = phases
        max_rate, probes = search_max_rate(args, server, base, peak, plans, tick)
        status = server.status()
    finally:
        speed.stop()
        server.stop()
    marks.append(time.perf_counter())
    phases = [base, peak, *probes]
    # Lag is judged where the rate is meant to be sustainable; above the
    # knee the program's own load slows the generator's wake-ups, and
    # latency from due time already charges that to the program.
    lag_p99 = percentile([1e3 * lag for phase in (base, peak) for lag in phase.lag], 0.99)
    invalid = []
    if lag_p99 > LAG_LIMIT_SHARE * LIMIT_MS:
        invalid.append(f"generator lag p99 {lag_p99:.2f} ms > {LAG_LIMIT_SHARE * LIMIT_MS} ms")
    if base.backlog_growing(LIMIT_MS):
        invalid.append(f"backlog grew at the base rate {BASE_RPS}/s")
    if invalid:
        raise InvalidRun("; ".join(invalid))
    answers = check_answers(run_dir, [*filled, *phases], plans)
    marks.append(time.perf_counter())

    def served(phase: Phase) -> list[float]:
        return [
            1e3 * (done - due)
            for done, due, code, valid in zip(
                phase.done, phase.due, phase.codes, phase.valid, strict=True
            )
            if valid and code == 200
        ]

    fill_ms = sorted(
        1e3 * (done - sent)
        for chunk in filled
        for done, sent in zip(chunk.done, chunk.sent, strict=True)
    )
    points = new_points(filled)
    fill_s = sum(chunk.wall_s for chunk in filled)
    # Each window's CPU seconds, and its host speed: the reference
    # loop's median CPU time in the same window.
    windows = list(zip(cpu, cpu[1:], strict=False))
    used = [after[1] - before[1] for before, after in windows]
    refs = [speed.reference_s(before[0], after[0]) for before, after in windows]
    reference_s = refs[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": server.memory.peak_mb,
        "cpu_per_point": used[0] / sum(points) / refs[0],
        "cpu.base": used[1] / len(base.bodies) / refs[1],
        "cpu.peak": used[2] / len(peak.bodies) / refs[2],
        "points_per_s": statistics.median(
            count / chunk.wall_s for count, chunk in zip(points, filled, strict=True)
        ),
        "reference_ms": 1e3 * reference_s,
        "cpu_ms_per_point": 1e3 * used[0] / sum(points),
        "cpu_ms.base": 1e3 * used[1] / len(base.bodies),
        "cpu_ms.peak": 1e3 * used[2] / len(peak.bodies),
        "p50_ms.base": percentile(served(base), 0.5),
        "tail_ms.base": percentile(served(base), TAIL_Q),
        "p50_ms.peak": percentile(served(peak), 0.5),
        "tail_ms.peak": percentile(served(peak), TAIL_Q),
        "max_rate_rps": max_rate,
    }
    notes = [
        f"cold fill: {len(fill_ms)} requests ({sum(points)} new points, "
        f"{answers['malformed']} malformed) in {FILL_CHUNKS} chunks, {fill_s:.3f} s over "
        f"{jobs} connections; request p50 {percentile(fill_ms, 0.5):.1f} ms, "
        f"max {fill_ms[-1]:.1f} ms",
        f"base {BASE_RPS}/s: {len(served(base))} answered; peak {PEAK_RPS}/s: "
        f"{len(served(peak))} answered; probes "
        + ", ".join(
            f"{p.rate:.1f}/s {'pass' if probe_passes(p) else 'fail'} (n={len(p.bodies)})"
            for p in probes
        ),
        f"tail p{round(100 * TAIL_Q)}, limit {LIMIT_MS} ms; generator lag p99 "
        f"{lag_p99:.3f} ms at base and peak; breaker trips {status['breaker']['trips']}; jobs={jobs}",
        f"malformed requests answered 200: {answers['malformed_ok']}",
        f"failed_ratio {answers['failed'] / max(1, answers['attempted']):.6f} "
        f"({answers['failed']} of {answers['attempted']} valid requests)",
        f"documents checked against offline run_sweep: {answers['checked']}, "
        f"wrong: {answers['wrong']}",
        f"documents_sha256 {answers['sha256']} ({answers['checked']} distinct documents)",
        "host seconds: launches {:.1f}, fill {:.1f}, phases {:.1f}, checks {:.1f}".format(
            *(b - a for a, b in zip(marks, marks[1:], strict=False))
        ),
    ]
    return {
        "metrics": metrics,
        "attempted": answers["attempted"],
        "failed": answers["failed"],
        "correct": answers["wrong"] == 0 and answers["malformed_ok"] == 0,
        "notes": notes,
    }


def serve_traced(
    args: argparse.Namespace, run_dir: Path, plans: list[dict], jobs: int
) -> dict[str, Any]:
    """Per-layer numbers from a service with span probes installed.

    A fixed list of warm requests is answered sequentially by an
    untraced service and then by a traced one (after the same fill);
    the wall ratio is the probes' overhead.  Layer metrics come from
    the traced service's fill (the cold path) and its base and peak
    phases (the warm path).
    """
    trace_dir = run_dir / "spans"
    rng = random.Random(f"serve-warm:{args.seed}:overhead")
    pick = zipf_picker(rng, len(plans))
    probe = [plans[pick()] for _ in range(400)]
    plain = Server(run_dir, "plain", jobs)
    try:
        cold_fill(plain, args.seed, plans)
        untraced_s = service_cpu_s(plain, probe)
    finally:
        plain.stop()
    server = Server(run_dir, "traced", jobs, traced_dir=trace_dir)
    try:
        fill_start = time.perf_counter()
        filled = cold_fill(server, args.seed, plans)
        fill_end = time.perf_counter()
        traced_s = service_cpu_s(server, probe)
        since = time.perf_counter()
        phases = [
            run_phase(
                server.address,
                warm_phase(name, rate, 0.3 * args.seconds, args.seed, plans),
                jobs,
            )
            for name, rate in (("base", BASE_RPS), ("peak", PEAK_RPS))
        ]
        status = server.status()
    finally:
        server.stop()
    spans, counts = load_dumps(trace_dir)
    cold, _ = layer_metrics(spans, counts, fill_start)
    warm, _ = layer_metrics([s for s in spans if s["start"] >= since], counts, since)
    answers = check_answers(run_dir, [*filled, *phases], plans)
    client_ms = [
        1e3 * (done - sent)
        for phase in phases
        for done, sent, code in zip(phase.done, phase.sent, phase.codes, strict=True)
        if code == 200
    ]
    busy_s = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "sweep.run_attempt" and fill_start <= s["start"] < fill_end
    )
    env = answers["envelopes"]
    metrics = dict(cold)
    for name in ("cache.get_ms.p50", "cache.hit_ratio", "serve.handle_ms.p50"):
        metrics[name] = warm[name]
    metrics.update(
        {
            "serve.transport_ms.p50": max(
                0.0, percentile(client_ms, 0.5) - warm["serve.handle_ms.p50"]
            ),
            "serve.pool_busy_ratio": busy_s / (jobs * (fill_end - fill_start)),
            "serve.shed_ratio": env["shed"] / max(1, answers["attempted"]),
            "serve.coalesced_ratio": env["coalesced"] / max(1, env["points"]),
            "serve.degraded_ratio": env["degraded"] / max(1, env["answered"]),
            "serve.breaker_trips": float(status["breaker"]["trips"]),
            "loadgen.lag_p99_ms": percentile(
                [1e3 * lag for phase in phases for lag in phase.lag], 0.99
            ),
            "bench.trace_overhead_ratio": traced_s / untraced_s,
        }
    )
    notes = [
        "cold-path layers (sweep.*, cache.put_ms.p50, memory3d.*, trace.*, "
        "serve.pool_busy_ratio) are from the fill; cache.get_ms.p50, cache.hit_ratio, "
        "serve.handle_ms.p50 and serve.transport_ms.p50 from the base and peak phases",
        f"overhead probe: {len(probe)} sequential warm requests, service CPU untraced "
        f"{untraced_s:.3f} s, traced {traced_s:.3f} s",
        f"documents_sha256 {answers['sha256']} ({answers['checked']} distinct documents)",
    ]
    return {
        "metrics": metrics,
        "attempted": answers["attempted"],
        "failed": answers["failed"],
        "correct": answers["wrong"] == 0 and answers["malformed_ok"] == 0,
        "notes": notes,
        "spans": spans,
    }


class InvalidRun(RuntimeError):
    """The load generator, not the program, failed to hold the schedule."""


# ------------------------------------------------------------------ main
def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Every process the run starts ends before it does: orphans come
    # back to this process, and a SIGTERM still runs the clean-up below.
    become_subreaper()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    run_dir.mkdir()
    try:
        if args.workload == "sweep-paper":
            outcome = sweep_paper(args, run_dir)
        else:
            outcome = serve_warm(args, run_dir)
        spans = outcome.pop("spans", None)
        if spans:
            trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
            write_chrome_trace(spans, trace_path, {"workload": args.workload, "seed": args.seed})
            outcome["notes"].append(f"trace written to {trace_path.relative_to(ROOT)}")
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        end_descendants()
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, (unit, _, _) in LAYER_TARGETS.items()}
    else:
        units = E2E_UNITS
    # A layer that does no work on this workload reports 0.
    metrics = {
        name: {"value": float(outcome["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for note in outcome["notes"]:
        print(note)
    if not args.trace:
        for name, unit in OBSERVED_UNITS.items():
            value = outcome["metrics"][name]
            print(f"{name:32s} {value:14.6g} {unit}  (observed, not bounded)")
    for name, entry in metrics.items():
        target = ""
        if args.trace and LAYER_TARGETS[name][1]:
            _, moves, workload = LAYER_TARGETS[name]
            target = f"  (should move {moves} on {workload})"
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}{target}")
    print(
        json.dumps(
            {
                "correct": bool(outcome["correct"]),
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

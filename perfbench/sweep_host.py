"""The sweep workload's program process: a library caller of ``run_sweep``.

Usage::

    python sweep_host.py PLAN.json OUT.json SECONDS JOBS [--ready-only]
    python sweep_host.py PLAN.json OUT.json SECONDS 1 --traced TRACE_DIR

It imports the program, builds and validates every grid of the plan,
prints ``ready`` (the end of set-up), then runs whole config variants
(two ``run_sweep`` calls each) until ``SECONDS`` have passed, with no
cache.  Every call's wall time, CPU time (this process and its pool
workers) and result document go to ``OUT.json``.

With ``--traced`` both passes run inline (``jobs=1``): an untraced pass
over about 40% of the time, then the same calls again with the span
probes installed, so the traced/untraced wall ratio is the probes' own
overhead.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any


def cpu_s() -> float:
    """CPU seconds of this process plus its pool workers (waited for at
    pool exit), at microsecond resolution."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def run_calls(calls: list[dict[str, Any]], grids: list[Any], jobs: int) -> list[dict[str, Any]]:
    from repro.sweep import run_sweep

    out = []
    for call, grid in zip(calls, grids, strict=True):
        cpu = cpu_s()
        started = time.perf_counter()
        result = run_sweep(grid, jobs=jobs)
        wall_s = time.perf_counter() - started
        out.append(
            {
                "variant": call["variant"],
                "whole_blocks": grid.whole_blocks,
                "points": len(result.results),
                "failures": len(result.failures),
                "wall_s": wall_s,
                "cpu_s": cpu_s() - cpu,
                "document": result.to_json(),
            }
        )
    return out


def take_variants(
    calls: list[dict[str, Any]], grids: list[Any], seconds: float, jobs: int
) -> list[dict[str, Any]]:
    """Run whole variants from the front until ``seconds`` have passed."""
    started = time.perf_counter()
    done: list[dict[str, Any]] = []
    index = 0
    while index < len(calls) and (not done or time.perf_counter() - started < seconds):
        variant = calls[index]["variant"]
        end = index
        while end < len(calls) and calls[end]["variant"] == variant:
            end += 1
        done.extend(run_calls(calls[index:end], grids[index:end], jobs))
        index = end
    return done


def main() -> int:
    plan_path, out_path, seconds, jobs = sys.argv[1:5]
    flags = sys.argv[5:]
    from repro.core.config import SystemConfig
    from repro.sweep import grid_from_dict, validate_grid

    calls = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    grids = [grid_from_dict(call["grid"]) for call in calls]
    base = SystemConfig()
    for grid in grids:
        validate_grid(grid, base)
    print("ready", flush=True)
    if "--ready-only" in flags:
        return 0

    report: dict[str, Any] = {}
    if "--traced" in flags:
        from probes import install
        from tracing import Recorder

        untraced = take_variants(calls, grids, 0.4 * float(seconds), 1)
        recorder = Recorder(flags[flags.index("--traced") + 1])
        install(recorder)
        traced = run_calls(calls[: len(untraced)], grids[: len(untraced)], 1)
        recorder.uninstall()
        recorder.dump("host.json")
        report["untraced_wall_s"] = sum(call["wall_s"] for call in untraced)
        report["traced_wall_s"] = sum(call["wall_s"] for call in traced)
        report["calls"] = traced
    else:
        report["calls"] = take_variants(calls, grids, float(seconds), int(jobs))
    Path(out_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

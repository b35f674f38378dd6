"""Seeded workload inputs: sweep grids, plan request bodies, arrival times.

Everything here is a pure function of the seed.  The program under test
sees only what these functions return: grid specs for the sweep and
JSON request bodies for the service.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Any

#: The paper's design space: sizes, and DDL heights (``None`` is Eq. (1)).
PAPER_SIZES = (1024, 2048, 4096)
PAPER_HEIGHTS = (None, 4, 8, 16, 32)

#: Default timing parameters (ns) the seeded variants perturb.
_TIMING = {"t_in_row": 1.6, "t_in_vault": 4.8, "t_diff_bank": 10.0, "t_diff_row": 20.0}

#: Non-power-of-two sizes: accepted by the request parser, rejected by
#: the worker.
MALFORMED_SIZES = (3, 6, 12, 100, 300, 384)


def timing_overrides(rng: random.Random) -> dict[str, Any]:
    """A seeded timing variant within +-20% of the defaults.

    The ranges cannot overlap, so ``t_in_row <= t_in_vault <=
    t_diff_bank <= t_diff_row`` always holds.
    """
    timing = {
        name: round(value * rng.uniform(0.8, 1.25), 3)
        for name, value in _TIMING.items()
    }
    return {"memory": {"timing": timing}}


def sweep_plan(seed: int, variants: int) -> list[dict[str, Any]]:
    """The sweep calls of ``sweep-paper``, in order.

    One call is one ``run_sweep`` over one config variant and one
    ``whole_blocks`` value: every paper size, the row-major baseline
    plus the DDL at every paper height (18 points).  A run executes
    whole variants (two calls each) from the front.
    """
    rng = random.Random(f"sweep-paper:{seed}")
    calls = []
    for index in range(variants):
        variant = {"label": f"v{seed}-{index}", "overrides": timing_overrides(rng)}
        for whole_blocks in (True, False):
            calls.append(
                {
                    "variant": index,
                    "grid": {
                        "sizes": list(PAPER_SIZES),
                        "layouts": ["row-major", "ddl"],
                        "heights": list(PAPER_HEIGHTS),
                        "whole_blocks": whole_blocks,
                        "configs": [variant],
                    },
                }
            )
    return calls


#: Shapes of new small plans: (n, DDL heights, whole_blocks).  With
#: the row-major baseline a plan has 2 or 3 points.
SMALL_SHAPES = tuple(
    (n, heights, whole_blocks)
    for n in (256, 512)
    for whole_blocks in (True, False)
    for count in (1, 2)
    for heights in itertools.combinations(PAPER_HEIGHTS, count)
)


def small_plan(
    rng: random.Random, label: str, shape: tuple[int, tuple[int | None, ...], bool]
) -> dict[str, Any]:
    """One new small plan request of a given shape, seeded overrides."""
    n, heights, whole_blocks = shape
    return {
        "n": n,
        "layouts": ["row-major", "ddl"],
        "heights": list(heights),
        "whole_blocks": whole_blocks,
        "label": label,
        "overrides": timing_overrides(rng),
    }


def malformed_plan(rng: random.Random) -> dict[str, Any]:
    """A non-power-of-two size with a single layout (never a valid plan)."""
    return {"n": rng.choice(MALFORMED_SIZES), "layouts": [rng.choice(("row-major", "ddl"))]}


def arrivals(rng: random.Random, rate: float, duration_s: float) -> list[float]:
    """Poisson arrival offsets (seconds) at ``rate`` per second."""
    times = []
    t = rng.expovariate(rate)
    while t < duration_s:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def fill_requests(
    rng: random.Random,
    plans: list[dict[str, Any]],
    repeat_share: float,
    malformed_share: float,
) -> list[dict[str, Any]]:
    """The cache-fill sequence: every plan once, plus repeats and malformed.

    A repeat follows its original directly, so with two or more
    connections it is sent while the original is still being computed
    (the coalescing path).  The numbers of repeats and malformed bodies
    are fixed shares of the plan count, at seeded positions.
    """
    count = len(plans)
    positions = list(range(count))
    rng.shuffle(positions)
    n_repeats = round(repeat_share * count)
    n_malformed = round(malformed_share * count)
    repeats = set(positions[:n_repeats])
    malformed = set(positions[n_repeats : n_repeats + n_malformed])
    bodies: list[dict[str, Any]] = []
    for index, plan in enumerate(plans):
        if index in malformed:
            bodies.append(malformed_plan(rng))
        bodies.append(plan)
        if index in repeats:
            bodies.append(dict(plan))
    return bodies


def warm_set(seed: int, size: int) -> list[dict[str, Any]]:
    """The fixed set of new small plans ``serve-warm`` fills the cache with.

    Every seed has the same shapes, each of :data:`SMALL_SHAPES` the
    same number of times (``size`` is a multiple of their count), so the
    work a fill does is the same; the seed picks the order, the labels
    and the timing overrides, so every key is new.
    """
    if size % len(SMALL_SHAPES):
        raise ValueError(f"size {size} is not a multiple of {len(SMALL_SHAPES)} shapes")
    rng = random.Random(f"serve-warm-set:{seed}")
    shapes = list(SMALL_SHAPES) * (size // len(SMALL_SHAPES))
    rng.shuffle(shapes)
    return [small_plan(rng, f"w{seed}-{index}", shape) for index, shape in enumerate(shapes)]


def zipf_picker(rng: random.Random, size: int, exponent: float = 1.1) -> Any:
    """A sampler of ranks ``0..size-1`` with Zipf popularity."""
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(size)))
    total = weights[-1]
    return lambda: bisect.bisect_left(weights, rng.random() * total)


def is_malformed(body: dict[str, Any]) -> bool:
    """Whether a body is one of the deliberately malformed requests."""
    n = body["n"]
    return n & (n - 1) != 0

"""Property suites pinning the tracing subsystem's two standing invariants.

* Latency histograms (with exemplars) merge associatively and
  order-independently -- cross-worker/shard aggregation must not depend
  on arrival order.
* Trace-context injection is *observationally free*: attaching
  the ``telemetry`` member to a worker task never changes the
  result document's bytes or the point's cache key.

Seeded and deterministic (``derandomize=True``) with capped
``max_examples``; marked ``property`` (``-m property``).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.obs.histogram import SERVE_LATENCY_BOUNDS, observe_latency
from repro.obs.metrics import MetricsRegistry, pick_exemplar
from repro.obs.telemetry import task_telemetry
from repro.obs.tracectx import TraceContext
from repro.serialization import system_to_dict
from repro.sweep import ResultCache
from repro.sweep.runner import _execute_task

pytestmark = pytest.mark.property

MAX_EXAMPLES = 60

observations = st.lists(
    st.tuples(
        st.floats(min_value=1e-4, max_value=20.0,
                  allow_nan=False, allow_infinity=False),
        st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
    ),
    min_size=1,
    max_size=40,
)


def _assert_snapshots_equivalent(left, right):
    """Exact equality except ``sum``/``mean``, compared within ulps.

    Float addition is not associative, so regrouping observations into
    shards may shift a histogram's running ``sum`` (and the derived
    ``mean``) by an ulp; every discrete field (counts, buckets,
    exemplars) must match exactly.
    """
    import math

    assert set(left) == set(right)
    for name, entry in left.items():
        other = right[name]
        for field in set(entry) | set(other):
            if field in ("sum", "mean"):
                assert math.isclose(
                    entry[field], other[field], rel_tol=1e-9, abs_tol=1e-12
                ), (name, field, entry[field], other[field])
            else:
                assert entry[field] == other[field], (name, field)


def _shard_snapshots(obs, cut_points):
    """Observe ``obs`` split into shards; return each shard's snapshot."""
    cuts = sorted({min(c, len(obs)) for c in cut_points})
    shards = []
    start = 0
    for cut in [*cuts, len(obs)]:
        chunk = obs[start:cut]
        start = cut
        if not chunk:
            continue
        registry = MetricsRegistry()
        for seconds, label in chunk:
            observe_latency(
                registry, "serve.request_s", seconds,
                SERVE_LATENCY_BOUNDS, exemplar=label,
            )
        shards.append(registry.as_dict())
    return shards


class TestHistogramMergeProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True)
    @given(
        obs=observations,
        cut_points=st.lists(st.integers(0, 40), max_size=4),
        order_seed=st.integers(0, 2**16),
    )
    def test_merge_is_order_independent(self, obs, cut_points, order_seed):
        import random

        shards = _shard_snapshots(obs, cut_points)
        forward = MetricsRegistry()
        for shard in shards:
            forward.merge_snapshot(shard)
        shuffled = list(shards)
        random.Random(order_seed).shuffle(shuffled)
        backward = MetricsRegistry()
        for shard in shuffled:
            backward.merge_snapshot(shard)
        _assert_snapshots_equivalent(forward.as_dict(), backward.as_dict())

    @settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True)
    @given(obs=observations, cut_points=st.lists(st.integers(0, 40), max_size=4))
    def test_sharded_merge_equals_single_registry(self, obs, cut_points):
        single = MetricsRegistry()
        for seconds, label in obs:
            observe_latency(
                single, "serve.request_s", seconds,
                SERVE_LATENCY_BOUNDS, exemplar=label,
            )
        merged = MetricsRegistry()
        for shard in _shard_snapshots(obs, cut_points):
            merged.merge_snapshot(shard)
        _assert_snapshots_equivalent(merged.as_dict(), single.as_dict())

    @settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True)
    @given(
        a=st.tuples(st.floats(0.0, 10.0, allow_nan=False),
                    st.text("abcdef", min_size=1, max_size=6)),
        b=st.tuples(st.floats(0.0, 10.0, allow_nan=False),
                    st.text("abcdef", min_size=1, max_size=6)),
    )
    def test_pick_exemplar_is_commutative(self, a, b):
        assert pick_exemplar(a, b) == pick_exemplar(b, a)
        # And idempotent: keeping the winner is stable.
        winner = pick_exemplar(a, b)
        assert pick_exemplar(winner, a) == winner
        assert pick_exemplar(winner, b) == winner


#: The identical worker payload with and without a trace attached must
#: price to the identical document; keep the grid tiny so the property
#: suite stays fast.
point_specs = st.fixed_dictionaries(
    {
        "n": st.sampled_from([64, 128, 256]),
        "layout": st.sampled_from(["row-major", "ddl", "column-major"]),
        "height": st.sampled_from([None, 4, 8]),
        "whole_blocks": st.booleans(),
    }
)


class TestTraceInjectionIsFree:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(spec=point_specs, max_requests=st.sampled_from([512, 2048]))
    def test_result_bytes_and_cache_key_unchanged(self, spec, max_requests):
        payload = {
            "point": {**spec, "config_label": "default"},
            "config": system_to_dict(SystemConfig()),
            "max_requests": max_requests,
        }
        key = ResultCache.key_for(payload)
        plain = _execute_task({"index": 0, "key": key, **payload})
        ctx = TraceContext.root("req-000042")
        traced = _execute_task(
            {
                "index": 0,
                "key": key,
                **payload,
                "telemetry": task_telemetry(ctx.trace_id, ctx),
            }
        )
        # The trace context must never influence cache identity...
        assert ResultCache.key_for(payload) == key
        # ...nor a single byte of the result document.
        assert json.dumps(plain["result"], sort_keys=True) == json.dumps(
            traced["result"], sort_keys=True
        )
        assert plain["metrics"] == traced["metrics"]
        # The traced run additionally ships telemetry; the plain one not.
        assert "telemetry" in traced and "telemetry" not in plain

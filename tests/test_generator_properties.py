"""The DDL read generator is array arithmetic equal to the visit loop.

:func:`~repro.trace.generators.block_column_read_trace` computes every
visit's burst start with array arithmetic and builds only the requested
prefix.  These properties hold it to a plain loop oracle, kept here, that
walks each stream's block column visit by visit and merges the streams
round-robin: with ``limit=k`` the generator equals the oracle's first
``k`` requests for random geometries, offset block-column ranges,
fewer streams than columns and both ``whole_blocks`` modes.  Seeded and
deterministic (``derandomize=True``) with capped ``max_examples``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError, TraceError
from repro.layouts import BlockDDLLayout
from repro.trace import block_column_read_trace, block_write_trace

pytestmark = pytest.mark.property

MAX_EXAMPLES = 60


def oracle_read(layout, n_streams, whole_blocks, block_cols):
    """The visit loop: each stream walks its block column, merged by visit."""
    height = layout.height
    per_visit = layout.block_elements if whole_blocks else height
    streams = []
    for block_c in list(block_cols)[:n_streams]:
        visits = []
        if whole_blocks:
            for block_r in range(layout.n_block_rows):
                visits.append(layout.block_base_address(block_r, block_c))
        else:
            for local_col in range(layout.width):
                for block_r in range(layout.n_block_rows):
                    base = layout.block_base_address(block_r, block_c)
                    visits.append(base + local_col * height * 8)
        streams.append(visits)
    addresses = []
    for index in range(len(streams[0]) if streams else 0):
        for visits in streams:
            addresses.extend(visits[index] + 8 * e for e in range(per_visit))
    return np.array(addresses, dtype=np.int64)


@st.composite
def read_cases(draw):
    width = draw(st.sampled_from([1, 2, 4, 8]))
    height = draw(st.sampled_from([1, 2, 4, 8]))
    n_rows = height * draw(st.integers(1, 6))
    n_cols = width * draw(st.integers(1, 8))
    base = 8 * draw(st.integers(0, 64))
    layout = BlockDDLLayout(n_rows, n_cols, width, height, base=base)
    first = draw(st.integers(0, layout.blocks_per_row_band - 1))
    stop = draw(st.integers(first, layout.blocks_per_row_band))
    n_streams = draw(st.integers(1, layout.blocks_per_row_band + 2))
    whole_blocks = draw(st.booleans())
    return layout, n_streams, whole_blocks, range(first, stop)


@settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True)
@given(case=read_cases(), cut=st.floats(0.0, 1.5))
def test_limit_is_a_prefix_of_the_visit_loop(case, cut):
    layout, n_streams, whole_blocks, block_cols = case
    expected = oracle_read(layout, n_streams, whole_blocks, block_cols)
    limit = int(cut * len(expected))
    for k in (None, 0, limit, len(expected), len(expected) + 7):
        trace = block_column_read_trace(
            layout, n_streams, whole_blocks=whole_blocks,
            block_cols=block_cols, limit=k,
        )
        want = expected if k is None else expected[:k]
        assert np.array_equal(trace.addresses, want)
        assert not trace.is_write.any()


@settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True)
@given(case=read_cases(), rows=st.data())
def test_block_write_matches_the_block_loop(case, rows):
    layout = case[0]
    first = rows.draw(st.integers(0, layout.n_block_rows - 1))
    band = range(first, rows.draw(st.integers(first, layout.n_block_rows)))
    expected = [
        layout.block_base_address(block_r, block_c) + 8 * e
        for block_r in band
        for block_c in range(layout.blocks_per_row_band)
        for e in range(layout.block_elements)
    ]
    if band and layout.base % (layout.block_elements * 8):
        with pytest.raises(TraceError):
            block_write_trace(layout, block_rows=band)
        return
    trace = block_write_trace(layout, block_rows=band)
    assert trace.addresses.tolist() == expected
    assert trace.is_write.all()


def test_out_of_range_block_columns_raise():
    layout = BlockDDLLayout(16, 16, width=4, height=4)
    with pytest.raises(LayoutError):
        block_column_read_trace(layout, 2, block_cols=range(3, 5))
    with pytest.raises(LayoutError):
        block_column_read_trace(layout, 2, block_cols=[-1, 0], limit=1)
    with pytest.raises(LayoutError):
        block_write_trace(layout, block_rows=range(4, 5))
    # Columns past the first n_streams are never read, so never checked.
    assert len(block_column_read_trace(layout, 1, block_cols=[0, 9])) == 64

"""The heap ChiMerge against the full-rescan loop it replaced, kept in
``chimerge_oracle``, on generated tie-heavy columns."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

import chimerge_oracle
from rredux import chimerge


@st.composite
def tie_heavy_columns(draw):
    """1-40 values drawn from 1-8 distinct half-integers, 1-4 classes, so
    equal statistics (zeros above all) are common."""
    pool = draw(st.lists(st.integers(-4, 12), min_size=1, max_size=8, unique=True))
    n = draw(st.integers(1, 40))
    values = draw(st.lists(st.sampled_from([p / 2 for p in pool]), min_size=n, max_size=n))
    classes = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    return values, [f"c{c}" for c in labels]


@settings(max_examples=500, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(column=tie_heavy_columns(),
       threshold=st.sampled_from([None, 0, 1, 3.84, 100]),
       cap=st.integers(1, 8))
def test_heap_merge_matches_full_rescan(column, threshold, cap):
    values, labels = column
    got = chimerge(values, labels, threshold, cap, attr="a")
    want = chimerge_oracle.chimerge(values, labels, threshold, cap, attr="a")
    assert got.cut_points == want.cut_points
    assert got.labels == want.labels

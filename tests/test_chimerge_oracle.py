"""The heap ChiMerge against the full-rescan loop it replaced, kept in
``chimerge_oracle``, on generated tie-heavy columns; ChiMerge's labels,
which state their cuts exactly; and the labels an ``IntervalMap`` derives
from its cuts."""

import math
from bisect import bisect_right

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

import chimerge_oracle
from rredux import IntervalMap, chimerge
from rredux.discretize import _interval_labels
from conftest import raw_column


@st.composite
def value_pools(draw):
    """1-8 distinct values: half-integers; or a run from a random start or
    from near +-1.7e308, each value 1-3 ulps above the last, so a midpoint
    can round onto its lower neighbour; or values near +-1.7e308, where the
    sum of two neighbours overflows."""
    kind = draw(st.sampled_from(["half", "ulps", "huge"]))
    if kind == "half":
        pool = draw(st.lists(st.integers(-4, 12), min_size=1, max_size=8, unique=True))
        return [p / 2 for p in pool]
    if kind == "huge":
        sign = draw(st.sampled_from([1.0, -1.0]))
        return draw(st.lists(st.floats(1.5e308, 1.79e308).map(sign.__mul__),
                             min_size=1, max_size=8, unique=True))
    value = draw(st.floats(-1e15, 1e15) | st.sampled_from([1.7e308, -1.7e308]))
    pool = [value]
    for _ in range(draw(st.integers(0, 7))):
        for _ in range(draw(st.integers(1, 3))):
            value = math.nextafter(value, math.inf)
        pool.append(value)
    return pool


@st.composite
def tie_heavy_columns(draw):
    """1-40 values drawn from a pool of 1-8 distinct ones, 1-4 classes, so
    equal statistics (zeros above all) are common."""
    pool = draw(value_pools())
    n = draw(st.integers(1, 40))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    classes = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    return values, [f"c{c}" for c in labels]


def _merged_then(lows, top, above):
    """Three rows of each of ``lows`` and ``top`` in one class, then three of
    ``above`` in another: at threshold 3.84 the first class merges into one
    interval whose top value is ``top``, and the cut falls below ``above``."""
    values = [v for v in (*lows, top, above) for _ in range(3)]
    return values, ["a"] * (len(values) - 3) + ["b"] * 3


_TWO_ULPS_ABOVE_2 = math.nextafter(math.nextafter(2.0, 3), 3)


@settings(max_examples=500, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
# a merged interval that ends one ulp below the next value
@example(column=_merged_then((1.0, 1.5), math.nextafter(2.0, 3), _TWO_ULPS_ABOVE_2),
         threshold=3.84, cap=6)
# a pair whose sum is near the largest float, 1.797e308
@example(column=_merged_then((8.0e307,), 8.9e307, 8.98e307), threshold=3.84, cap=6)
# the midpoint of 2.0 and the next float rounds onto 2.0: the cut is the upper value
@example(column=_merged_then((1.0, 1.5), 2.0, 2.0000000000000004), threshold=3.84, cap=6)
# the midpoint of 1.7e308 and 1.79e308 overflows: the cut is the upper value
@example(column=_merged_then((1.6e308,), 1.7e308, 1.79e308), threshold=3.84, cap=6)
@given(column=tie_heavy_columns(),
       threshold=st.sampled_from([None, 0, 1, 3.84, 100]),
       cap=st.integers(1, 8))
def test_heap_merge_matches_full_rescan(column, threshold, cap):
    values, labels = column
    got = chimerge(values, labels, threshold, cap)
    want = chimerge_oracle.chimerge(values, labels, threshold, cap)
    assert got.cut_points == want.cut_points
    assert got.labels == want.labels


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(column=tie_heavy_columns(),
       threshold=st.sampled_from([None, 0, 1, 3.84, 100]),
       cap=st.integers(1, 8))
def test_class_texts_and_their_codes_give_one_map(column, threshold, cap):
    values, labels = column
    codes = raw_column("d", labels).codes
    assert chimerge(values, codes, threshold, cap) == chimerge(values, labels, threshold, cap)


@st.composite
def close_values(draw):
    """2-9 ascending values from a random start, each one to three ulps or
    a decimal step above the last, so some cuts round under "g"."""
    values = [draw(st.floats(-1e15, 1e15))]
    for _ in range(draw(st.integers(1, 8))):
        step = draw(st.sampled_from([0, 0, 1e-7, 0.1, 1000.3]))
        nudged = values[-1]
        for _ in range(draw(st.integers(1, 3))):
            nudged = math.nextafter(nudged, math.inf)
        values.append(max(nudged, values[-1] + step))
    return values


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(values=close_values())
def test_every_label_bound_reads_back_as_its_cut(values):
    # alternating classes and threshold 0 keep every value its own interval
    classes = [("a", "b")[i % 2] for i in range(len(values))]
    imap = chimerge(values, classes, threshold=0, max_intervals=len(values))
    bounds = [label[1:-1].split(", ") for label in imap.labels]
    assert bounds[0][0] == "-inf" and bounds[-1][1] == "inf"
    assert [float(hi) for _, hi in bounds[:-1]] == list(imap.cut_points)
    assert [float(lo) for lo, _ in bounds[1:]] == list(imap.cut_points)
    assert len(set(imap.labels)) == len(imap.labels) == len(values)


@st.composite
def increasing_cuts(draw):
    """0-8 strictly increasing finite cuts: whole numbers; a run one ulp
    apart from a random start or from near +-1.7e308; or any finite floats."""
    kind = draw(st.sampled_from(["whole", "ulps", "any"]))
    if kind == "whole":
        return sorted(draw(st.lists(st.integers(-2**60, 2**60).map(float),
                                    max_size=8, unique=True)))
    if kind == "ulps":
        value = draw(st.floats(-1e15, 1e15) | st.sampled_from([1.7e308, -1.7e308]))
        cuts = [value]
        for _ in range(draw(st.integers(0, 7))):
            value = math.nextafter(value, math.inf)
            cuts.append(value)
        return cuts
    return sorted(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                max_size=8, unique=True)))


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@example(cuts=[-1.7e308, math.nextafter(-1.7e308, math.inf), 0.0, 1.0, 1.7e308])
@given(cuts=increasing_cuts())
def test_labels_derive_from_the_cuts(cuts):
    imap = IntervalMap(tuple(cuts))
    assert imap.labels == _interval_labels(cuts)
    assert len(set(imap.labels)) == len(imap.labels) == len(cuts) + 1
    for cut in cuts:
        for v in (math.nextafter(cut, -math.inf), cut, math.nextafter(cut, math.inf)):
            assert imap.label_of(v) == imap.labels[bisect_right(cuts, v)]
    if cuts:
        with pytest.raises(ValueError, match="strictly increasing"):
            IntervalMap((*cuts, cuts[-1]))
    if len(cuts) > 1:
        with pytest.raises(ValueError, match="strictly increasing"):
            IntervalMap(tuple(reversed(cuts)))

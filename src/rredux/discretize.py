"""ChiMerge discretization of numeric columns.

Each numeric column starts as one interval per distinct value.  Adjacent
intervals whose class distributions look alike (low chi-square) are
merged bottom-up until every remaining adjacent pair differs
significantly and the interval count fits under the cap (Kerber 1992,
*ChiMerge*).  Cut points land midway between neighbouring observed
values, and intervals are half-open, lower-inclusive.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import namedtuple
from typing import Hashable, Sequence

from .errors import ValidationError
from .table import RawColumn
from .table import from_columns  # not called here; perfbench/tracer.py rebinds it by name

DEFAULT_MAX_INTERVALS = 6
# chi2.ppf(0.95, df) for df 1..30, the repr of scipy.stats' own floats, so
# the default threshold needs scipy only beyond this table
CRITICAL_95 = {
    1: 3.841458820694124,
    2: 5.991464547107979,
    3: 7.814727903251179,
    4: 9.487729036781154,
    5: 11.070497693516351,
    6: 12.591587243743977,
    7: 14.067140449340169,
    8: 15.50731305586545,
    9: 16.918977604620448,
    10: 18.307038053275146,
    11: 19.67513757268249,
    12: 21.02606981748307,
    13: 22.362032494826934,
    14: 23.684791304840576,
    15: 24.995790139728616,
    16: 26.29622760486423,
    17: 27.58711163827534,
    18: 28.869299430392623,
    19: 30.14352720564616,
    20: 31.410432844230918,
    21: 32.670573340917315,
    22: 33.92443847144381,
    23: 35.17246162690806,
    24: 36.41502850180731,
    25: 37.65248413348277,
    26: 38.885138659830055,
    27: 40.113272069413625,
    28: 41.33713815142739,
    29: 42.55696780429269,
    30: 43.77297182574219,
}


class IntervalMap(namedtuple("IntervalMap", "cut_points labels")):
    """Discretization of one attribute into labelled intervals.

    ``cut_points`` are strictly increasing; interval ``i`` covers
    ``[cut_points[i-1], cut_points[i])`` with open ends at the extremes,
    so every real value maps to exactly one of the derived ``labels``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(next(iter(fields))))  # for ``_replace``

    def __new__(cls, cut_points: tuple[float, ...]):
        for lo, hi in zip(cut_points, cut_points[1:]):
            if not lo < hi:
                raise ValueError("cut points must be strictly increasing")
        return super().__new__(cls, cut_points, _interval_labels(cut_points))

    def __getnewargs__(self):  # copy and pickle pass back the cuts alone
        return (self.cut_points,)

    def interval_of(self, value: float) -> int:
        return bisect_right(self.cut_points, value)

    def label_of(self, value: float) -> str:
        return self.labels[self.interval_of(value)]


def chi_square(left_counts: Sequence[int], right_counts: Sequence[int]) -> float:
    """Chi-square statistic of a 2-row contingency table.

    Expected counts are row_total * class_total / N.  A zero expected
    count only ever pairs with a zero observed count, so it is replaced
    by 0.1 in the divisor alone; identical distributions score exactly 0.
    The vectors have one entry per class and a positive total, as
    ``chimerge`` builds them.
    """
    class_totals = [a + b for a, b in zip(left_counts, right_counts)]
    total = sum(class_totals)
    statistic = 0.0
    for row in (left_counts, right_counts):
        row_total = sum(row)
        for observed, class_total in zip(row, class_totals):
            expected = row_total * class_total / total
            statistic += (observed - expected) ** 2 / (expected if expected > 0 else 0.1)
    return statistic


def default_threshold(n_classes: int) -> float:
    """Chi-square critical value at 0.95 significance with n_classes-1 df.

    Degrees of freedom are clamped to 1 so a single-class column still
    gets a usable threshold (its pair statistics are all zero anyway).
    Values outside ``CRITICAL_95`` come from ``scipy.stats``, imported
    here; without scipy they raise ``ImportError``.
    """
    df = max(n_classes - 1, 1)
    if df in CRITICAL_95:
        return CRITICAL_95[df]
    try:
        from scipy.stats import chi2
    except ImportError:
        raise ImportError(
            f"the chi-square critical value for {df} degrees of freedom needs scipy"
        ) from None
    return float(chi2.ppf(0.95, df))


def _interval_labels(cut_points: Sequence[float]) -> tuple[str, ...]:
    """One label per interval, each bound its cut exactly.

    A bound prints with ``"g"`` (six significant digits) when that text
    reads back as the cut, and as the cut's ``repr`` otherwise.  Distinct
    cuts therefore print differently, and so do the intervals' labels.
    """
    if not cut_points:
        return ("(-inf, inf)",)
    bounds = [format(c, "g") for c in cut_points]
    bounds = [b if float(b) == c else repr(c) for b, c in zip(bounds, cut_points)]
    labels = [f"(-inf, {bounds[0]})"]
    labels += [f"[{lo}, {hi})" for lo, hi in zip(bounds, bounds[1:])]
    labels.append(f"[{bounds[-1]}, inf)")
    return tuple(labels)


def chimerge(
    values: Sequence[float],
    labels: Sequence[Hashable],
    threshold: float | None = None,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
) -> IntervalMap:
    """Merge per-value intervals bottom-up by minimal chi-square.

    Merging continues while the smallest adjacent statistic is below
    ``threshold`` or the interval count still exceeds ``max_intervals``;
    ties merge the leftmost pair.  ``threshold`` defaults to the critical
    value for the label arity at 0.95 significance.  A heap of (statistic,
    interval) with lazy invalidation finds that pair, and a merge
    recomputes only the two statistics beside it.
    """
    if len(values) != len(labels):
        raise ValueError("values and labels must have the same length")
    if not values:
        raise ValueError("cannot discretize an empty column")
    if max_intervals < 1:
        raise ValueError("max_intervals must be at least 1")
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"non-finite value {v!r} in numeric column")

    classes = {lab: c for c, lab in enumerate(dict.fromkeys(labels))}
    if threshold is None:
        threshold = default_threshold(len(classes))
    if not threshold >= 0:  # NaN too: no statistic is below it
        raise ValueError("threshold must be non-negative")

    # one interval per distinct value, ascending, named by the index of its
    # lowest value; merging keeps the left name, so names order intervals,
    # and interval i holds the values low[i] <= v < low[after[i]]
    grouped: dict[float, list[int]] = {}
    for v, lab in zip(values, labels):
        grouped.setdefault(v, [0] * len(classes))[classes[lab]] += 1
    low = sorted(grouped)
    counts = [grouped[v] for v in low]
    after: list[int | None] = [*range(1, len(low)), None]
    before: list[int | None] = [None, *range(len(low) - 1)]
    # stat[i]: statistic of interval i and the next one, None if either is gone
    stat: list[float | None] = [
        chi_square(counts[i], counts[i + 1]) for i in range(len(low) - 1)
    ] + [None]
    heap = [(s, i) for i, s in enumerate(stat[:-1])]
    heapq.heapify(heap)
    remaining = len(low)
    while heap:
        s, i = heap[0]
        if stat[i] != s:  # stale: pair i merged or its statistic recomputed
            heapq.heappop(heap)
            continue
        # min (statistic, leftmost) pair, the rule of a full rescan
        if not (s < threshold or remaining > max_intervals):
            break
        heapq.heappop(heap)
        j = after[i]
        counts[i] = [a + b for a, b in zip(counts[i], counts[j])]
        after[i] = k = after[j]
        stat[i] = stat[j] = None
        remaining -= 1
        if k is not None:
            before[k] = i
            stat[i] = chi_square(counts[i], counts[k])
            heapq.heappush(heap, (stat[i], i))
        h = before[i]
        if h is not None:
            stat[h] = chi_square(counts[h], counts[i])
            heapq.heappush(heap, (stat[h], h))

    cuts: list[float] = []
    j = after[0]
    while j is not None:
        # the midpoint of interval j's lowest value and the top value before
        # it, unless rounding (adjacent floats) or overflow puts it outside
        # (low[j - 1], low[j]]; intervals are lower-inclusive, so low[j] will do
        cut = (low[j - 1] + low[j]) / 2
        cuts.append(cut if low[j - 1] < cut <= low[j] else low[j])
        j = after[j]
    return IntervalMap(tuple(cuts))


def discretize_columns(
    columns: Sequence[RawColumn],
    decision_attr: str,
    threshold: float | None = None,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
) -> tuple[list[RawColumn], dict[str, IntervalMap]]:
    """Discretize every numeric column against the decision labels.

    Returns the columns in their given order, all categorical, with each
    numeric column replaced by its interval labels, plus the interval map
    used for each numeric column.  Categorical columns pass through as is.
    Each domain value is labelled once; the labels keep the order of the
    values they first label, and the codes follow them.
    """
    by_name = {c.name: c for c in columns}
    if decision_attr not in by_name:
        raise ValueError(f"decision column {decision_attr!r} not among columns")
    decision = by_name[decision_attr]
    if decision.numeric:
        raise ValueError("decision column must be categorical")

    maps: dict[str, IntervalMap] = {}
    converted: list[RawColumn] = []
    for col in columns:
        if not col.numeric:
            converted.append(col)
            continue
        imap = chimerge(col.cells, decision.codes, threshold, max_intervals)
        maps[col.name] = imap
        labels = list(map(imap.label_of, col.domain))
        index = {label: k for k, label in enumerate(dict.fromkeys(labels))}
        relabel = list(map(index.__getitem__, labels))  # old code -> new code
        codes = tuple(map(relabel.__getitem__, col.codes))
        converted.append(RawColumn(col.name, tuple(index), codes))
    return converted, maps

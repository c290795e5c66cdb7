"""ChiMerge discretization of numeric columns.

Each numeric column starts as one interval per distinct value.  Adjacent
intervals whose class distributions look alike (low chi-square) are
merged bottom-up until every remaining adjacent pair differs
significantly and the interval count fits under the cap.  Cut points land
midway between neighbouring observed values, and intervals are half-open,
lower-inclusive.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Hashable, Sequence

from scipy.stats import chi2

from .errors import ValidationError
from .table import CATEGORICAL, NUMERIC, RawColumn
from .table import from_columns  # not called here; perfbench/tracer.py rebinds it by name

DEFAULT_MAX_INTERVALS = 6
DEFAULT_SIGNIFICANCE = 0.95


@dataclass(frozen=True)
class IntervalMap:
    """Discretization of one attribute into labelled intervals.

    ``cut_points`` are strictly increasing; interval ``i`` covers
    ``[cut_points[i-1], cut_points[i])`` with open ends at the extremes,
    so every real value maps to exactly one of the ``labels``.
    """

    attr: str
    cut_points: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.cut_points) + 1:
            raise ValueError("need exactly one label per interval")
        for lo, hi in zip(self.cut_points, self.cut_points[1:]):
            if not lo < hi:
                raise ValueError("cut points must be strictly increasing")

    def interval_of(self, value: float) -> int:
        return bisect_right(self.cut_points, value)

    def label_of(self, value: float) -> str:
        return self.labels[self.interval_of(value)]


def chi_square(left_counts: Sequence[int], right_counts: Sequence[int]) -> float:
    """Chi-square statistic of a 2-row contingency table.

    Expected counts are row_total * class_total / N.  A zero expected
    count only ever pairs with a zero observed count, so it is replaced
    by 0.1 in the divisor alone; identical distributions score exactly 0.
    """
    if len(left_counts) != len(right_counts):
        raise ValueError("count vectors must have the same class arity")
    if not left_counts:
        raise ValueError("count vectors must be non-empty")
    class_totals = [a + b for a, b in zip(left_counts, right_counts)]
    total = sum(class_totals)
    if total == 0:
        raise ValueError("at least one count must be positive")
    statistic = 0.0
    for row in (left_counts, right_counts):
        row_total = sum(row)
        for observed, class_total in zip(row, class_totals):
            expected = row_total * class_total / total
            statistic += (observed - expected) ** 2 / (expected if expected > 0 else 0.1)
    return statistic


def default_threshold(n_classes: int, significance: float = DEFAULT_SIGNIFICANCE) -> float:
    """Chi-square critical value at ``significance`` with n_classes-1 df.

    Degrees of freedom are clamped to 1 so a single-class column still
    gets a usable threshold (its pair statistics are all zero anyway).
    """
    return float(chi2.ppf(significance, max(n_classes - 1, 1)))


def _format_bound(value: float) -> str:
    return format(value, "g")


def _interval_labels(cut_points: Sequence[float]) -> tuple[str, ...]:
    if not cut_points:
        return ("(-inf, inf)",)
    labels = [f"(-inf, {_format_bound(cut_points[0])})"]
    for lo, hi in zip(cut_points, cut_points[1:]):
        labels.append(f"[{_format_bound(lo)}, {_format_bound(hi)})")
    labels.append(f"[{_format_bound(cut_points[-1])}, inf)")
    return tuple(labels)


def chimerge(
    values: Sequence[float],
    labels: Sequence[Hashable],
    threshold: float | None = None,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
    attr: str = "",
) -> IntervalMap:
    """Merge per-value intervals bottom-up by minimal chi-square.

    Merging continues while the smallest adjacent statistic is below
    ``threshold`` or the interval count still exceeds ``max_intervals``;
    ties merge the leftmost pair.  ``threshold`` defaults to the
    critical value for the label arity at 0.95 significance.
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

    classes: dict[Hashable, int] = {}
    for lab in labels:
        if lab not in classes:
            classes[lab] = len(classes)
    if threshold is None:
        threshold = default_threshold(len(classes))
    if threshold < 0:
        raise ValueError("threshold must be non-negative")

    # one (value, per-class counts) interval per distinct value, ascending
    grouped: dict[float, list[int]] = {}
    for v, lab in zip(values, labels):
        grouped.setdefault(v, [0] * len(classes))[classes[lab]] += 1
    points = sorted(grouped)
    intervals = [(v, v, grouped[v]) for v in points]  # (low, high, counts)

    while len(intervals) > 1:
        stats = [
            chi_square(intervals[i][2], intervals[i + 1][2])
            for i in range(len(intervals) - 1)
        ]
        best = min(range(len(stats)), key=lambda i: (stats[i], i))
        if not (stats[best] < threshold or len(intervals) > max_intervals):
            break
        lo, _, left = intervals[best]
        _, hi, right = intervals[best + 1]
        merged = (lo, hi, [a + b for a, b in zip(left, right)])
        intervals[best : best + 2] = [merged]

    cuts = tuple(
        (intervals[i][1] + intervals[i + 1][0]) / 2 for i in range(len(intervals) - 1)
    )
    return IntervalMap(attr, cuts, _interval_labels(cuts))


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
    """
    by_name = {c.name: c for c in columns}
    if decision_attr not in by_name:
        raise ValueError(f"decision column {decision_attr!r} not among columns")
    decision = by_name[decision_attr]
    if decision.kind != CATEGORICAL:
        raise ValueError("decision column must be categorical")

    maps: dict[str, IntervalMap] = {}
    converted: list[RawColumn] = []
    for col in columns:
        if col.kind != NUMERIC:
            converted.append(col)
            continue
        imap = chimerge(
            col.cells, decision.cells, threshold, max_intervals, attr=col.name
        )
        maps[col.name] = imap
        converted.append(
            RawColumn(col.name, CATEGORICAL, tuple(imap.label_of(v) for v in col.cells))
        )
    return converted, maps

"""The ChiMerge loop that ``rredux.discretize.chimerge`` replaced.

It recomputes every adjacent statistic after each merge and takes the
minimum by ``(statistic, position)``: quadratic in the distinct values,
but plainly the rule the heap merge must reproduce.  Each cut follows
the documented rule: the midpoint of the neighbouring values when it lies
in (top, next], and the upper value ``next`` otherwise.  Kept as the
differential oracle for ``tests/test_chimerge_oracle.py``.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from rredux.discretize import (
    DEFAULT_MAX_INTERVALS,
    IntervalMap,
    chi_square,
    default_threshold,
)
from rredux.errors import ValidationError


def chimerge(
    values: Sequence[float],
    labels: Sequence[Hashable],
    threshold: float | None = None,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
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

    cuts = []
    for (_, top, _), (low, _, _) in zip(intervals, intervals[1:]):
        cut = (top + low) / 2
        cuts.append(cut if top < cut <= low else low)
    return IntervalMap(tuple(cuts))

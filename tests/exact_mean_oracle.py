"""The ``exact_mean`` that ``rredux.similarity.exact_mean`` replaced.

It sums the numerators per denominator in a ``Counter`` before scaling
them to the least common denominator.  The numerator and denominator it
divides are the same integers as the new routine's, so the rounded float
is the same.  Kept as the differential oracle for
``tests/test_similarity_oracle.py``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable


def exact_mean(ratios: Iterable[tuple[int, int]]) -> float:
    """Mean of n / s over the (n, s) integer pairs, s > 0, in integers over
    the least common denominator and rounded once: the float nearest the
    exact mean, so for shares n <= s it is 1.0 iff every n equals its s."""
    sums, count = Counter(), 0  # denominator -> summed numerators
    for n, s in ratios:
        sums[s] += n
        count += 1
    common = math.lcm(*sums)
    return sum(n * (common // s) for s, n in sums.items()) / (common * count)

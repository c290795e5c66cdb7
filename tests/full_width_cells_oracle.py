"""The similarity matrix that ``rredux.similarity.matrix`` replaced with
per-class cells.

Each popcount attribute here has two forms: its row masks over all m
rows, and its (a, d) cells, each a row mask and'ed with the decision's
mask of d.  The cells are rebuilt for the weights and again for every
pair whose loop runs over that attribute.  On a decision value that no
row holds, a popcount pair makes ``_best_by_popcount`` raise
``TypeError``.  Kept as it was, as the differential oracle for
``tests/test_per_class_cells_oracle.py``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import add, mul
from typing import Sequence

from rredux.similarity import (SimilarityMatrix, _best_by_joint_count, _popcount_pays,
                               _weights)
from rredux.table import DecisionTable, bitsets


def _cells(masks: Sequence[int], by_decision: Sequence[int]) -> list[int]:
    """The row mask of each (a, d) cell, at index ``a * nd + d``."""
    return [mask & rows for mask in masks for rows in by_decision]


def _best_by_popcount(cells: Sequence[int], masks: Sequence[int], nd: int):
    """Per cell of A, max_b count(a, b, d), and per (b, d) cell of B, max_a
    count(a, b, d), from count(a, b, d) = popcount(cell (a, d) & mask b)."""
    best_a, best_b = [0] * len(cells), [0] * (len(masks) * nd)
    # per decision, the count rows of its cells after a zero row, so that
    # ``map(max, *rows)`` has two sequences or more to take column maxima of
    rows = [[[0] * len(masks)] for _ in range(nd)]
    for c, cell in enumerate(cells):
        if cell:
            row = list(map(int.bit_count, map(cell.__and__, masks)))
            best_a[c] = max(row)
            rows[c % nd].append(row)
    for d in range(nd):
        best_b[d::nd] = map(max, *rows[d])
    return best_a, best_b


def matrix(table: DecisionTable) -> SimilarityMatrix:
    """Pairwise similarity factors, each pair counted once by popcount or by
    a joint count, whichever ``_popcount_pays`` picks."""
    attrs = table.condition_attrs
    columns = [col.codes for col in table.condition]
    decision = table.decision.codes
    nd = len(table.decision.domain)
    arity = [len(col.domain) for col in table.condition]
    pairs = list(combinations(range(len(attrs)), 2))
    by_popcount = {(i, j) for i, j in pairs if _popcount_pays(arity[i], arity[j], nd, table.m)}
    masked = {k for pair in by_popcount for k in pair}
    keyed = {k for pair in pairs if pair not in by_popcount for k in pair}
    masks = {k: bitsets(columns[k], arity[k]) for k in masked}
    by_decision = bitsets(decision, nd) if masked else ()
    width = max(arity) * nd
    keys = {k: list(map(add, map(nd.__mul__, columns[k]), decision)) for k in keyed}
    weights, divisor = {}, {}  # per attribute, from count(a, d) over its non-empty cells
    for k in masked:
        counts = map(int.bit_count, _cells(masks[k], by_decision))
        weights[k], divisor[k] = _weights({c: n for c, n in enumerate(counts) if n})
    for k in keyed - masked:
        weights[k], divisor[k] = _weights(Counter(keys[k]))
    values = [[1.0] * len(attrs) for _ in attrs]
    for i in range(len(attrs) - 1):
        later = range(i + 1, len(attrs))
        if not all((i, j) in by_popcount for j in later):
            scaled = [c * width for c in keys[i]]
        for j in later:
            if (i, j) not in by_popcount:
                best_i, best_j = _best_by_joint_count(scaled, keys[j], width)
            elif len(weights[j]) < len(weights[i]):  # loop over the fewer cells
                best_j, best_i = _best_by_popcount(_cells(masks[j], by_decision), masks[i], nd)
            else:
                best_i, best_j = _best_by_popcount(_cells(masks[i], by_decision), masks[j], nd)
            for k, best, other in ((i, best_i, j), (j, best_j, i)):
                w = weights[k]
                values[k][other] = sum(map(mul, map(best.__getitem__, w), w.values())) / divisor[k]
    return SimilarityMatrix(attrs, tuple(map(tuple, values)), table)

"""The similarity matrix that ``rredux.similarity.matrix`` replaced with one
mean denominator per attribute and a popcount loop over the smaller side.

Per pair it builds A's cells, loops over them whatever B's cell count,
and averages each direction with ``exact_mean``, which takes the lcm of
the same cell sizes again for every partner.  Kept as the differential
oracle for ``tests/test_smaller_side_oracle.py``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import add, itemgetter
from typing import Sequence

from rredux.similarity import SimilarityMatrix, _popcount_pays, exact_mean
from rredux.table import DecisionTable, bitsets


def _cells(masks: Sequence[int], by_decision: Sequence[int]) -> list[int]:
    """The row mask of each (a, d) cell, at index ``a * nd + d``."""
    return [mask & rows for mask in masks for rows in by_decision]


def _best_by_popcount(cells: Sequence[int], masks: Sequence[int], nd: int):
    """Per cell of A, max_b count(a, b, d), and per (b, d) cell of B, max_a
    count(a, b, d), from count(a, b, d) = popcount(cell (a, d) & mask b)."""
    best_a, best_b = [0] * len(cells), [0] * (len(masks) * nd)
    rows = [[[0] * len(masks)] for _ in range(nd)]
    for c, cell in enumerate(cells):
        if cell:
            row = list(map(int.bit_count, map(cell.__and__, masks)))
            best_a[c] = max(row)
            rows[c % nd].append(row)
    for d in range(nd):
        best_b[d::nd] = map(max, *rows[d])
    return best_a, best_b


def _best_by_joint_count(scaled: Sequence[int], keys: Sequence[int], width: int):
    """Per cell of A, max_b count(a, b, d), and per cell of B, max_a
    count(a, b, d), from one count of the keys ``cell_A * width + cell_B``."""
    best_a, best_b = {}, {}
    counts = Counter(map(add, scaled, keys))
    for key, n in sorted(counts.items(), key=itemgetter(1)):
        best_a[key // width] = n
        best_b[key % width] = n
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
    sizes = {}  # k -> {cell: count(a, d)} over the non-empty cells
    for k in masked:
        counts = map(int.bit_count, _cells(masks[k], by_decision))
        sizes[k] = {c: n for c, n in enumerate(counts) if n}
    for k in keyed - masked:
        sizes[k] = Counter(keys[k])
    values = [[1.0] * len(attrs) for _ in attrs]
    for i in range(len(attrs) - 1):
        later = range(i + 1, len(attrs))
        if any((i, j) in by_popcount for j in later):
            cells = _cells(masks[i], by_decision)
        if not all((i, j) in by_popcount for j in later):
            scaled = [c * width for c in keys[i]]
        for j in later:
            if (i, j) in by_popcount:
                best_i, best_j = _best_by_popcount(cells, masks[j], nd)
            else:
                best_i, best_j = _best_by_joint_count(scaled, keys[j], width)
            values[i][j] = exact_mean((best_i[c], n) for c, n in sizes[i].items())
            values[j][i] = exact_mean((best_j[c], n) for c, n in sizes[j].items())
    return SimilarityMatrix(attrs, tuple(map(tuple, values)), table)

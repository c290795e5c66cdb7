"""The tuple-keyed joint count that ``rredux.similarity.matrix`` replaced
with integer cell keys.

Per unordered attribute pair it counts the (a, b, d) triples of the rows
with ``Counter(zip(a, b, d))`` and keeps, per (a, d) and per (b, d) cell,
the largest count.  Kept as the differential oracle for the matrix in
``tests/test_similarity_oracle.py``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from rredux.similarity import SimilarityMatrix, exact_mean
from rredux.table import DecisionTable


def matrix(table: DecisionTable) -> SimilarityMatrix:
    """Pairwise similarity factors from one joint count per attribute pair."""
    attrs = table.condition_attrs
    decision = table.column(table.decision_attr)
    columns = [table.column(a) for a in attrs]
    sizes = [Counter(zip(column, decision)) for column in columns]  # count(a, d)
    values = [[1.0] * len(attrs) for _ in attrs]
    for i, j in combinations(range(len(attrs)), 2):
        best_i, best_j = {}, {}  # (a, d) -> max_b count(a, b, d), and (b, d) -> max_a
        for (a, b, d), n in Counter(zip(columns[i], columns[j], decision)).items():
            if n > best_i.get((a, d), 0):
                best_i[a, d] = n
            if n > best_j.get((b, d), 0):
                best_j[b, d] = n
        values[i][j] = exact_mean((best_i[c], n) for c, n in sizes[i].items())
        values[j][i] = exact_mean((best_j[c], n) for c, n in sizes[j].items())
    return SimilarityMatrix(attrs, tuple(map(tuple, values)), table)

"""The integer-key joint count that ``rredux.similarity.matrix`` now runs
only for the pairs where popcount would cost more.

Each row's (a, d) cell is one int, ``a * nd + d``, below ``width``, the
largest domain size times nd.  Per unordered attribute pair it counts the
keys ``cell_A * width + cell_B`` of the rows, and reads both directions
from that one count.  Kept as the differential oracle for the matrix in
``tests/test_popcount_oracle.py``.
"""

from __future__ import annotations

from collections import Counter
from operator import add, itemgetter

from rredux.similarity import SimilarityMatrix, exact_mean
from rredux.table import DecisionTable


def matrix(table: DecisionTable) -> SimilarityMatrix:
    """Pairwise similarity factors from one joint count per attribute pair."""
    attrs = table.condition_attrs
    decision = table.decision.codes
    nd = len(table.decision.domain)
    width = max(len(col.domain) for col in table.condition) * nd
    cells = [list(map(add, map(nd.__mul__, table.column(a)), decision)) for a in attrs]
    sizes = [Counter(column) for column in cells]  # cell -> count(a, d)
    values = [[1.0] * len(attrs) for _ in attrs]
    for i in range(len(attrs) - 1):
        scaled = [c * width for c in cells[i]]
        for j in range(i + 1, len(attrs)):
            best_i, best_j = {}, {}  # cell of i -> max over the cells of j, and back
            # ascending by count, so the last count stored for a cell is its largest
            counts = Counter(map(add, scaled, cells[j]))
            for key, n in sorted(counts.items(), key=itemgetter(1)):
                best_i[key // width] = n
                best_j[key % width] = n
            values[i][j] = exact_mean((best_i[c], n) for c, n in sizes[i].items())
            values[j][i] = exact_mean((best_j[c], n) for c, n in sizes[j].items())
    return SimilarityMatrix(attrs, tuple(map(tuple, values)), table)

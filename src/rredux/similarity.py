"""Similarity factors between condition attributes.

The similarity factor of attribute A toward attribute B measures how well
the decision-refined partition of A nests inside that of B.  Each block
of A's partition is one non-empty (a, d) cell: the objects with value a
and decision d.  The cell contributes max_b count(a, b, d) / count(a, d),
the largest share of it that also agrees on B, and the factor is the
mean contribution.  It is asymmetric, lies in (0, 1], and equals 1
exactly when every block of A's partition fits inside one block of B's.

``matrix`` counts the (a, b, d) triples of each unordered attribute pair
once and reads both directions from that count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .partition import relative_blocks
from .table import DecisionTable

Blocks = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SimilarityMatrix:
    """All pairwise similarity factors over a table's condition attributes.

    ``values[i][j]`` is the factor of ``attrs[i]`` toward ``attrs[j]``;
    the diagonal is fixed at 1.0.  ``table``, if given, is the table the
    factors were counted on; it takes no part in comparison or repr.
    """

    attrs: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    table: DecisionTable | None = field(default=None, compare=False, repr=False)

    @cached_property
    def relative(self) -> dict[str, Blocks]:
        """Each attribute's decision-refined partition, built on first use for
        the full trace and ``perfbench/tracer.py`` only (until ROADMAP item 4),
        through this module's global ``relative_blocks``, which the tracer rebinds."""
        if self.table is None:
            raise ValueError("relative partitions need the matrix's table")
        return {a: relative_blocks(self.table, a) for a in self.attrs}

    def index(self, attr: str) -> int:
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise ValueError(f"unknown attribute {attr!r}") from None

    def factor(self, source: str, target: str) -> float:
        return self.values[self.index(source)][self.index(target)]


def _mean_share(best: dict, sizes: Counter) -> float:
    """Mean of ``best[cell] / sizes[cell]`` over the cells, summed exactly.

    The ratios are grouped by cell size, so 1.0 comes back iff every cell
    keeps all of its objects.
    """
    by_size = Counter()  # cell size -> summed largest counts
    for cell, size in sizes.items():
        by_size[size] += best[cell]
    return float(sum(Fraction(n, size) for size, n in by_size.items()) / len(sizes))


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
        values[i][j] = _mean_share(best_i, sizes[i])
        values[j][i] = _mean_share(best_j, sizes[j])
    return SimilarityMatrix(attrs, tuple(map(tuple, values)), table)

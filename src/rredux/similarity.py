"""Similarity factors between condition attributes.

The similarity factor of attribute A toward attribute B measures how well
the decision-refined partition of A nests inside that of B: each block of
A's partition contributes the largest count of its members that share one
block of B's partition, over its size, and the factor is the mean
contribution.  It is asymmetric, lies in (0, 1], and equals 1 exactly
when every block of A's partition fits inside one block of B's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .partition import relative_blocks
from .table import DecisionTable

Blocks = tuple[tuple[int, ...], ...]


def factor(source: Blocks, target: Blocks) -> float:
    """Similarity factor of the source partition toward the target.

    Both arguments must partition the same non-empty universe.  Each source
    block keeps the largest count of its members in one target block; the
    ratios are summed exactly, so 1.0 is returned iff source refines target.
    """
    where = {x: b for b, block in enumerate(target) for x in block}
    if not where or where.keys() != {x for block in source for x in block}:
        raise ValueError("partitions must cover the same non-empty universe")
    best = Counter()  # block size -> summed largest counts
    for block in source:
        best[len(block)] += max(Counter(map(where.__getitem__, block)).values())
    return float(sum(Fraction(n, size) for size, n in best.items()) / len(source))


@dataclass(frozen=True)
class SimilarityMatrix:
    """All pairwise similarity factors over a table's condition attributes.

    ``values[i][j]`` is the factor of ``attrs[i]`` toward ``attrs[j]``;
    the diagonal is fixed at 1.0.  ``relative`` keeps the per-attribute
    decision-refined partitions the factors were computed from.
    """

    attrs: tuple[str, ...]
    relative: dict[str, Blocks]
    values: tuple[tuple[float, ...], ...]

    def index(self, attr: str) -> int:
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise ValueError(f"unknown attribute {attr!r}") from None

    def factor(self, source: str, target: str) -> float:
        return self.values[self.index(source)][self.index(target)]


def matrix(table: DecisionTable) -> SimilarityMatrix:
    """Pairwise similarity factors, one relative partition per attribute."""
    attrs = table.condition_attrs
    relative = {a: relative_blocks(table, a) for a in attrs}
    values = tuple(
        tuple(
            1.0 if a == b else factor(relative[a], relative[b])
            for b in attrs
        )
        for a in attrs
    )
    return SimilarityMatrix(attrs, relative, values)

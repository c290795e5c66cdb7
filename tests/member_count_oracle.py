"""The partition-pair similarity factor that ``rredux.similarity.matrix``
replaced with joint counts over the code columns.

It takes any two partitions, maps each object to its target block, and
keeps, per source block, the largest count of its members in one target
block.  Kept as the differential oracle for the matrix; its own agreement
with the block-pair intersection in ``similarity_oracle`` is checked too.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

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

"""The block-pair intersection that the member-count factor replaced.

It builds a frozenset per block and intersects every source block with
every target block: quadratic in the block counts, but plainly the
definition the member count in ``member_count_oracle`` must reproduce.
Kept as the differential oracle for ``tests/test_similarity_oracle.py``.
"""

from __future__ import annotations

from fractions import Fraction

Blocks = tuple[tuple[int, ...], ...]


def factor(source: Blocks, target: Blocks) -> float:
    """Similarity factor of the source partition toward the target.

    Both arguments must partition the same universe.  Computed in exact
    rational arithmetic so 1.0 is returned iff source refines target.
    """
    if not source or not target:
        raise ValueError("similarity factor needs non-empty partitions")
    universe = {x for block in source for x in block}
    if {x for block in target for x in block} != universe:
        raise ValueError("partitions cover different universes")
    target_sets = [frozenset(block) for block in target]
    total = Fraction(0)
    for block in source:
        members = frozenset(block)
        best = max(len(members & t) for t in target_sets)
        total += Fraction(best, len(block))
    return float(total / len(source))

"""Similarity factors between condition attributes.

The similarity factor of attribute A toward attribute B measures how well
the decision-refined partition of A nests inside that of B.  Each block
of A's partition is one non-empty (a, d) cell: the objects with value a
and decision d.  The cell contributes max_b count(a, b, d) / count(a, d),
the largest share of it that also agrees on B, and the factor is the
mean contribution.  It is asymmetric, lies in (0, 1], and equals 1
exactly when every block of A's partition fits inside one block of B's.

``matrix`` counts each unordered attribute pair one of two ways, with
the same integer counts either way, and reads both directions from them:

- **Popcount**, when both domains and the decision's have at most 256
  values and k_A * k_B * nd is cheap next to one pass over the m rows
  (``_popcount_pays``).  Each (a, d) cell of A is the row mask of a
  (``table.bitsets``) and'ed with that of d, and count(a, b, d) is the
  popcount of that cell and'ed with b's row mask.
- **Joint count** otherwise.  Each row's (a, d) cell is one int, ``a *
  nd + d``, below ``width``, the largest domain size times nd.  One
  ``Counter`` pass over the rows counts the keys ``cell_A * width +
  cell_B``.  The key is injective on (a, b, d): ``key // width`` and
  ``key % width`` give back the two cells, and they share d, because
  both come from the same row.

Both directions are averaged with ``exact_mean``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import add, itemgetter
from typing import Iterable, Sequence

from .partition import relative_blocks
from .table import DecisionTable, bitsets

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
        the full trace and for ``perfbench/tracer.py``, until the tracer stops
        reading it.  It is built through this module's global
        ``relative_blocks``, which the tracer rebinds."""
        if self.table is None:
            raise ValueError("relative partitions need the matrix's table")
        return {a: relative_blocks(self.table, a) for a in self.attrs}


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


# The largest domain whose row masks ``matrix`` builds: per attribute 256
# masks of m bits, 32 bytes per row, at most.
_MASK_DOMAIN = 256


def _popcount_pays(k_a: int, k_b: int, nd: int, m: int) -> bool:
    """Whether popcount counts a pair faster than one joint-count pass.

    Measured per pair (Python 3.11, 2-vCPU VM, 3 classes), popcount costs
    about k_A * k_B * nd * (0.2 us + m * 0.08 ns) and the joint count about
    m * 0.1-0.2 us.  The two cross at k_A * k_B * nd of about 110 at 200
    rows, 700 at 800, 1,400 at 2,000, and 1,300-1,600 from 10,000 to
    100,000 rows.  The rule below cuts at 385, 889, 1,212, 1,504 and
    1,575-1,590 on those sizes.  Between the two cuts the pair is counted
    at most 1.3 times slower than it could be, and that worst case, at 200
    rows, costs under 0.1 ms.
    """
    return (max(k_a, k_b, nd) <= _MASK_DOMAIN
            and k_a * k_b * nd * (40 + m / 16) < 100 * m)


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


def _best_by_joint_count(scaled: Sequence[int], keys: Sequence[int], width: int):
    """Per cell of A, max_b count(a, b, d), and per cell of B, max_a
    count(a, b, d), from one count of the keys ``cell_A * width + cell_B``."""
    best_a, best_b = {}, {}
    # ascending by count, so the last count stored for a cell is its largest
    counts = Counter(map(add, scaled, keys))
    for key, n in sorted(counts.items(), key=itemgetter(1)):
        best_a[key // width] = n
        best_b[key % width] = n
    return best_a, best_b


def matrix(table: DecisionTable) -> SimilarityMatrix:
    """Pairwise similarity factors, each pair counted once by popcount or by
    a joint count, whichever ``_popcount_pays`` picks."""
    attrs = table.condition_attrs
    decision = table.column(table.decision_attr)
    nd = len(table.domains[table.decision_attr])
    arity = [len(table.domains[a]) for a in attrs]
    pairs = list(combinations(range(len(attrs)), 2))
    by_popcount = {(i, j) for i, j in pairs if _popcount_pays(arity[i], arity[j], nd, table.m)}
    masked = {k for pair in by_popcount for k in pair}
    keyed = {k for pair in pairs if pair not in by_popcount for k in pair}
    masks = {k: bitsets(table.column(attrs[k]), arity[k]) for k in masked}
    by_decision = bitsets(decision, nd) if masked else ()
    width = max(arity) * nd
    keys = {k: list(map(add, map(nd.__mul__, table.column(attrs[k])), decision)) for k in keyed}
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
            cells = _cells(masks[i], by_decision)  # built for row i, dropped after it
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

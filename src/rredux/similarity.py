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
  (``_popcount_pays``).  Each (a, d) cell is a mask over class d's rows
  only (``table.bitsets`` of the class's codes), and count(a, b, d) is
  the popcount of A's cell (a, d) and'ed with B's cell (b, d).  The loop
  runs over the side with fewer non-empty cells: either side counts alike.
- **Joint count** otherwise.  Each row's (a, d) cell is one int, ``a *
  nd + d``, below ``width``, the largest domain size times nd.  One
  ``Counter`` pass over the rows counts the keys ``cell_A * width +
  cell_B``.  The key is injective on (a, b, d): ``key // width`` and
  ``key % width`` give back the two cells, and they share d, because
  both come from the same row.

Both directions are averaged as ``exact_mean`` would, from each
attribute's ``_weights``, taken once, not once per partner.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import cached_property
from itertools import combinations
from operator import add, itemgetter, mul
from typing import Iterable, Sequence

from .partition import relative_blocks
from .table import DecisionTable, bitsets

Blocks = tuple[tuple[int, ...], ...]


class SimilarityMatrix(namedtuple("SimilarityMatrix", "attrs values table", defaults=(None,))):
    """All pairwise similarity factors over a table's condition attributes.

    ``values[i][j]`` is the factor of ``attrs[i]`` toward ``attrs[j]``;
    the diagonal is fixed at 1.0.  ``table``, if given, is the table the
    factors were counted on; like the other fields, it takes part in
    comparison and repr.  The matrix has no ``__slots__``: its instance
    ``__dict__`` holds the cached ``relative``.
    """

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
    ratios = list(ratios)
    common = math.lcm(*(s for _, s in ratios))
    return sum(n * (common // s) for n, s in ratios) / (common * len(ratios))


# The largest domain whose cells ``matrix`` builds: per attribute and class
# 256 masks of one bit per row of the class, 32 bytes per row, at most.
_MASK_DOMAIN = 256


def _popcount_pays(k_a: int, k_b: int, nd: int, m: int) -> bool:
    """Whether popcount counts a pair faster than one joint-count pass.

    Measured per pair (Python 3.11, 2-vCPU VM, 3 classes), popcount costs
    about k_A * k_B * nd * (0.1 us + m / nd * 0.06 ns), each AND spanning
    one class's rows, and the joint count about m * 0.1-0.25 us.  The two
    cross at k_A * k_B * nd of about 110 at 200 rows, 750 at 800, 1,700 at
    2,000, 6,000 at 10,000 and 4,800 at 100,000; the rule below cuts at
    381, 889, 1,212, 1,504 and 1,590.  So popcount runs up to 2 times
    slower below 800 rows (0.03 ms a pair), and the joint count up to 2
    times slower from 2,000 rows on (about 4 ms a pair at 100,000).
    """
    return (max(k_a, k_b, nd) <= _MASK_DOMAIN
            and k_a * k_b * nd * (40 + m / 16) < 100 * m)


def _best_by_popcount(cells_a: Sequence[Sequence[int]], cells_b: Sequence[Sequence[int]], nd: int):
    """Per (a, d) cell of A, max_b count(a, b, d), and per (b, d) cell of B,
    max_a count(a, b, d), each at index ``a * nd + d``, from count(a, b, d)
    = popcount(cells_a[d][a] & cells_b[d][b]), one class at a time."""
    best_a, best_b = [0] * (len(cells_a[0]) * nd), [0] * (len(cells_b[0]) * nd)
    for d, (row_a, row_b) in enumerate(zip(cells_a, cells_b)):
        # the class's count rows after two zero rows, so that ``map(max, *rows)``
        # takes column maxima even when no cell of the class is non-empty
        rows = [[0] * len(row_b)] * 2
        for a, cell in enumerate(row_a):
            if cell:
                row = list(map(int.bit_count, map(cell.__and__, row_b)))
                best_a[a * nd + d] = max(row)
                rows.append(row)
        best_b[d::nd] = map(max, *rows)
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


def _weights(sizes: dict[int, int]) -> tuple[dict[int, int], int]:
    """Per non-empty cell, ``common // count(a, d)``, and the divisor
    ``common * len(sizes)``, where ``common`` is the counts' lcm."""
    common = math.lcm(*sizes.values())
    return {c: common // n for c, n in sizes.items()}, common * len(sizes)


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
    by_class = [[] for _ in range(nd)]
    for r, d in enumerate(decision if masked else ()):
        by_class[d].append(r)
    # itemgetter(*rows) gathers fastest, but of one row it returns the code
    # itself, not a tuple, and of none it raises: those classes take a list
    gathers = [itemgetter(*rows) if len(rows) > 1 else lambda c, rows=rows: [c[r] for r in rows]
               for rows in by_class]
    cells = {k: [bitsets(gather(columns[k]), arity[k]) for gather in gathers] for k in masked}
    width = max(arity) * nd
    keys = {k: list(map(add, map(nd.__mul__, columns[k]), decision)) for k in keyed}
    weights, divisor = {}, {}  # per attribute, from count(a, d) over its non-empty cells
    for k in masked:
        weights[k], divisor[k] = _weights({a * nd + d: n for d, row in enumerate(cells[k])
                                           for a, n in enumerate(map(int.bit_count, row)) if n})
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
                best_j, best_i = _best_by_popcount(cells[j], cells[i], nd)
            else:
                best_i, best_j = _best_by_popcount(cells[i], cells[j], nd)
            for k, best, other in ((i, best_i, j), (j, best_j, i)):
                w = weights[k]
                values[k][other] = sum(map(mul, map(best.__getitem__, w), w.values())) / divisor[k]
    return SimilarityMatrix(attrs, tuple(map(tuple, values)), table)

"""The similarity matrix, with one mean denominator per attribute and the
popcount loop over the side with fewer cells, against the per-pair
``exact_mean`` and A-side loop it replaced, kept in
``per_pair_mean_oracle``; and each attribute's weights and divisor
against ``exact_mean`` over its cells."""

import random
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

import per_pair_mean_oracle
import rredux.similarity as similarity
from rredux import from_columns, matrix
from rredux.similarity import _popcount_pays, _weights, exact_mean
from conftest import raw_column

SETTINGS = dict(deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _table(seed, m, arities, nd):
    """A table whose condition columns hold exactly ``arities`` distinct
    values over ``m`` rows, and whose decision puts all rows but a few in
    one of its ``nd`` classes (at least one row in each other class)."""
    rng = random.Random(seed)
    raw = []
    for i, k in enumerate(arities):
        codes = list(range(k)) + [rng.randrange(k) for _ in range(m - k)]
        rng.shuffle(codes)
        raw.append(raw_column(f"a{i}", tuple(f"v{c}" for c in codes)))
    few = rng.randint(nd - 1, max(nd - 1, m // 10)) if nd > 1 else 0
    decision = [1 + r % (nd - 1) for r in range(few)] + [0] * (m - few)
    rng.shuffle(decision)
    raw.append(raw_column("d", tuple(f"c{c}" for c in decision)))
    return from_columns(raw, "d")


@st.composite
def tables(draw):
    """1-20 rows, or 258-320 with arities around 256 and an id-like column
    among the draws; 1-4 condition attributes, 1-4 classes."""
    m = draw(st.one_of(st.integers(1, 20), st.integers(258, 320)))
    nd = draw(st.integers(1, min(4, m)))
    arity = st.one_of(st.integers(1, m), st.just(m))
    if m > 20:
        arity = st.one_of(arity, st.sampled_from([1, 2, 3, 40, 255, 256, 257]))
    arities = draw(st.lists(arity, min_size=1, max_size=4))
    return _table(draw(st.integers(0, 2**32)), m, arities, nd)


# popcount pairs whose loop runs over A (fewer cells), over B, and over A on a tie
LOOPS_OVER_A = _table(1, 17, [2, 5], 1)
LOOPS_OVER_B = _table(2, 17, [5, 2], 1)
TIED = _table(3, 17, [3, 3], 2)


def test_examples_loop_over_the_side_they_name(monkeypatch):
    """Each example's one pair takes popcount, and the per-class cells it
    loops against are the other side's."""
    looped_against = []
    best_by_popcount = similarity._best_by_popcount

    def recording(cells_a, cells_b, nd):
        looped_against.append(cells_b)
        return best_by_popcount(cells_a, cells_b, nd)

    monkeypatch.setattr(similarity, "_best_by_popcount", recording)
    for table, other in ((LOOPS_OVER_A, 1), (LOOPS_OVER_B, 0), (TIED, 1)):
        a, b = table.condition
        assert _popcount_pays(len(a.domain), len(b.domain), len(table.decision.domain), table.m)
        looped_against.clear()
        matrix(table)
        column = table.condition[other]
        by_class = [[r for r, d in enumerate(table.decision.codes) if d == c]
                    for c in range(len(table.decision.domain))]
        assert looped_against == [[similarity.bitsets([column.codes[r] for r in rows],
                                                      len(column.domain)) for rows in by_class]]


@settings(max_examples=300, **SETTINGS)
@example(table=LOOPS_OVER_A)
@example(table=LOOPS_OVER_B)
@example(table=TIED)
@example(table=_table(4, 300, [256, 255, 257, 300], 4))
@example(table=_table(5, 260, [1, 260, 3], 2))
@given(table=tables())
def test_matrix_matches_per_pair_mean_oracle(table):
    assert matrix(table).values == per_pair_mean_oracle.matrix(table).values


@st.composite
def shares(draw):
    """count(a, d) of some non-empty cells, and a share of each."""
    count = st.one_of(st.integers(1, 12), st.integers(1, 10**6))
    sizes = draw(st.dictionaries(st.integers(0, 300), count, min_size=1, max_size=40))
    return sizes, {c: draw(st.integers(1, n)) for c, n in sizes.items()}


def _mean(sizes, best):
    weights, divisor = _weights(sizes)
    return sum(best[c] * w for c, w in weights.items()) / divisor


@settings(max_examples=500, **SETTINGS)
@example(cells=({1: 3, 3: 7}, {1: 2, 3: 7}))
@example(cells=({0: 1}, {0: 1}))
@example(cells=({0: 999_983, 1: 999_979, 3: 1}, {0: 1, 1: 999_979, 3: 1}))
@given(cells=shares())
def test_weights_and_divisor_reproduce_exact_mean(cells):
    sizes, best = cells
    assert _mean(sizes, best) == exact_mean((best[c], n) for c, n in sizes.items())


def test_each_attributes_cells_reproduce_exact_mean():
    """On a table's own attributes: the weights of its (a, d) cell counts
    and one share per cell."""
    table = _table(6, 300, [2, 40, 256, 300], 4)
    nd = len(table.decision.domain)
    rng = random.Random(6)
    for col in table.condition:
        sizes = Counter(a * nd + d for a, d in zip(col.codes, table.decision.codes))
        best = {c: rng.randint(1, n) for c, n in sizes.items()}
        assert _mean(sizes, best) == exact_mean((best[c], n) for c, n in sizes.items())

"""The similarity matrix against the tuple-keyed joint count that integer
cell keys replaced, kept in ``joint_count_oracle``, and against the
member-count factor before that, kept in ``member_count_oracle``, on
generated decision tables;
the member count against the block-pair intersection it replaced in turn,
kept in ``similarity_oracle``, on generated partition pairs; and the
integer mean against the ``Fraction`` sum it replaced and against the
per-denominator ``Counter`` sum after that, kept in ``exact_mean_oracle``."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fractions import Fraction

import exact_mean_oracle
import joint_count_oracle
import member_count_oracle
import similarity_oracle
from rredux import from_columns, matrix, relative_blocks
from rredux.similarity import exact_mean
from conftest import raw_column

SETTINGS = dict(deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _partition(ids, labels):
    """The blocks of ``ids`` grouped by label, in first-appearance order."""
    blocks = {}
    for x, label in zip(ids, labels):
        blocks.setdefault(label, []).append(x)
    return tuple(tuple(block) for block in blocks.values())


@st.composite
def partitions(draw, ids):
    """A partition of ``ids`` into 1-8 labelled blocks.  Half the draws deal
    the ids round-robin, so most blocks share one size."""
    k = draw(st.integers(1, 8))
    order = draw(st.permutations(ids))
    if draw(st.booleans()):
        labels = [i % k for i in range(len(order))]
    else:
        labels = draw(st.lists(st.integers(0, k - 1), min_size=len(order),
                               max_size=len(order)))
    return _partition(order, labels)


@st.composite
def partition_pairs(draw):
    """Two partitions of one universe of 1-60 arbitrary integer ids."""
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=60,
                        unique=True))
    return draw(partitions(ids)), draw(partitions(ids))


@settings(max_examples=500, **SETTINGS)
@given(pair=partition_pairs())
def test_member_count_matches_block_pairs(pair):
    for a, b in (pair, pair[::-1]):
        assert member_count_oracle.factor(a, b) == similarity_oracle.factor(a, b)


def _table(columns, decision):
    """A table of the labelled condition ``columns`` and the ``decision``."""
    raw = [raw_column(f"a{i}", tuple(map(str, cells)))
           for i, cells in enumerate(columns)]
    raw.append(raw_column("d", tuple(map(str, decision))))
    return from_columns(raw, "d")


@st.composite
def tables(draw):
    """1-60 rows, 1-6 condition attributes of arity 1-8, 1-4 classes.  Some
    columns coarsen the one before them, so some factors are exactly 1.0;
    some deal their values round-robin, so many cells share one size."""
    m = draw(st.integers(1, 60))

    def labels(arity):
        k = draw(st.integers(1, arity))
        if draw(st.booleans()):
            return [i % k for i in range(m)]
        return draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))

    columns = [labels(8)]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(1, 8))
            columns.append([v % k for v in columns[-1]])
        else:
            columns.append(labels(8))
    return _table(columns, labels(4))


def _oracle_matrix(table):
    """The member-count factor between the relative partitions of every
    ordered attribute pair; 1.0 on the diagonal, as a partition refines itself."""
    rel = {a: relative_blocks(table, a) for a in table.condition_attrs}
    return tuple(tuple(member_count_oracle.factor(rel[a], rel[b]) for b in rel)
                 for a in rel)


# value k of a0 is held by k + 1 rows, so its cells have the sizes 1 .. 24
# and their least common multiple is 5,354,228,880
SIZES = [k for k in range(24) for _ in range(k + 1)]
# a0 refines a1 = a0 mod 3, so the factor of a0 toward a1 is exactly 1.0
REFINED = [0, 1, 2, 3, 4, 5, 0, 3, 4, 5, 1, 2]


@settings(max_examples=300, **SETTINGS)
@example(table=_table([[0], [1], [2]], [0]))
@example(table=_table([[0, 1, 1, 2, 0], [0, 0, 1, 1, 1]], [0, 0, 0, 0, 0]))
@example(table=_table([SIZES, [i % 7 for i in range(len(SIZES))]], [0] * len(SIZES)))
@example(table=_table([REFINED, [v % 3 for v in REFINED]], [i % 2 for i in range(12)]))
@given(table=tables())
def test_matrix_matches_member_count_oracle(table):
    assert matrix(table).values == _oracle_matrix(table)


# factors lie in (0, 1]; the exact mean of 1/12, 1/6 and 1/8 is 1/8, one of them
@settings(max_examples=500, **SETTINGS)
@example(factors=[5e-324])
@example(factors=[5e-324, 1.0, 5e-324])
@example(factors=[1.0, 1.0])
@example(factors=[1 / 12, 1 / 6, 1 / 8])
@given(factors=st.lists(st.floats(5e-324, 1.0), min_size=1, max_size=30))
def test_exact_mean_matches_fraction_sum(factors):
    exact = float(sum(map(Fraction, factors)) / len(factors))
    assert exact_mean(f.as_integer_ratio() for f in factors) == exact


@st.composite
def count_pairs(draw):
    """1-300 integer shares (n, s) with 1 <= s <= 10^5 and 0 <= n <= s.
    Half the draws take every s from a pool of 1-5
    values, so denominators repeat; the other half draw them afresh."""
    size = draw(st.integers(1, 300))
    if draw(st.booleans()):
        denominators = st.sampled_from(
            draw(st.lists(st.integers(1, 10**5), min_size=1, max_size=5)))
    else:
        denominators = st.integers(1, 10**5)
    sizes = draw(st.lists(denominators, min_size=size, max_size=size))
    return [(draw(st.integers(0, s)), s) for s in sizes]


@settings(max_examples=300, **SETTINGS)
@example(pairs=[(1, 1)])
@example(pairs=[(s, s) for s in range(1, 25)])
@example(pairs=[(1, 99991), (99990, 99991), (1, 99989), (7, 100000)])
@given(pairs=count_pairs())
def test_exact_mean_matches_counter_sum_and_fraction_mean(pairs):
    got = exact_mean(iter(pairs))
    assert got == exact_mean_oracle.exact_mean(iter(pairs))
    assert got == float(sum(Fraction(n, s) for n, s in pairs) / len(pairs))


@st.composite
def wide_domain_tables(draw):
    """1-400 rows, 1-4 condition attributes of arity 1-300, 1-4 classes.  A
    round-robin column holds min(rows, arity) values, so many tables have
    cells and keys above 256, outside CPython's small-int cache."""
    m = draw(st.integers(1, 400))

    def labels(arity):
        k = draw(st.integers(1, arity))
        if draw(st.booleans()):
            return [i % k for i in range(m)]
        return draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))

    columns = [labels(300) for _ in range(draw(st.integers(1, 4)))]
    return _table(columns, labels(4))


@settings(max_examples=200, **SETTINGS)
@example(table=_table([[0], [0]], [0]))
@example(table=_table([[0] * 5, [0, 1, 2, 3, 4]], [0, 1, 0, 1, 1]))
@example(table=_table([list(range(300)), [i % 7 for i in range(300)]], [0] * 300))
@example(table=_table([list(range(300)), [i % 257 for i in range(300)]],
                      [i % 3 for i in range(300)]))
@given(table=wide_domain_tables())
def test_matrix_matches_joint_count_oracle(table):
    assert matrix(table).values == joint_count_oracle.matrix(table).values


def test_matrix_matches_joint_count_oracle_on_an_id_like_column():
    """A 5,000-value column next to small ones on 20,000 rows."""
    rng = random.Random(12)
    m = 20_000
    ids = [rng.randrange(5_000) for _ in range(m)]
    small = [[rng.randrange(k) for _ in range(m)] for k in (3, 8, 40)]
    table = _table([ids, *small], [rng.randrange(3) for _ in range(m)])
    assert len(table.condition[0].domain) > 4_900
    assert matrix(table).values == joint_count_oracle.matrix(table).values

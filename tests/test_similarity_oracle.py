"""The joint-count similarity matrix against the member-count factor it
replaced, kept in ``member_count_oracle``, on generated decision tables;
and the member count against the block-pair intersection it replaced in
turn, kept in ``similarity_oracle``, on generated partition pairs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

import member_count_oracle
import similarity_oracle
from rredux import RawColumn, from_columns, matrix, relative_blocks

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
    raw = [RawColumn(f"a{i}", "categorical", tuple(map(str, cells)))
           for i, cells in enumerate(columns)]
    raw.append(RawColumn("d", "categorical", tuple(map(str, decision))))
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


@settings(max_examples=300, **SETTINGS)
@example(table=_table([[0], [1], [2]], [0]))
@example(table=_table([[0, 1, 1, 2, 0], [0, 0, 1, 1, 1]], [0, 0, 0, 0, 0]))
@given(table=tables())
def test_matrix_matches_member_count_oracle(table):
    assert matrix(table).values == _oracle_matrix(table)

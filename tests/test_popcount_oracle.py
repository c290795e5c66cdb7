"""The per-pair choice of ``rredux.similarity.matrix`` against the
integer-key joint count it kept for the costly pairs, kept whole in
``integer_key_oracle``, and ``rredux.table.bitsets`` against the bytearray
loop it kept for large domains, kept in ``bitset_loop_oracle``."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

import bitset_loop_oracle
import integer_key_oracle
import rredux.similarity as similarity
from rredux import from_columns, matrix
from rredux.similarity import _MASK_DOMAIN, _popcount_pays
from rredux.table import bitsets
from conftest import raw_column

SETTINGS = dict(deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _column(rng, m, arity):
    """``m`` codes holding every value below ``arity`` (``arity <= m``)."""
    codes = list(range(arity)) + [rng.randrange(arity) for _ in range(m - arity)]
    rng.shuffle(codes)
    return codes


def _table(seed, m, arities, nd):
    """A table whose condition columns and decision hold exactly ``arities``
    and ``nd`` distinct values over ``m`` rows."""
    rng = random.Random(seed)
    raw = [raw_column(f"a{i}", tuple(map(str, _column(rng, m, k))))
           for i, k in enumerate(arities)]
    raw.append(raw_column("d", tuple(map(str, _column(rng, m, nd)))))
    return from_columns(raw, "d")


@st.composite
def tables(draw):
    """1-17 rows and arities up to m, or 260-300 rows and arities drawn
    around 256 as well; 1-4 condition attributes, 1-3 classes."""
    m = draw(st.one_of(st.integers(1, 17), st.integers(260, 300)))
    nd = draw(st.integers(1, min(3, m)))
    arity = st.integers(1, m)
    if m > 17:
        arity = st.one_of(arity, st.sampled_from([1, 2, 3, 40, 255, 256, 257]))
    arities = draw(st.lists(arity, min_size=1, max_size=4))
    return _table(draw(st.integers(0, 2**32)), m, arities, nd)


def test_examples_sit_on_both_sides_of_each_cut():
    """The ``@example`` tables below take each way of counting a pair."""
    assert _popcount_pays(2, 2, 3, 17) and not _popcount_pays(5, 5, 2, 17)
    assert _popcount_pays(_MASK_DOMAIN, 1, 1, 300)
    assert not _popcount_pays(_MASK_DOMAIN + 1, 1, 1, 300)
    assert not _popcount_pays(1, 1, _MASK_DOMAIN + 1, 300)


@settings(max_examples=300, **SETTINGS)
@example(table=_table(0, 1, [1], 1))
@example(table=_table(1, 9, [4], 1))
@example(table=_table(2, 17, [2, 2, 5, 5], 2))
@example(table=_table(3, 17, [2, 2], 3))
@example(table=_table(4, 300, [256, 1, 257, 2], 1))
@example(table=_table(5, 300, [1, 1], 257))
@given(table=tables())
def test_matrix_matches_integer_key_oracle(table):
    assert matrix(table).values == integer_key_oracle.matrix(table).values


def test_no_row_masks_beyond_the_mask_domain(monkeypatch):
    """A 1,000-value column next to a constant one is cheap enough by its
    count to take popcount, but its 1,000 masks would cost m / 8 bytes
    each, so it takes the joint count and gets none."""
    sizes = []

    def recording(codes, size):
        sizes.append(size)
        return bitsets(codes, size)

    monkeypatch.setattr(similarity, "bitsets", recording)
    table = _table(6, 4_000, [1_000, 1, 3], 1)
    assert matrix(table).values == integer_key_oracle.matrix(table).values
    assert sizes and max(sizes) <= _MASK_DOMAIN
    # only the cap keeps it from the masks
    sizes.clear()
    monkeypatch.setattr(similarity, "_MASK_DOMAIN", 1_000)
    matrix(table)
    assert 1_000 in sizes


@settings(max_examples=500, **SETTINGS)
@example(size=1, length=0, seed=0)
@example(size=32, length=17, seed=1)
@example(size=33, length=17, seed=2)
@example(size=300, length=17, seed=3)
@given(size=st.integers(1, 300), length=st.integers(0, 17), seed=st.integers(0, 2**32))
def test_bitsets_match_the_loop(size, length, seed):
    rng = random.Random(seed)
    codes = tuple(rng.randrange(size) for _ in range(length))
    assert bitsets(codes, size) == bitset_loop_oracle.bitsets(codes, size)

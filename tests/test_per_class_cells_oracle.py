"""The similarity matrix, with each popcount attribute held once as per-class
cells, against the full-width cells it replaced, kept in
``full_width_cells_oracle``.

The oracle raises on a decision value that no row holds, so every table
here has each class held by at least one row;
``tests/test_similarity.py`` covers the unheld value.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

import full_width_cells_oracle
from rredux import DecisionTable, RawColumn, matrix

SETTINGS = dict(deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# the bitsets paths split at 32 values, and popcount stops past 256
EDGE_ARITIES = [1, 2, 3, 32, 33, 40, 255, 256, 257, 300]


def _table(seed, m, arities, nd, lone):
    """A table of ``m`` rows whose condition columns have domains of
    ``arities`` values, some possibly held by no row, and whose decision
    has ``nd`` classes, each held by a row.  With ``lone``, every class
    but the first holds exactly one row."""
    rng = random.Random(seed)
    condition = [RawColumn(f"a{i}", tuple(f"v{c}" for c in range(k)),
                           tuple(rng.randrange(k) for _ in range(m)))
                 for i, k in enumerate(arities)]
    rest = [0] * (m - nd) if lone else [rng.randrange(nd) for _ in range(m - nd)]
    decision = list(range(nd)) + rest
    rng.shuffle(decision)
    return DecisionTable(condition, RawColumn("d", tuple(f"c{c}" for c in range(nd)),
                                              tuple(decision)))


@st.composite
def tables(draw):
    """1-20 rows, or 258-320; 1-5 condition attributes of 1-300 values, the
    edge arities among them; 1-4 classes, with one-row classes common."""
    m = draw(st.one_of(st.integers(1, 20), st.integers(258, 320)))
    nd = draw(st.integers(1, min(4, m)))
    arity = st.one_of(st.integers(1, 8), st.integers(1, 300), st.sampled_from(EDGE_ARITIES))
    arities = draw(st.lists(arity, min_size=1, max_size=5))
    return _table(draw(st.integers(0, 2**32)), m, arities, nd, draw(st.booleans()))


@settings(max_examples=400, **SETTINGS)
@example(table=_table(1, 1, [1, 2, 33], 1, False))
@example(table=_table(2, 3, [2, 3], 3, True))
@example(table=_table(3, 300, [256, 1, 32, 33, 257], 1, False))
@example(table=_table(4, 300, [2, 3, 5, 32, 33], 4, True))
@example(table=_table(5, 2000, [256, 1, 2, 33, 40, 8], 3, False))
@given(table=tables())
def test_matrix_matches_full_width_cells_oracle(table):
    assert matrix(table).values == full_width_cells_oracle.matrix(table).values

"""Cross-validation on per-value row bitsets against the per-fold table
rebuilds it replaced, kept in ``eval_oracle``, on generated tables."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

import eval_oracle
from rredux import cross_validate, from_columns, stratified_folds
from rredux.evaluate import nearest_row
from rredux.table import row_masks
from conftest import raw_column
from keyed_table_oracle import keyed


@st.composite
def tables(draw):
    """(rows, decisions) of 1-200 rows over 1-7 attributes of arity 1-6.

    Each row is one of 1-40 drawn rows, so most rows repeat and exact
    matches and distance ties are common; 1-4 classes, often just one.
    """
    arities = draw(st.lists(st.integers(1, 6), min_size=1, max_size=7))
    row = st.tuples(*(st.integers(0, arity - 1) for arity in arities))
    pool = draw(st.lists(row, min_size=1, max_size=40))
    m = draw(st.integers(1, 200))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    classes = draw(st.integers(1, 4))
    decisions = draw(st.lists(st.integers(0, classes - 1), min_size=m, max_size=m))
    return [pool[i] for i in picks], decisions


def _table(rows, decisions):
    columns = [raw_column(f"a{a}", tuple(str(row[a]) for row in rows))
               for a in range(len(rows[0]))]
    columns.append(raw_column("d", tuple(map(str, decisions))))
    return from_columns(columns, "d")


# Under seed 0 and two folds, the (0, 0) rows each meet several training
# rows at distance 0, and row 4, (1, 1), several at distance 1; in both
# cases the earliest and the latest of them differ in class.
@example(
    data=([(0, 0), (0, 0), (0, 0), (0, 0), (1, 1), (1, 2), (1, 2), (2, 1), (2, 1), (0, 0),
           (1, 2), (2, 1)],
          [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]),
    k=2, seed=0,
)
@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=tables(), k=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_cross_validate_matches_oracle(data, k, seed):
    table = _table(*data)
    rows = list(zip(*(table.column(a) for a in table.condition_attrs)))
    if table.m == 1:
        # no fold plan fits one row: train on it and predict it instead
        train = eval_oracle.subset(keyed(table), [0])
        assert (table.column("d")[nearest_row(row_masks(table), 1, rows[0])]
                == eval_oracle.onenn_predict(train, rows[0]))
        return
    plan = stratified_folds(table, min(k, table.m), seed)
    for classifier in ("nb", "1nn"):
        assert (cross_validate(table, plan, classifier)
                == eval_oracle.cross_validate(keyed(table), plan, classifier))

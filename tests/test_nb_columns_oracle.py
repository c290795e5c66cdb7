"""Naive Bayes in column passes against the per-fold model and per-row
predict it replaced, kept in ``nb_log_terms_oracle``, on generated tables
and fold plans."""

from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, example, find, given, settings, strategies as st

import nb_log_terms_oracle
from rredux import cross_validate
from rredux.evaluate import FoldPlan
from rredux.table import DecisionTable, RawColumn
from conftest import nb_classes


def _table(condition_codes, arities, decision_codes, classes):
    condition = [
        RawColumn(f"a{j}", tuple(f"v{v}" for v in range(arity)), tuple(codes))
        for j, (codes, arity) in enumerate(zip(condition_codes, arities))
    ]
    decision = RawColumn("d", tuple(f"c{c}" for c in range(classes)), tuple(decision_codes))
    return DecisionTable(condition, decision)


@st.composite
def tables_and_plans(draw):
    """2-30 rows, 1-4 condition attributes of arity 1-8 and 1-6 classes,
    each domain possibly holding values no row has, or an id-like decision;
    a fold plan of 2-6 non-empty folds, or one row per fold."""
    m = draw(st.integers(2, 30))
    arities = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    condition = [draw(st.lists(st.integers(0, a - 1), min_size=m, max_size=m)) for a in arities]
    if draw(st.integers(0, 4)) == 0:  # id-like: every row its own class
        classes = m
        decision = draw(st.permutations(range(m)))
    else:
        classes = draw(st.integers(1, 6))
        decision = draw(st.lists(st.integers(0, classes - 1), min_size=m, max_size=m))
    k = draw(st.sampled_from([m, min(m, draw(st.integers(2, 6)))]))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=m - k, max_size=m - k))
    assignments = draw(st.permutations(list(range(k)) + extra))
    return _table(condition, arities, decision, classes), FoldPlan(k, tuple(assignments))


def _scores(model, values):
    """Each trained class's score for one row under the oracle's model."""
    return [prior + sum(logs.get(v, unseen) for (logs, unseen), v in zip(terms, values))
            for _, prior, terms in model]


def _folds(table, plan):
    """(train, test, the oracle's model) for each fold."""
    for fold in range(plan.k):
        train, test = plan.fold_rows(fold)
        yield train, test, nb_log_terms_oracle.nb_train(table, train)


def _rows(table):
    return list(zip(*(table.column(a) for a in table.condition_attrs)))


SHAPES = {
    "unseen code": lambda table, plan: any(
        any(table.column(a)[i] not in {table.column(a)[t] for t in train} for i in test)
        for a in table.condition_attrs for train, test, _ in _folds(table, plan)
    ),
    "single-class training rows": lambda table, plan: len(set(table.decision.codes)) > 1 and any(
        len(model) == 1 for _, _, model in _folds(table, plan)
    ),
    "class absent from training": lambda table, plan: any(
        len(model) < len(set(table.decision.codes)) for _, _, model in _folds(table, plan)
    ),
    "tie between classes": lambda table, plan: any(
        scores.count(max(scores)) > 1
        for _, test, model in _folds(table, plan)
        for scores in (_scores(model, _rows(table)[i]) for i in test)
    ),
    "domain value held by no row": lambda table, plan: any(
        len(set(col.codes)) < len(col.domain) for col in table.condition + (table.decision,)
    ),
    "one-row fold": lambda table, plan: 1 in Counter(plan.assignments).values(),
    "id-like decision": lambda table, plan: len(set(table.decision.codes)) == table.m,
}


@pytest.mark.parametrize("shape", SHAPES)
def test_each_shape_is_drawn(shape):
    find(tables_and_plans(), lambda drawn: SHAPES[shape](*drawn),
         settings=settings(max_examples=2000, database=None, derandomize=True,
                           phases=[Phase.generate]))  # found is enough: no shrinking


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
# one test row per fold: the gather of a single index gives a code, not a tuple
@example(drawn=(_table([[0, 0, 1, 1]], [2], [0, 0, 1, 1], 2), FoldPlan(4, (0, 1, 2, 3))))
# equal scores for both classes: the lower class code wins
@example(drawn=(_table([[0, 0, 0, 0]], [3], [0, 1, 0, 1], 2), FoldPlan(2, (0, 0, 1, 1))))
@given(drawn=tables_and_plans())
def test_column_passes_match_per_row_model(drawn):
    table, plan = drawn
    assert cross_validate(table, plan, "nb") == nb_log_terms_oracle.cross_validate(table, plan)
    for train, test, _ in _folds(table, plan):
        assert nb_classes(table, test) == nb_log_terms_oracle.fold_predictions(table, train, test)

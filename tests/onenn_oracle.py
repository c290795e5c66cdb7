"""Cross-validation by per-fold table rebuilds, kept as a differential oracle.

``cross_validate`` used to copy the training rows of each fold into a new
``DecisionTable`` with ``subset``, fit a classifier on that table through
the ``CLASSIFIERS`` closures, and predict each test row from it; 1-NN
compared the test row with every training row in a Python loop.  These
are that code's functions, kept as they were in the library.
``tests/test_onenn_oracle.py`` checks the bitset cross-validation against
them.
"""

from __future__ import annotations

from collections import Counter
from operator import ne
from typing import Callable, Sequence

from rredux.evaluate import EvalReport, FoldPlan, NBModel, nb_predict
from rredux.table import DecisionTable


def subset(table: DecisionTable, rows: Sequence[int]) -> DecisionTable:
    """Row-subset of the table (same attributes, codes and domains)."""
    if not rows:
        raise ValueError("subset needs at least one row")
    object_ids = tuple(table.object_ids[i] for i in rows)
    codes = {a: tuple(column[i] for i in rows) for a, column in table.codes.items()}
    return DecisionTable(
        object_ids, table.condition_attrs, table.decision_attr, codes, dict(table.domains)
    )


def nb_train(train: DecisionTable) -> NBModel:
    """Count class and per-attribute value frequencies on the training rows."""
    decisions = train.column(train.decision_attr)
    class_counts = Counter(decisions)
    classes = tuple(sorted(class_counts))
    return NBModel(
        classes,
        tuple(class_counts[c] for c in classes),
        tuple(Counter(zip(train.column(a), decisions)) for a in train.condition_attrs),
        tuple(len(train.domains[a]) for a in train.condition_attrs),
        train.m,
    )


def onenn_predict(train: DecisionTable, values: Sequence[int]) -> int:
    """Decision of the nearest training row by Hamming distance.

    Distance ties go to the earliest training row.
    """
    if len(values) != len(train.condition_attrs):
        raise ValueError("value count does not match training attributes")
    rows = zip(*(train.column(a) for a in train.condition_attrs))
    best_cls = None
    best_dist = len(values) + 1
    for cls, row in zip(train.column(train.decision_attr), rows):
        dist = sum(map(ne, row, values))
        if dist < best_dist:
            best_cls, best_dist = cls, dist
    return best_cls


def _fit_nb(train: DecisionTable) -> Callable[[Sequence[int]], int]:
    model = nb_train(train)
    return lambda values: nb_predict(model, values)


def _fit_1nn(train: DecisionTable) -> Callable[[Sequence[int]], int]:
    return lambda values: onenn_predict(train, values)


CLASSIFIERS: dict[str, Callable[[DecisionTable], Callable[[Sequence[int]], int]]] = {
    "nb": _fit_nb,
    "1nn": _fit_1nn,
}


def cross_validate(table: DecisionTable, plan: FoldPlan, classifier: str) -> EvalReport:
    """Per-fold accuracies of one classifier under a fixed fold plan."""
    try:
        fit = CLASSIFIERS[classifier]
    except KeyError:
        raise ValueError(f"unknown classifier {classifier!r}") from None
    rows = list(zip(*(table.column(a) for a in table.condition_attrs)))
    decisions = table.column(table.decision_attr)
    accuracies = []
    for fold in range(plan.k):
        train_rows, test_rows = plan.fold_rows(fold)
        predict = fit(subset(table, train_rows))
        correct = sum(predict(rows[i]) == decisions[i] for i in test_rows)
        accuracies.append(correct / len(test_rows))
    mean = sum(accuracies) / len(accuracies)
    return EvalReport(classifier, table.condition_attrs, tuple(accuracies), mean)

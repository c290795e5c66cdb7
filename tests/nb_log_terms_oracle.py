"""Naive Bayes as a per-fold model and a per-row predict, kept as a
differential oracle.

``cross_validate`` used to train ``nb_train`` on each fold's training
rows: per class its code, its log prior and one term per condition
attribute (a dict from each code seen with the class to its smoothed
log likelihood, and the one log likelihood of the unseen codes).  Then
``nb_predict`` scored each test row's tuple of codes against every class
in a Python loop.  The library now counts each attribute once over all
rows and scores a fold's test rows a column at a time.

``tests/test_nb_columns_oracle.py`` checks the library against it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from rredux.evaluate import EvalReport, FoldPlan
from rredux.table import DecisionTable


def nb_train(table: DecisionTable, rows: Sequence[int]) -> list[tuple[int, float, list]]:
    """Naive Bayes with add-one smoothing, trained on the given rows.

    One entry per class seen in ``rows``, lowest code first: the class
    code, its log prior, and one term per condition attribute.  A term is
    a dict from each code seen with the class to its log likelihood,
    smoothed over the attribute's domain, and the one log likelihood
    shared by the codes not seen with it, so unseen codes never zero out
    a class.
    """
    decision = table.column(table.decision_attr)
    decisions = [decision[i] for i in rows]
    class_counts = Counter(decisions)
    classes = sorted(class_counts)
    model = [(c, math.log(class_counts[c] / len(rows)), []) for c in classes]
    for col in table.condition:
        column, size = col.codes, len(col.domain)
        logs: dict[int, dict[int, float]] = {c: {} for c in classes}
        for (value, cls), seen in Counter(zip([column[i] for i in rows], decisions)).items():
            logs[cls][value] = math.log((seen + 1) / (class_counts[cls] + size))
        for cls, _, terms in model:
            terms.append((logs[cls], math.log(1 / (class_counts[cls] + size))))
    return model


def nb_predict(model: Sequence[tuple[int, float, list]], values: Sequence[int]) -> int:
    """Most probable class for a row of condition-attribute codes.

    The log prior plus each attribute's log likelihood, summed in
    attribute order; ties go to the lowest class code.  ``values`` holds
    one code per term of ``nb_train``'s model.
    """
    best_cls = None
    best_score = -math.inf
    for cls, score, terms in model:
        for (logs, unseen), value in zip(terms, values):
            score += logs.get(value, unseen)
        if score > best_score:
            best_cls, best_score = cls, score
    return best_cls


def fold_predictions(table: DecisionTable, train: Sequence[int], test: Sequence[int]) -> list[int]:
    """``nb_predict`` of each test row under ``nb_train`` on ``train``."""
    model = nb_train(table, train)
    rows = list(zip(*(table.column(a) for a in table.condition_attrs)))
    return [nb_predict(model, rows[i]) for i in test]


def cross_validate(table: DecisionTable, plan: FoldPlan) -> EvalReport:
    """Per-fold naive Bayes accuracies under a fixed fold plan."""
    rows = list(zip(*(table.column(a) for a in table.condition_attrs)))
    decisions = table.column(table.decision_attr)
    accuracies = []
    for fold in range(plan.k):
        train_rows, test_rows = plan.fold_rows(fold)
        if not train_rows or not test_rows:
            raise ValueError(f"fold {fold} leaves no training or no test rows")
        model = nb_train(table, train_rows)
        predicted = [nb_predict(model, rows[i]) for i in test_rows]
        correct = sum(p == decisions[i] for p, i in zip(predicted, test_rows))
        accuracies.append(correct / len(test_rows))
    return EvalReport("nb", table.condition_attrs, tuple(accuracies))

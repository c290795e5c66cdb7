"""Earlier forms of the evaluation layer, kept as a differential oracle.

Each piece is kept as it last stood in the library:

- Naive Bayes as counts: ``NBModel``, ``nb_train`` and ``nb_predict``
  kept the class and (value, class) counts of the training rows and took
  the log of every smoothed ratio again for each prediction.  The
  library now turns the counts into log terms once per fold.
- The row-major layout: a decision table used to be stored as one tuple
  per object, the condition-attribute codes in table order and then the
  decision code.  ``encode_rows``, ``nb_train_rows`` and
  ``onenn_predict_rows`` are that layout's encoder and classifiers; they
  read such rows as plain tuples instead of a ``DecisionTable``.
- Per-fold table rebuilds: ``cross_validate`` used to copy each fold's
  training rows into a new ``DecisionTable`` with ``subset``, fit a
  classifier on it through the ``CLASSIFIERS`` closures, and predict each
  test row from it; 1-NN (``onenn_predict``) compared the test row with
  every training row in a Python loop.

``tests/test_row_oracle.py`` and ``tests/test_onenn_oracle.py`` check
the library against them.  The tables here are in the keyed form of
``tests/keyed_table_oracle.py``; ``keyed`` restates a library table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import ne
from typing import Callable, Sequence

from keyed_table_oracle import DecisionTable
from rredux.evaluate import EvalReport, FoldPlan


@dataclass(frozen=True)
class NBModel:
    """Categorical naive Bayes counts with Laplace smoothing at predict time."""

    classes: tuple[int, ...]
    class_counts: tuple[int, ...]
    value_counts: tuple[dict[tuple[int, int], int], ...]  # per attr: (value, class) -> n
    domain_sizes: tuple[int, ...]
    total: int


def nb_train(table: DecisionTable, rows: Sequence[int]) -> NBModel:
    """Count class and per-attribute value frequencies on the given rows."""
    decision = table.column(table.decision_attr)
    decisions = [decision[i] for i in rows]
    class_counts = Counter(decisions)
    classes = tuple(sorted(class_counts))
    columns = (table.column(a) for a in table.condition_attrs)
    return NBModel(
        classes,
        tuple(class_counts[c] for c in classes),
        tuple(Counter(zip([column[i] for i in rows], decisions)) for column in columns),
        tuple(len(table.domains[a]) for a in table.condition_attrs),
        len(rows),
    )


def nb_predict(model: NBModel, values: Sequence[int]) -> int:
    """Most probable class for a row of condition-attribute codes.

    Log-space argmax of prior times smoothed likelihoods (add-one over
    the attribute's domain), so unseen values never zero out a class.
    Ties go to the lowest class code.  ``values`` holds one code per
    trained attribute.
    """
    best_cls = None
    best_score = -math.inf
    for cls, count in zip(model.classes, model.class_counts):
        score = math.log(count / model.total)
        for a, value in enumerate(values):
            seen = model.value_counts[a].get((value, cls), 0)
            score += math.log((seen + 1) / (count + model.domain_sizes[a]))
        if score > best_score:
            best_cls, best_score = cls, score
    return best_cls


def encode_rows(columns, decision_attr):
    """(condition attrs, rows, domains) of all-categorical columns.

    Codes are dense integers in first-appearance order.
    """
    by_name = {c.name: c for c in columns}
    condition = tuple(c.name for c in columns if c.name != decision_attr)
    ordered = [by_name[a] for a in condition] + [by_name[decision_attr]]

    domains: dict[str, tuple[str, ...]] = {}
    encoded: list[tuple[int, ...]] = []
    code_maps = []
    for col in ordered:
        codes: dict[str, int] = {}
        for cell in col.cells:
            if cell not in codes:
                codes[cell] = len(codes)
        code_maps.append(codes)
        domains[col.name] = tuple(codes)
    m = len(ordered[0].cells)
    for i in range(m):
        encoded.append(tuple(code_maps[j][ordered[j].cells[i]] for j in range(len(ordered))))
    return condition, tuple(encoded), domains


def nb_train_rows(rows, domain_sizes: Sequence[int]) -> NBModel:
    """Count class and per-attribute value frequencies on row-major training rows."""
    dec = len(domain_sizes)
    class_counts: dict[int, int] = {}
    value_counts: list[dict[tuple[int, int], int]] = [{} for _ in range(dec)]
    for row in rows:
        cls = row[dec]
        class_counts[cls] = class_counts.get(cls, 0) + 1
        for a, value in enumerate(row[:dec]):
            key = (value, cls)
            value_counts[a][key] = value_counts[a].get(key, 0) + 1
    classes = tuple(sorted(class_counts))
    return NBModel(
        classes,
        tuple(class_counts[c] for c in classes),
        tuple(value_counts),
        tuple(domain_sizes),
        len(rows),
    )


def onenn_predict_rows(rows, values: Sequence[int]) -> int:
    """Decision of the nearest row-major training row by Hamming distance.

    Distance ties go to the earliest training row.
    """
    dec = len(rows[0]) - 1
    if len(values) != dec:
        raise ValueError("value count does not match training attributes")
    best_row = None
    best_dist = dec + 1
    for row in rows:
        dist = sum(a != b for a, b in zip(row[:dec], values))
        if dist < best_dist:
            best_row, best_dist = row, dist
    return best_row[dec]


def subset(table: DecisionTable, rows: Sequence[int]) -> DecisionTable:
    """Row-subset of the table (same attributes, codes and domains)."""
    if not rows:
        raise ValueError("subset needs at least one row")
    codes = {a: tuple(column[i] for i in rows) for a, column in table.codes.items()}
    return DecisionTable(table.condition_attrs, table.decision_attr, codes, dict(table.domains))


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
    model = nb_train(train, range(train.m))
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
    return EvalReport(classifier, table.condition_attrs, tuple(accuracies))

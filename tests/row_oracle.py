"""Row-major reference code kept as a differential oracle.

A decision table used to be stored as one tuple per object: the
condition-attribute codes in table order, then the decision code.  These
are that layout's encoder and classifiers, kept close to their last
library form; they read such rows as plain tuples instead of a
``DecisionTable``.  ``tests/test_row_oracle.py`` checks the column-stored
table and classifiers against them.
"""

from __future__ import annotations

import math
from typing import Sequence

from rredux.evaluate import NBModel


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


def nb_train(rows, domain_sizes: Sequence[int]) -> NBModel:
    """Count class and per-attribute value frequencies on the training rows."""
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


def nb_predict(model: NBModel, values: Sequence[int]) -> int:
    """Log-space naive Bayes argmax; ties go to the lowest class code."""
    if len(values) != len(model.value_counts):
        raise ValueError("value count does not match trained attributes")
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


def onenn_predict(rows, values: Sequence[int]) -> int:
    """Decision of the nearest training row by Hamming distance.

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

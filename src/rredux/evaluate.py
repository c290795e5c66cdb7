"""Cross-validation harness comparing full and reduced attribute sets.

Folds are stratified: objects are shuffled within each decision class by
a seeded PRNG and dealt round-robin onto the folds, with the dealing
position carried across classes.  That keeps both the fold sizes and
each class's spread over folds within one object of even.  Two small
deterministic classifiers are built in: naive Bayes, whose ties go to the
lowest class code, and 1-NN under Hamming distance on the table's
per-value row masks (``table.row_masks``), whose ties go to the earliest
training row.  Accuracy deltas between the full table and a projection
are computed on identical fold assignments.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import ValidationError
from .table import DecisionTable, bitsets, project, row_masks


@dataclass(frozen=True)
class FoldPlan:
    """Per-object fold assignment for k-fold cross-validation."""

    k: int
    seed: int
    assignments: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("folds must be >= 2")
        if any(not 0 <= f < self.k for f in self.assignments):
            raise ValueError("fold index out of range")

    def fold_rows(self, fold: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(train rows, test rows) for one fold, in table order."""
        train = tuple(i for i, f in enumerate(self.assignments) if f != fold)
        test = tuple(i for i, f in enumerate(self.assignments) if f == fold)
        return train, test


@dataclass(frozen=True)
class EvalReport:
    """Accuracy of one classifier on one attribute set.

    ``delta`` is the reduced-minus-full mean accuracy of the comparison
    this report belongs to, or None for a standalone run.
    """

    classifier: str
    attrs: tuple[str, ...]
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    delta: float | None = None

    def __post_init__(self):
        if not self.fold_accuracies:
            raise ValueError("report needs at least one fold")
        for acc in self.fold_accuracies:
            if not 0.0 <= acc <= 1.0:
                raise ValueError(f"accuracy {acc} outside [0, 1]")
        mean = sum(self.fold_accuracies) / len(self.fold_accuracies)
        if not math.isclose(self.mean_accuracy, mean, rel_tol=0, abs_tol=1e-12):
            raise ValueError("mean_accuracy is not the mean of the folds")


def stratified_folds(table: DecisionTable, k: int, seed: int) -> FoldPlan:
    """Deal objects onto k folds, stratified by decision class.

    The dealing pointer continues from class to class, so total fold
    sizes stay balanced even when many classes have few objects.  A table
    with fewer objects than folds is short data: ``ValidationError``.
    """
    if k < 2:
        raise ValueError("folds must be >= 2")
    if k > table.m:
        raise ValidationError(f"{k} folds need at least {k} objects, got {table.m}")
    by_class: dict[int, list[int]] = {}
    for i, cls in enumerate(table.column(table.decision_attr)):
        by_class.setdefault(cls, []).append(i)
    rng = random.Random(seed)
    assignments = [0] * table.m
    next_fold = 0
    for cls in sorted(by_class):
        members = by_class[cls]
        rng.shuffle(members)
        for obj in members:
            assignments[obj] = next_fold
            next_fold = (next_fold + 1) % k
    return FoldPlan(k, seed, tuple(assignments))


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
    Ties go to the lowest class code.
    """
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


def nearest_row(masks: Sequence[Sequence[int]], train: int, values: Sequence[int]) -> int:
    """Index of the training row nearest to ``values`` by Hamming distance.

    ``masks`` are the table's ``table.row_masks`` and bit i of ``train`` is
    set when row i is a training row.  Every row's count of matching
    attributes is summed bit-sliced: bit i of ``planes[p]`` is bit p of
    row i's count.  Walking the planes from the highest down keeps the
    training rows with the most matches, i.e. the smallest distance, and
    of those the lowest set bit is the earliest row in table order.
    """
    if len(values) != len(masks):
        raise ValueError("value count does not match training attributes")
    if not train:
        raise ValueError("no training rows")
    planes: list[int] = []
    for codes, value in zip(masks, values):
        carry = codes[value]
        for p, plane in enumerate(planes):
            planes[p] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    best = train
    for plane in reversed(planes):
        kept = best & plane
        if kept:
            best = kept
    return (best & -best).bit_length() - 1


CLASSIFIERS = ("nb", "1nn")


def cross_validate(table: DecisionTable, plan: FoldPlan, classifier: str) -> EvalReport:
    """Per-fold accuracies of one classifier under a fixed fold plan.

    Each fold's classifier sees only the rows outside the fold.  ``nb``
    counts them by index; ``1nn`` takes them as one bitset over the
    table's ``table.row_masks``, built once.
    """
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {classifier!r}")
    if len(plan.assignments) != table.m:
        raise ValueError(
            f"fold plan covers {len(plan.assignments)} objects, the table has {table.m}"
        )
    rows = list(zip(*(table.column(a) for a in table.condition_attrs)))
    decisions = table.column(table.decision_attr)
    if classifier == "1nn":
        masks = row_masks(table)
        in_fold = bitsets(plan.assignments, plan.k)
        everyone = (1 << table.m) - 1
    accuracies = []
    for fold in range(plan.k):
        train_rows, test_rows = plan.fold_rows(fold)
        if not train_rows or not test_rows:
            raise ValueError(f"fold {fold} leaves no training or no test rows")
        if classifier == "nb":
            model = nb_train(table, train_rows)
            predicted = [nb_predict(model, rows[i]) for i in test_rows]
        else:
            train = everyone ^ in_fold[fold]
            predicted = [decisions[nearest_row(masks, train, rows[i])] for i in test_rows]
        correct = sum(p == decisions[i] for p, i in zip(predicted, test_rows))
        accuracies.append(correct / len(test_rows))
    mean = sum(accuracies) / len(accuracies)
    return EvalReport(classifier, table.condition_attrs, tuple(accuracies), mean)


def compare(
    table: DecisionTable,
    reduct: Sequence[str],
    k: int,
    seed: int,
    classifier: str,
) -> tuple[EvalReport, EvalReport]:
    """Evaluate the full table and its projection on identical folds.

    Returns (full, reduced) reports, each carrying the reduced-minus-full
    mean-accuracy delta.
    """
    attrs = tuple(reduct)
    if not attrs:
        raise ValueError("reduct must be non-empty")
    reduced_table = project(table, attrs)
    plan = stratified_folds(table, k, seed)
    full = cross_validate(table, plan, classifier)
    reduced = cross_validate(reduced_table, plan, classifier)
    delta = reduced.mean_accuracy - full.mean_accuracy
    return replace(full, delta=delta), replace(reduced, delta=delta)

"""Cross-validation harness comparing full and reduced attribute sets.

Folds are stratified: objects are shuffled within each decision class by
a seeded PRNG and dealt round-robin onto the folds, with the dealing
position carried across classes.  That keeps both the fold sizes and
each class's spread over folds within one object of even.  Two small
deterministic classifiers are built in: naive Bayes, trained once per
fold as log terms and scoring a row by lookups, whose ties go to the
lowest class code, and 1-NN under Hamming distance on the table's
per-value row masks (``table.row_masks``), whose ties go to the earliest
training row.  Accuracy deltas between the full table and a projection
are computed on identical fold assignments.
"""

from __future__ import annotations

import math
import random
from collections import Counter, namedtuple
from typing import NamedTuple, Sequence

from .errors import ValidationError
from .table import DecisionTable, bitsets, project, row_masks


class FoldPlan(namedtuple("FoldPlan", "k assignments")):
    """Per-object fold assignment for k-fold cross-validation."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` checks too

    def __new__(cls, k: int, assignments: tuple[int, ...]):
        if not isinstance(k, int) or k < 2:
            raise ValueError(f"folds must be an int >= 2, got {k!r}")
        if not all(isinstance(f, int) and 0 <= f < k for f in assignments):
            raise ValueError("fold index out of range")
        return super().__new__(cls, k, assignments)

    def fold_rows(self, fold: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(train rows, test rows) for one fold, in table order."""
        train = tuple(i for i, f in enumerate(self.assignments) if f != fold)
        test = tuple(i for i, f in enumerate(self.assignments) if f == fold)
        return train, test


class EvalReport(NamedTuple):
    """Accuracy of one classifier on one attribute set.

    ``cross_validate`` builds it: one accuracy in [0, 1] per fold, and
    ``mean_accuracy`` is their ``math.fsum`` over the fold count, which
    neither the fold order nor the Python version moves.
    """

    classifier: str
    attrs: tuple[str, ...]
    fold_accuracies: tuple[float, ...]

    @property
    def mean_accuracy(self) -> float:
        return math.fsum(self.fold_accuracies) / len(self.fold_accuracies)


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
    return FoldPlan(k, tuple(assignments))


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


def nearest_row(masks: Sequence[Sequence[int]], train: int, values: Sequence[int]) -> int:
    """Index of the training row nearest to ``values`` by Hamming distance.

    ``masks`` are the table's ``table.row_masks`` and bit i of ``train`` is
    set when row i is a training row.  Every row's count of matching
    attributes is summed bit-sliced: bit i of ``planes[p]`` is bit p of
    row i's count.  Walking the planes from the highest down keeps the
    training rows with the most matches, i.e. the smallest distance, and
    of those the lowest set bit is the earliest row in table order.
    ``values`` holds one code per mask list and ``train`` is non-zero.
    """
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
    is trained on them by index; ``1nn`` takes them as one bitset over the
    table's ``table.row_masks``.
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
    return EvalReport(classifier, table.condition_attrs, tuple(accuracies))


def compare(
    table: DecisionTable,
    reduct: Sequence[str],
    k: int,
    seed: int,
    classifier: str,
) -> tuple[EvalReport, EvalReport]:
    """Evaluate the full table and its projection on identical folds.

    Returns the (full, reduced) reports.
    """
    reduced_table = project(table, reduct)
    plan = stratified_folds(table, k, seed)
    full = cross_validate(table, plan, classifier)
    reduced = cross_validate(reduced_table, plan, classifier)
    return full, reduced

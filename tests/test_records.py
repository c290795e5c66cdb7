"""The library's records are immutable values.

Each record type, built by the library itself, survives ``copy``,
``deepcopy`` and a pickle round trip as an equal record, and refuses an
assignment to any of its fields.  A record whose constructor checks its
fields checks them again when ``_replace`` builds a changed copy.
"""

import copy
import pickle

import pytest

from rredux import chimerge, cross_validate, matrix, run_pipeline, stratified_folds
from rredux.discretize import IntervalMap
from rredux.evaluate import FoldPlan
from rredux.reduct import ass_gen

FIELDS = {
    "RawColumn": ("name", "domain", "codes"),
    "DecisionTable": ("condition", "decision"),
    "IntervalMap": ("cut_points", "labels"),
    "SimilarityMatrix": ("attrs", "values", "table"),
    "SimilarityElement": ("left", "right", "factor"),
    "SimilaritySet": ("elements", "avg_factor"),
    "ReductResult": ("reduct", "isolated", "trace"),
    "FoldPlan": ("k", "assignments"),
    "EvalReport": ("classifier", "attrs", "fold_accuracies"),
}


@pytest.fixture
def records(admissions):
    """One record of each type, as the library builds them."""
    mat = matrix(admissions)
    mat.relative  # a cached partition must not break a copy
    similarity_set = ass_gen(mat)
    plan = stratified_folds(admissions, 2, seed=3)
    found = [
        admissions.decision,
        admissions,
        chimerge([1.0, 2.0, 3.0, 4.0], ["a", "a", "b", "b"], threshold=0.0),
        mat,
        similarity_set.elements[0],
        similarity_set,
        run_pipeline(admissions),
        plan,
        cross_validate(admissions, plan, "nb"),
    ]
    assert sorted(type(r).__name__ for r in found) == sorted(FIELDS)
    return found


def test_copies_are_equal_records(records):
    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record)
            assert twin == record


def test_fields_cannot_be_assigned(records):
    for record in records:
        for name in FIELDS[type(record).__name__]:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_replace_checks_the_new_fields(admissions):
    column = admissions.decision
    with pytest.raises(ValueError, match="outside domain"):
        column._replace(codes=(0,) * (admissions.m - 1) + (5,))
    with pytest.raises(ValueError, match="expected 2 codes, got 8"):
        admissions._replace(decision=column._replace(codes=(0, 1)))
    with pytest.raises(ValueError, match="strictly increasing"):
        IntervalMap((1.0,))._replace(cut_points=(2.0, 1.0))
    with pytest.raises(ValueError, match="fold index out of range"):
        FoldPlan(2, (0, 1))._replace(assignments=(0, 2))


def test_replaced_map_derives_its_labels():
    moved = IntervalMap((1.0,))._replace(cut_points=(2.0,))
    assert moved == IntervalMap((2.0,))
    assert moved.labels == ("(-inf, 2)", "[2, inf)")

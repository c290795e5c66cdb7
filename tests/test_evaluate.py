import random
from collections import Counter

import pytest

from rredux import (
    EvalReport,
    RawColumn,
    ValidationError,
    compare,
    cross_validate,
    from_columns,
    stratified_folds,
)
from rredux.evaluate import FoldPlan, nb_predict, nb_train, nearest_row
from rredux.table import project, row_masks
from rredux.jsonout import canonical
from conftest import make_random_table


def fold_sizes(plan):
    counts = Counter(plan.assignments)
    return [counts.get(f, 0) for f in range(plan.k)]


class TestStratifiedFolds:
    def test_sample_table_two_folds(self, admissions):
        plan = stratified_folds(admissions, 2, seed=7)
        assert fold_sizes(plan) == [4, 4]
        dec = admissions.column("Decision")
        for cls in (0, 1):
            per_fold = Counter(
                plan.assignments[i] for i in range(admissions.m) if dec[i] == cls
            )
            spread = [per_fold.get(f, 0) for f in range(2)]
            assert max(spread) - min(spread) <= 1

    def test_leave_one_out(self, admissions):
        plan = stratified_folds(admissions, admissions.m, seed=0)
        assert sorted(fold_sizes(plan)) == [1] * admissions.m

    def test_determinism(self, admissions):
        a = stratified_folds(admissions, 3, seed=99)
        b = stratified_folds(admissions, 3, seed=99)
        assert a == b

    def test_bad_k(self, admissions):
        with pytest.raises(ValueError):
            stratified_folds(admissions, 1, seed=0)
        # more folds than objects is short data, not a bad k
        with pytest.raises(ValidationError, match="9 folds need at least 9 objects"):
            stratified_folds(admissions, admissions.m + 1, seed=0)

    def test_invariants_on_random_tables(self):
        rng = random.Random(71)
        for _ in range(200):
            table = make_random_table(rng)
            if table.m < 2:
                continue
            k = rng.randint(2, table.m)
            plan = stratified_folds(table, k, seed=rng.randrange(2**32))
            sizes = fold_sizes(plan)
            assert sum(sizes) == table.m
            assert max(sizes) - min(sizes) <= 1
            dec = table.column(table.decision_attr)
            for cls in set(dec):
                per_fold = Counter(
                    plan.assignments[i] for i in range(table.m) if dec[i] == cls
                )
                spread = [per_fold.get(f, 0) for f in range(k)]
                assert max(spread) - min(spread) <= 1

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FoldPlan(1, 0, (0,))
        with pytest.raises(ValueError):
            FoldPlan(2, 0, (0, 2))

    def test_fold_rows_partition_objects(self, admissions):
        plan = stratified_folds(admissions, 3, seed=5)
        seen = []
        for fold in range(3):
            train, test = plan.fold_rows(fold)
            assert sorted(train + test) == list(range(admissions.m))
            seen += list(test)
        assert sorted(seen) == list(range(admissions.m))


def condition_rows(table):
    """Per object, the condition-attribute codes in table order."""
    return list(zip(*(table.column(a) for a in table.condition_attrs)))


def onenn(table, train_rows, values):
    """The decision code 1-NN gives ``values`` from ``train_rows`` of ``table``."""
    train = sum(1 << i for i in train_rows)
    return table.column(table.decision_attr)[nearest_row(row_masks(table), train, values)]


def tiny_table(a_cells, d_cells):
    return from_columns(
        [RawColumn("a", "categorical", tuple(a_cells)),
         RawColumn("d", "categorical", tuple(d_cells))],
        "d",
    )


class TestNaiveBayes:
    def test_hand_posterior(self):
        train = tiny_table(("0", "0", "1", "1"), ("c0", "c0", "c1", "c1"))
        model = nb_train(train, range(train.m))
        # alpha=1: P(a=0|c0) = 3/4 vs P(a=0|c1) = 1/4, equal priors
        assert nb_predict(model, (0,)) == 0
        assert nb_predict(model, (1,)) == 1

    def test_single_class_always_wins(self):
        train = tiny_table(("0", "1", "2"), ("only", "only", "only"))
        model = nb_train(train, range(train.m))
        for value in range(3):
            assert nb_predict(model, (value,)) == 0

    def test_unseen_value_is_smoothed(self):
        cols = [
            RawColumn("a", "categorical", ("0", "0", "1", "1", "2")),
            RawColumn("d", "categorical", ("y", "y", "n", "n", "n")),
        ]
        full = from_columns(cols, "d")
        model = nb_train(full, [0, 1, 2, 3])  # value "2" never seen in training
        assert nb_predict(model, (2,)) in (0, 1)

    def test_tie_breaks_to_lowest_class_code(self):
        train = tiny_table(("0", "0"), ("first", "second"))
        model = nb_train(train, range(train.m))
        assert nb_predict(model, (0,)) == 0

    def test_wrong_arity(self):
        model = nb_train(tiny_table(("0",), ("y",)), [0])
        with pytest.raises(ValueError):
            nb_predict(model, (0, 0))


class TestOneNearestNeighbour:
    def test_exact_match_wins(self, admissions):
        rows = condition_rows(admissions)
        decision = admissions.column("Decision")
        for i in range(admissions.m):
            assert onenn(admissions, [i], rows[i]) == decision[i]

    def test_sample_query(self, admissions):
        # x5 = (MSc, Medium, Yes, Neutral); nearest of the rest is x4 at
        # distance 1, decision Accept
        predicted = onenn(admissions, [0, 1, 2, 3, 5, 6, 7], condition_rows(admissions)[4])
        assert admissions.domains["Decision"][predicted] == "Accept"

    def test_identical_training_rows(self):
        # the held-out fourth row gives the query value 1 a code
        table = tiny_table(("0", "0", "0", "1"), ("y", "y", "y", "n"))
        assert onenn(table, [0, 1, 2], (1,)) == 0

    def test_distance_tie_keeps_earliest_row(self):
        # query "2" is at distance 1 from both training rows
        table = tiny_table(("0", "1", "2"), ("first", "second", "first"))
        assert table.domains["d"][onenn(table, [0, 1], (2,))] == "first"

    def test_wrong_arity(self, admissions):
        with pytest.raises(ValueError):
            onenn(admissions, range(admissions.m), (0,))


class TestCrossValidateAndCompare:
    def test_report_shape(self, admissions):
        plan = stratified_folds(admissions, 4, seed=11)
        report = cross_validate(admissions, plan, "nb")
        assert report.classifier == "nb"
        assert report.attrs == admissions.condition_attrs
        assert len(report.fold_accuracies) == 4
        assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)
        assert report.mean_accuracy == pytest.approx(
            sum(report.fold_accuracies) / 4
        )

    def test_unknown_classifier(self, admissions):
        plan = stratified_folds(admissions, 2, seed=0)
        with pytest.raises(ValueError, match="j48"):
            cross_validate(admissions, plan, "j48")

    def test_full_reduct_delta_exactly_zero(self, admissions):
        full, reduced = compare(admissions, admissions.condition_attrs, 4, 3, "nb")
        assert full.delta == 0.0
        assert reduced.delta == 0.0
        assert full.fold_accuracies == reduced.fold_accuracies

    def test_single_class_dataset_scores_one(self):
        table = tiny_table(("0", "1", "0", "1"), ("y", "y", "y", "y"))
        for classifier in ("nb", "1nn"):
            full, reduced = compare(table, ("a",), 2, 5, classifier)
            assert full.mean_accuracy == 1.0
            assert reduced.mean_accuracy == 1.0

    def test_fixed_seed_reports_are_byte_identical(self, admissions):
        def render():
            full, reduced = compare(admissions, ("e", "r"), 2, 42, "nb")
            return canonical(
                {
                    "full": list(full.fold_accuracies),
                    "reduced": list(reduced.fold_accuracies),
                    "delta": full.delta,
                }
            )

        assert render() == render()

    def test_delta_matches_means(self, admissions):
        for classifier in ("nb", "1nn"):
            full, reduced = compare(admissions, ("e", "r"), 2, 9, classifier)
            assert full.delta == pytest.approx(
                reduced.mean_accuracy - full.mean_accuracy
            )
            assert full.attrs == admissions.condition_attrs
            assert reduced.attrs == ("e", "r")

    def test_projection_consistency_with_manual_run(self, admissions):
        plan = stratified_folds(admissions, 2, seed=13)
        reduced_direct = cross_validate(project(admissions, ("e", "r")), plan, "1nn")
        _, reduced_via_compare = compare(admissions, ("e", "r"), 2, 13, "1nn")
        assert reduced_direct.fold_accuracies == reduced_via_compare.fold_accuracies

    def test_plan_must_fit_the_table(self, admissions):
        for classifier in ("nb", "1nn"):
            with pytest.raises(ValueError, match="covers 7 objects, the table has 8"):
                cross_validate(admissions, FoldPlan(2, 0, (0, 1) * 3 + (0,)), classifier)
            # every object in fold 0: fold 0 trains on nothing, fold 1 tests nothing
            with pytest.raises(ValueError, match="fold 0 leaves no training"):
                cross_validate(admissions, FoldPlan(2, 0, (0,) * 8), classifier)

    def test_empty_reduct_rejected(self, admissions):
        with pytest.raises(ValueError):
            compare(admissions, (), 2, 0, "nb")

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            EvalReport("nb", ("a",), (0.5, 0.7), 0.9)
        with pytest.raises(ValueError):
            EvalReport("nb", ("a",), (1.5,), 1.5)
        with pytest.raises(ValueError):
            EvalReport("nb", ("a",), (), 0.0)

    def test_accuracies_bounded_on_random_tables(self):
        rng = random.Random(83)
        for _ in range(60):
            table = make_random_table(rng)
            if table.m < 2:
                continue
            k = rng.randint(2, min(table.m, 5))
            classifier = rng.choice(["nb", "1nn"])
            plan = stratified_folds(table, k, seed=rng.randrange(2**16))
            report = cross_validate(table, plan, classifier)
            assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)

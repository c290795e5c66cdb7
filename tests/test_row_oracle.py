"""Column-stored tables and classifiers against the row-major code they
replaced, kept in ``row_oracle``, on seeded random tables."""

import random
from collections import Counter

import row_oracle
from rredux import RawColumn, cross_validate, from_columns, stratified_folds
from rredux.evaluate import CLASSIFIERS, nb_predict, nb_train, nearest_row, row_masks

TABLES = 240


def random_columns(rng, index):
    """1-60 rows, 1-6 condition attributes of arity 1-6, the decision anywhere;
    every 20th table has one row and every 7th one class."""
    m = 1 if index % 20 == 0 else rng.randint(1, 60)
    columns = []
    for a in range(rng.randint(1, 6)):
        arity = rng.randint(1, 6)
        columns.append(
            RawColumn(f"a{a}", "categorical", tuple(f"v{rng.randrange(arity)}" for _ in range(m)))
        )
    classes = 1 if index % 7 == 0 else rng.randint(1, 4)
    decision = tuple(f"c{rng.randrange(classes)}" for _ in range(m))
    columns.insert(rng.randint(0, len(columns)), RawColumn("d", "categorical", decision))
    return columns


def oracle_predictions(rows, domain_sizes, train, test):
    train_rows = [rows[i] for i in train]
    model = row_oracle.nb_train(train_rows, domain_sizes)
    dec = len(domain_sizes)
    return {
        "nb": [row_oracle.nb_predict(model, rows[i][:dec]) for i in test],
        "1nn": [row_oracle.onenn_predict(train_rows, rows[i][:dec]) for i in test],
    }


def table_predictions(table, train, test):
    rows = list(zip(*(table.column(a) for a in table.condition_attrs)))
    decisions = table.column(table.decision_attr)
    model = nb_train(table, train)
    masks = row_masks(table)
    train_bits = sum(1 << i for i in train)
    return {
        "nb": [nb_predict(model, rows[i]) for i in test],
        "1nn": [decisions[nearest_row(masks, train_bits, rows[i])] for i in test],
    }


def test_columns_and_classifiers_match_row_oracle():
    rng = random.Random(5)
    shapes = Counter()
    for index in range(TABLES):
        columns = random_columns(rng, index)
        table = from_columns(columns, "d")
        condition, rows, domains = row_oracle.encode_rows(columns, "d")
        assert table.condition_attrs == condition
        assert table.domains == domains
        names = condition + ("d",)
        assert tuple(zip(*(table.column(a) for a in names))) == rows

        sizes = [len(domains[a]) for a in condition]
        assert nb_train(table, range(table.m)) == row_oracle.nb_train(rows, sizes)
        # train on every row and predict every row: the only split of one row
        everything = range(table.m)
        assert table_predictions(table, everything, everything) == oracle_predictions(
            rows, sizes, everything, everything
        )
        shapes["single row"] += table.m == 1
        shapes["single class"] += len(domains["d"]) == 1
        if table.m < 2:
            continue

        k = rng.randint(2, min(table.m, 5))
        plan = stratified_folds(table, k, rng.randrange(1000))
        accuracies = {name: [] for name in CLASSIFIERS}
        for fold in range(k):
            train, test = plan.fold_rows(fold)
            want = oracle_predictions(rows, sizes, train, test)
            assert table_predictions(table, train, test) == want
            for name, predicted in want.items():
                correct = sum(p == rows[i][-1] for p, i in zip(predicted, test))
                accuracies[name].append(correct / len(test))
        for name in CLASSIFIERS:
            assert cross_validate(table, plan, name).fold_accuracies == tuple(accuracies[name])
        shapes["cross-validated"] += 1
    assert min(shapes.values()) >= 10, shapes

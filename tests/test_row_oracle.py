"""Column-stored tables and classifiers against the row-major code and
the count-based naive Bayes they replaced, kept in ``eval_oracle``, on
seeded random tables."""

import random
from collections import Counter

import eval_oracle
from rredux import cross_validate, from_columns, stratified_folds
from rredux.evaluate import CLASSIFIERS, nb_predict, nb_train, nearest_row
from rredux.table import row_masks
from conftest import raw_column
from keyed_table_oracle import keyed

TABLES = 240


def random_columns(rng, index):
    """1-60 rows, 1-6 condition attributes of arity 1-6, the decision anywhere;
    every 20th table has one row and every 7th one class."""
    m = 1 if index % 20 == 0 else rng.randint(1, 60)
    columns = []
    for a in range(rng.randint(1, 6)):
        arity = rng.randint(1, 6)
        columns.append(
            raw_column(f"a{a}", tuple(f"v{rng.randrange(arity)}" for _ in range(m)))
        )
    classes = 1 if index % 7 == 0 else rng.randint(1, 4)
    decision = tuple(f"c{rng.randrange(classes)}" for _ in range(m))
    columns.insert(rng.randint(0, len(columns)), raw_column("d", decision))
    return columns


def oracle_predictions(rows, domain_sizes, train, test):
    train_rows = [rows[i] for i in train]
    model = eval_oracle.nb_train_rows(train_rows, domain_sizes)
    dec = len(domain_sizes)
    return {
        "nb": [eval_oracle.nb_predict(model, rows[i][:dec]) for i in test],
        "1nn": [eval_oracle.onenn_predict_rows(train_rows, rows[i][:dec]) for i in test],
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
        condition, rows, domains = eval_oracle.encode_rows(columns, "d")
        assert table.condition_attrs == condition
        assert keyed(table).domains == domains
        names = condition + ("d",)
        assert tuple(zip(*(table.column(a) for a in names))) == rows

        sizes = [len(domains[a]) for a in condition]
        assert (eval_oracle.nb_train(keyed(table), range(table.m))
                == eval_oracle.nb_train_rows(rows, sizes))
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


def test_nb_log_terms_match_count_oracle():
    """Log terms trained once per fold predict what the per-prediction
    count model did, including codes unseen in training and classes
    absent from the training rows."""
    rng = random.Random(11)
    shapes = Counter()
    for index in range(TABLES):
        table = from_columns(random_columns(rng, index), "d")
        decisions = table.column("d")
        train = sorted(rng.sample(range(table.m), rng.randint(1, table.m)))
        model = nb_train(table, train)
        oracle = eval_oracle.nb_train(keyed(table), train)
        # every row of the table, then random rows over the whole domains
        rows = list(zip(*(table.column(a) for a in table.condition_attrs)))
        sizes = [len(col.domain) for col in table.condition]
        rows += [tuple(rng.randrange(n) for n in sizes) for _ in range(20)]
        for values in rows:
            assert nb_predict(model, values) == eval_oracle.nb_predict(oracle, values)
        seen = [{table.column(a)[i] for i in train} for a in table.condition_attrs]
        shapes["unseen code"] += any(
            v not in codes for values in rows for v, codes in zip(values, seen)
        )
        shapes["absent class"] += len({decisions[i] for i in train}) < len(set(decisions))
    assert min(shapes.values()) >= 10, shapes

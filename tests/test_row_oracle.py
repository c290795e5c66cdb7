"""Column-stored tables and classifiers against the row-major code and
the count-based naive Bayes they replaced, kept in ``eval_oracle``, on
seeded random tables."""

import random
from collections import Counter

import eval_oracle
from rredux import cross_validate, from_columns, stratified_folds
from rredux.evaluate import CLASSIFIERS, nearest_row
from rredux.table import DecisionTable, row_masks
from conftest import nb_classes, raw_column
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


def onenn_predictions(table, train, test):
    rows = list(zip(*(table.column(a) for a in table.condition_attrs)))
    decisions = table.column(table.decision_attr)
    masks = row_masks(table)
    train_bits = sum(1 << i for i in train)
    return [decisions[nearest_row(masks, train_bits, rows[i])] for i in test]


def table_predictions(table, train, test):
    """Naive Bayes trains on the rows outside ``test``, as in
    ``cross_validate``; ``train`` holds just those rows."""
    return {"nb": nb_classes(table, test), "1nn": onenn_predictions(table, train, test)}


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
        # 1-NN trained on every row predicts every row: the only split of
        # one row; naive Bayes never predicts the rows it trains on
        everything = range(table.m)
        assert onenn_predictions(table, everything, everything) == oracle_predictions(
            rows, sizes, everything, everything
        )["1nn"]
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
    """Log terms built per fold from counts over all rows, less the test
    rows' own, predict what the per-prediction count model did, including
    codes unseen in training and classes absent from the training rows."""
    rng = random.Random(11)
    shapes = Counter()
    for index in range(TABLES):
        table = from_columns(random_columns(rng, index), "d")
        train = sorted(rng.sample(range(table.m), rng.randint(1, table.m)))
        # every row outside train, then 20 more rows over the whole domains
        columns = [
            col._replace(codes=col.codes + tuple(rng.randrange(len(col.domain)) for _ in range(20)))
            for col in table.condition + (table.decision,)
        ]
        table = DecisionTable(columns[:-1], columns[-1])
        test = sorted(set(range(table.m)).difference(train))
        oracle = eval_oracle.nb_train(keyed(table), train)
        rows = list(zip(*(table.column(a) for a in table.condition_attrs)))
        assert nb_classes(table, test) == [eval_oracle.nb_predict(oracle, rows[i]) for i in test]
        seen = [{table.column(a)[i] for i in train} for a in table.condition_attrs]
        shapes["unseen code"] += any(
            v not in codes for i in test for v, codes in zip(rows[i], seen)
        )
        decisions = table.column("d")
        shapes["absent class"] += len({decisions[i] for i in train}) < len(set(decisions))
    assert min(shapes.values()) >= 10, shapes

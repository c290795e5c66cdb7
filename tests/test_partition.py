import random

import pytest

from rredux import (
    RawColumn,
    blocks,
    consistency,
    decision_blocks,
    from_columns,
    relative_blocks,
)
from conftest import block_sets, make_random_table


def naive_relative_partition(table, attr):
    """Independent oracle: group by the pairwise relation
    "related iff same attribute value and same decision value"."""
    col = table.column(attr)
    dec = table.column(table.decision_attr)
    assigned = [None] * table.m
    result = []
    for i in range(table.m):
        if assigned[i] is not None:
            continue
        block = [
            j
            for j in range(table.m)
            if col[j] == col[i] and dec[j] == dec[i]
        ]
        for j in block:
            assigned[j] = True
        result.append(tuple(block))
    return tuple(result)


def refines(p, q) -> bool:
    qsets = [set(b) for b in q]
    return all(any(set(b) <= qb for qb in qsets) for b in p)


def ids(table, blks):
    return block_sets(
        tuple(tuple(f"x{i + 1}" for i in block) for block in blks)
    )


def groups(*named_blocks):
    return block_sets(named_blocks)


class TestSampleTableGoldens:
    def test_plain_partitions(self, admissions):
        assert ids(admissions, blocks(admissions, ["i"])) == groups(
            ("x1", "x2", "x7"), ("x3", "x8"), ("x4", "x5", "x6")
        )
        assert ids(admissions, blocks(admissions, ["e"])) == groups(
            ("x1", "x5"), ("x2", "x3", "x8"), ("x4", "x6", "x7")
        )
        assert ids(admissions, blocks(admissions, ["f"])) == groups(
            ("x1", "x2", "x3", "x4", "x5", "x6"), ("x7", "x8")
        )
        assert ids(admissions, blocks(admissions, ["r"])) == groups(
            ("x1", "x6", "x8"), ("x2", "x4", "x5"), ("x3", "x7")
        )

    def test_decision_partition(self, admissions):
        assert ids(admissions, decision_blocks(admissions)) == groups(
            ("x1", "x4", "x7"), ("x2", "x3", "x5", "x6", "x8")
        )

    def test_relative_partitions(self, admissions):
        assert ids(admissions, relative_blocks(admissions, "i")) == groups(
            ("x1", "x7"), ("x2",), ("x3", "x8"), ("x4",), ("x5", "x6")
        )
        assert ids(admissions, relative_blocks(admissions, "e")) == groups(
            ("x1",), ("x5",), ("x2", "x3", "x8"), ("x4", "x7"), ("x6",)
        )
        assert ids(admissions, relative_blocks(admissions, "f")) == groups(
            ("x1", "x4"), ("x2", "x3", "x5", "x6"), ("x7",), ("x8",)
        )

    def test_relative_partition_r_splits_mixed_decisions(self, admissions):
        # x3 and x7 share r=Good but decide differently, so they cannot
        # share a decision-refined block.
        assert ids(admissions, relative_blocks(admissions, "r")) == groups(
            ("x1",), ("x2", "x5"), ("x3",), ("x4",), ("x6", "x8"), ("x7",)
        )

    def test_multi_attribute_partition_all_distinct(self, admissions):
        full = blocks(admissions, admissions.condition_attrs)
        assert len(full) == 8

    def test_relative_equals_oracle(self, admissions):
        for attr in admissions.condition_attrs:
            assert block_sets(relative_blocks(admissions, attr)) == block_sets(
                naive_relative_partition(admissions, attr)
            )


class TestArguments:
    def test_empty_attrs(self, admissions):
        with pytest.raises(ValueError):
            blocks(admissions, [])

    def test_unknown_attr(self, admissions):
        with pytest.raises(ValueError):
            blocks(admissions, ["z"])

    def test_relative_on_decision(self, admissions):
        with pytest.raises(ValueError):
            relative_blocks(admissions, "Decision")

    def test_constant_attribute_gives_decision_partition(self):
        cols = [
            RawColumn("a", "categorical", ("k", "k", "k", "k")),
            RawColumn("d", "categorical", ("y", "n", "y", "n")),
        ]
        table = from_columns(cols, "d")
        assert block_sets(relative_blocks(table, "a")) == block_sets(
            decision_blocks(table)
        )


class TestPartitionLaws:
    def test_laws_and_oracle_on_random_tables(self):
        rng = random.Random(91)
        for _ in range(200):
            table = make_random_table(rng)
            for attr in table.condition_attrs:
                part = relative_blocks(table, attr)
                flat = [i for block in part for i in block]
                # disjoint cover with no empty blocks
                assert sorted(flat) == list(range(table.m))
                assert all(block for block in part)
                # canonical order: ascending inside, ordered by minimum
                assert all(list(block) == sorted(block) for block in part)
                assert [b[0] for b in part] == sorted(b[0] for b in part)
                # pairwise-relation oracle
                assert block_sets(part) == block_sets(
                    naive_relative_partition(table, attr)
                )
                # refinement of both parents
                assert refines(part, blocks(table, [attr]))
                assert refines(part, decision_blocks(table))


class TestConsistency:
    def test_full_attribute_set(self, admissions):
        assert consistency(admissions) == 1.0
        assert consistency(admissions, admissions.condition_attrs) == 1.0

    def test_single_attribute_f(self, admissions):
        # brute force: neither block of U/f is decision-pure
        assert consistency(admissions, ["f"]) == 0.0

    def test_reduced_set(self, admissions):
        assert consistency(admissions, ["e", "r"]) == 1.0

    def test_single_object(self):
        table = from_columns(
            [RawColumn("a", "categorical", ("u",)),
             RawColumn("d", "categorical", ("y",))],
            "d",
        )
        assert consistency(table) == 1.0

    def test_matches_brute_force_on_random_tables(self):
        rng = random.Random(17)
        for _ in range(100):
            table = make_random_table(rng)
            attrs = [
                a for a in table.condition_attrs if rng.random() < 0.6
            ] or [table.condition_attrs[0]]
            columns = [table.column(a) for a in attrs]
            dec = table.column(table.decision_attr)
            pure = 0
            for i in range(table.m):
                key = tuple(c[i] for c in columns)
                twins = [
                    j
                    for j in range(table.m)
                    if tuple(c[j] for c in columns) == key
                ]
                if len({dec[j] for j in twins}) == 1:
                    pure += 1
            assert consistency(table, attrs) == pure / table.m

import random
from fractions import Fraction

import pytest

from rredux import (
    RawColumn,
    blocks,
    from_columns,
    matrix,
    relative_blocks,
)
from conftest import factor_of, make_random_table
from member_count_oracle import factor


def brute_force_factor(source, target):
    """Independent oracle: full double loop over block pairs with
    membership-test intersections, accumulated exactly."""
    total = Fraction(0)
    for b in source:
        best = 0
        for t in target:
            overlap = sum(1 for x in b if x in t)
            best = max(best, overlap)
        total += Fraction(best, len(b))
    return float(total / len(source))


def refines(p, q) -> bool:
    qsets = [set(b) for b in q]
    return all(any(set(b) <= qb for qb in qsets) for b in p)


class TestFactorGoldens:
    def test_sample_pairs(self, admissions):
        rel = {a: relative_blocks(admissions, a) for a in admissions.condition_attrs}
        assert factor(rel["i"], rel["e"]) == pytest.approx(0.8)
        assert factor(rel["e"], rel["i"]) == pytest.approx(5 / 6)
        assert factor(rel["f"], rel["i"]) == pytest.approx(0.75)
        assert factor(rel["e"], rel["r"]) == pytest.approx(23 / 30)
        assert factor(rel["r"], rel["f"]) == pytest.approx(11 / 12)

    def test_self_similarity_exactly_one(self, admissions):
        for attr in admissions.condition_attrs:
            rel = relative_blocks(admissions, attr)
            assert factor(rel, rel) == 1.0

    def test_asymmetry_witness(self, admissions):
        rel_e = relative_blocks(admissions, "e")
        rel_i = relative_blocks(admissions, "i")
        assert factor(rel_e, rel_i) != factor(rel_i, rel_e)


class TestMatrix:
    def test_sample_matrix_values(self, admissions):
        mat = matrix(admissions)
        assert mat.attrs == ("i", "e", "f", "r")
        expected = {
            ("i", "e"): Fraction(4, 5),
            ("i", "f"): Fraction(4, 5),
            ("i", "r"): Fraction(7, 10),
            ("e", "i"): Fraction(5, 6),
            ("e", "f"): Fraction(5, 6),
            ("e", "r"): Fraction(23, 30),
            ("f", "i"): Fraction(3, 4),
            ("f", "e"): Fraction(3, 4),
            ("f", "r"): Fraction(3, 4),
            ("r", "i"): Fraction(5, 6),
            ("r", "e"): Fraction(5, 6),
            ("r", "f"): Fraction(11, 12),
        }
        for (src, tgt), value in expected.items():
            assert factor_of(mat, src, tgt) == pytest.approx(float(value)), (src, tgt)

    def test_diagonal_fixed_at_one(self, admissions):
        mat = matrix(admissions)
        for k in range(len(mat.attrs)):
            assert mat.values[k][k] == 1.0

    def test_bounds(self, admissions):
        mat = matrix(admissions)
        for row in mat.values:
            for value in row:
                assert 0.0 < value <= 1.0

    def test_identical_columns_score_one_both_ways(self):
        cols = [
            RawColumn("a", "categorical", ("u", "u", "v", "v")),
            RawColumn("b", "categorical", ("u", "u", "v", "v")),
            RawColumn("d", "categorical", ("y", "n", "y", "n")),
        ]
        mat = matrix(from_columns(cols, "d"))
        assert factor_of(mat, "a", "b") == 1.0
        assert factor_of(mat, "b", "a") == 1.0

    def test_single_attribute(self):
        cols = [
            RawColumn("a", "categorical", ("u", "v")),
            RawColumn("d", "categorical", ("y", "n")),
        ]
        mat = matrix(from_columns(cols, "d"))
        assert mat.values == ((1.0,),)


class TestProperties:
    def test_oracle_equivalence_and_bounds(self):
        rng = random.Random(23)
        for _ in range(200):
            table = make_random_table(rng)
            mat = matrix(table)
            rel = {a: relative_blocks(table, a) for a in table.condition_attrs}
            for src in table.condition_attrs:
                for tgt in table.condition_attrs:
                    value = factor_of(mat, src, tgt)
                    assert value == brute_force_factor(rel[src], rel[tgt])
                    assert 0.0 < value <= 1.0

    def test_one_iff_refines(self):
        rng = random.Random(41)
        checked_true = checked_false = 0
        for _ in range(150):
            table = make_random_table(rng, min_attrs=2)
            parts = [relative_blocks(table, a) for a in table.condition_attrs]
            parts.append(blocks(table, [table.decision_attr]))
            for p in parts:
                for q in parts:
                    if refines(p, q):
                        assert factor(p, q) == 1.0
                        checked_true += 1
                    else:
                        assert factor(p, q) < 1.0
                        checked_false += 1
        assert checked_true and checked_false

    def test_relative_refines_decision_scores_one(self):
        # every decision-refined partition nests inside U/D by construction
        rng = random.Random(5)
        for _ in range(50):
            table = make_random_table(rng)
            dec = blocks(table, [table.decision_attr])
            for attr in table.condition_attrs:
                assert factor(relative_blocks(table, attr), dec) == 1.0

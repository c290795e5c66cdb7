import random
from collections import Counter

import pytest

from rredux import (
    SimilarityMatrix,
    ass_gen,
    comp_sim,
    from_columns,
    matrix,
    run_pipeline,
    sin_red_gen,
)
from rredux.reduct import SimilarityElement, SimilaritySet, select_pairs
from rredux.jsonout import canonical
from conftest import make_random_table, raw_column


def edge_view(elements):
    return [(el.left, el.right, el.factor) for el in elements]


def twin_column_table():
    """Five objects; a and b are identical columns, c is independent."""
    cols = [
        raw_column("a", ("u", "u", "v", "v", "u")),
        raw_column("b", ("u", "u", "v", "v", "u")),
        raw_column("c", ("u", "u", "u", "v", "v")),
        raw_column("d", ("n", "y", "n", "y", "y")),
    ]
    return from_columns(cols, "d")


def hand_matrix(attrs, values):
    return SimilarityMatrix(
        attrs, tuple(tuple(float(v) for v in row) for row in values)
    )


def stage_elements():
    """Every element select_pairs, ass_gen and comp_sim build on random tables."""
    rng = random.Random(7)
    elements = []
    for _ in range(100):
        mat = matrix(make_random_table(rng, min_attrs=2))
        for stage in (select_pairs(mat), ass_gen(mat), comp_sim(ass_gen(mat))):
            elements += stage.elements
    assert any(len(el.right) > 1 for el in elements)  # compounds are covered
    return elements


class TestElementAndSetInvariants:
    """Only the stages build elements, so their output carries the invariants."""

    def test_left_not_in_right(self):
        assert all(el.left not in el.right for el in stage_elements())

    def test_right_non_empty(self):
        assert all(el.right for el in stage_elements())

    def test_right_unique(self):
        assert all(len(set(el.right)) == len(el.right) for el in stage_elements())


class TestAssGen:
    def test_sample_selection(self, admissions):
        selected = select_pairs(matrix(admissions))
        assert edge_view(selected.elements) == [
            ("e", ("i",), pytest.approx(5 / 6)),
            ("i", ("f",), pytest.approx(4 / 5)),
            ("r", ("i",), pytest.approx(5 / 6)),
            ("e", ("f",), pytest.approx(5 / 6)),
            ("r", ("e",), pytest.approx(5 / 6)),
            ("r", ("f",), pytest.approx(11 / 12)),
        ]
        assert selected.avg_factor == pytest.approx(101 / 120)

    def test_sample_filter_keeps_strict_exceeders(self, admissions):
        filtered = ass_gen(matrix(admissions))
        assert [(el.left, el.right) for el in filtered.elements] == [("r", ("f",))]
        assert filtered.avg_factor == pytest.approx(101 / 120)

    def test_tie_keeps_earlier_indexed_source(self):
        mat = hand_matrix(("a", "b"), ((1.0, 0.5), (0.5, 1.0)))
        selected = select_pairs(mat)
        assert edge_view(selected.elements) == [("a", ("b",), 0.5)]
        assert ass_gen(mat).elements == ()

    def test_all_equal_factors_filter_to_empty(self):
        mat = hand_matrix(
            ("a", "b", "c"),
            ((1.0, 0.6, 0.6), (0.6, 1.0, 0.6), (0.6, 0.6, 1.0)),
        )
        assert ass_gen(mat).elements == ()

    def test_factor_equal_to_exact_mean_dropped(self):
        # selected 1/6, 1/8, 1/12: the exact mean is 1/8, while a float
        # running sum in this order lands one ulp below it
        mat = hand_matrix(
            ("a", "b", "c"),
            ((1, 1 / 6, 1 / 8), (1 / 24, 1, 1 / 12), (1 / 24, 1 / 24, 1)),
        )
        selected = select_pairs(mat)
        assert [el.factor for el in selected.elements] == [1 / 6, 1 / 8, 1 / 12]
        assert selected.avg_factor == 0.125
        assert edge_view(ass_gen(mat).elements) == [("a", ("b",), 1 / 6)]

    def test_single_attribute_degenerates_to_empty(self):
        assert ass_gen(hand_matrix(("a",), ((1.0,),))).elements == ()

    def test_cardinality_on_random_tables(self):
        rng = random.Random(3)
        for _ in range(100):
            table = make_random_table(rng, min_attrs=2)
            n = len(table.condition_attrs)
            mat = matrix(table)
            selected = select_pairs(mat)
            assert len(selected.elements) == n * (n - 1) // 2
            assert all(len(el.right) == 1 and el.factor is not None
                       for el in selected.elements)
            seen = {frozenset((el.left, el.right[0])) for el in selected.elements}
            assert len(seen) == n * (n - 1) // 2
            filtered = ass_gen(mat)
            assert all(el.factor > filtered.avg_factor for el in filtered.elements)
            lefts = [el.left for el in comp_sim(filtered).elements]
            assert len(set(lefts)) == len(lefts)


class TestCompSim:
    def test_merges_shared_lefts_in_first_seen_order(self):
        els = (
            SimilarityElement("e", ("i",), 0.9),
            SimilarityElement("i", ("f",), 0.8),
            SimilarityElement("e", ("f",), 0.85),
            SimilarityElement("r", ("f",), 0.8),
        )
        compound = comp_sim(SimilaritySet(els, 0.7))
        assert [(el.left, el.right) for el in compound.elements] == [
            ("e", ("i", "f")),
            ("i", ("f",)),
            ("r", ("f",)),
        ]
        assert all(el.factor is None for el in compound.elements)

    def test_distinct_lefts_pass_through(self):
        els = (
            SimilarityElement("a", ("b",), 0.9),
            SimilarityElement("c", ("b",), 0.8),
        )
        compound = comp_sim(SimilaritySet(els, 0.5))
        assert [(el.left, el.right) for el in compound.elements] == [
            ("a", ("b",)),
            ("c", ("b",)),
        ]

    def test_empty_passes_through(self):
        assert comp_sim(SimilaritySet(())).elements == ()

    def test_content_preserved_on_random_tables(self):
        rng = random.Random(13)
        for _ in range(100):
            table = make_random_table(rng, min_attrs=2)
            filtered = ass_gen(matrix(table))
            compound = comp_sim(filtered)
            before = Counter(
                (el.left, r) for el in filtered.elements for r in el.right
            )
            after = Counter(
                (el.left, r) for el in compound.elements for r in el.right
            )
            assert before == after


class TestSinRedGen:
    def test_sample_selection(self, admissions):
        compound = comp_sim(ass_gen(matrix(admissions)))
        result = sin_red_gen(compound, admissions.condition_attrs)
        assert result.reduct == ("r", "i", "e")
        assert result.isolated == ("i", "e")
        assert result.trace["iterations"] == [{"selected": "r", "deleted": []}]

    def test_trace_holds_the_iterations_alone(self, admissions):
        # run_pipeline writes the compound set, reduct and isolated itself
        compound = comp_sim(ass_gen(matrix(admissions)))
        result = sin_red_gen(compound, admissions.condition_attrs)
        assert result.trace == {"iterations": [{"selected": "r", "deleted": []}]}

    def test_single_compound_element(self):
        compound = SimilaritySet((SimilarityElement("a", ("b", "c")),))
        result = sin_red_gen(compound, ("a", "b", "c"))
        assert result.reduct == ("a",)
        assert result.isolated == ()

    def test_empty_set_makes_everything_isolated(self):
        result = sin_red_gen(SimilaritySet(()), ("a", "b"))
        assert result.reduct == ("a", "b")
        assert result.isolated == ("a", "b")

    def test_size_tie_goes_to_earliest_attribute(self):
        els = (SimilarityElement("b", ("c",)), SimilarityElement("a", ("c",)))
        result = sin_red_gen(SimilaritySet(els), ("a", "b", "c"))
        assert result.trace["iterations"][0]["selected"] == "a"
        assert result.reduct == ("a", "b")

    def test_deletion_removes_covered_lefts(self):
        els = (
            SimilarityElement("a", ("b",)),
            SimilarityElement("b", ("c",)),
            SimilarityElement("c", ("d",)),
        )
        result = sin_red_gen(SimilaritySet(els), ("a", "b", "c", "d"))
        assert result.trace["iterations"] == [
            {"selected": "a", "deleted": ["b"]},
            {"selected": "c", "deleted": []},
        ]
        assert result.reduct == ("a", "c")
        assert result.isolated == ()

    def test_unknown_attribute_rejected(self):
        compound = SimilaritySet((SimilarityElement("a", ("z",)),))
        with pytest.raises(ValueError):
            sin_red_gen(compound, ("a", "b"))

    def test_input_that_would_repeat_a_reduct_attribute_rejected(self):
        els = (SimilarityElement("a", ("b",)), SimilarityElement("a", ("c",)))
        with pytest.raises(ValueError, match="share a left"):
            sin_red_gen(SimilaritySet(els), ("a", "b", "c"))
        with pytest.raises(ValueError, match="attributes repeat"):
            sin_red_gen(SimilaritySet(()), ("a", "b", "a"))


class TestRunPipeline:
    def test_sample_table(self, admissions):
        result = run_pipeline(admissions, trace=True)
        assert result.reduct == ("r", "i", "e")
        assert result.isolated == ("i", "e")
        trace = result.trace
        assert [(e["source"], e["target"]) for e in trace["delta"][:3]] == [
            ("i", "e"), ("i", "f"), ("i", "r")
        ]
        assert len(trace["delta"]) == 12
        assert trace["avg_factor"] == pytest.approx(101 / 120)
        assert [(e["left"], e["right"]) for e in trace["ass_filtered"]] == [
            ("r", ["f"])
        ]
        assert [(e["left"], e["right"]) for e in trace["ass_compound"]] == [
            ("r", ["f"])
        ]
        assert trace["reduct"] == ["r", "i", "e"]
        assert trace["isolated"] == ["i", "e"]
        assert set(trace["partitions"]) == {"decision", "plain", "relative"}

    def test_trace_keys_in_stage_order(self, admissions):
        stages = ["delta", "ass_selected", "avg_factor", "ass_filtered", "ass_compound",
                  "iterations", "reduct", "isolated"]
        assert list(run_pipeline(admissions).trace) == stages
        assert list(run_pipeline(admissions, trace=True).trace) == stages + ["partitions"]

    def test_untraced_trace_is_full_trace_minus_partitions(self, admissions):
        rng = random.Random(41)
        for table in [admissions] + [make_random_table(rng) for _ in range(50)]:
            full = run_pipeline(table, trace=True)
            untraced = run_pipeline(table)
            assert "partitions" in full.trace
            assert untraced.trace == {
                key: value for key, value in full.trace.items() if key != "partitions"
            }
            assert untraced.reduct == full.reduct
            assert untraced.isolated == full.isolated

    def test_twin_columns_drop_one_twin(self):
        table = twin_column_table()
        result = run_pipeline(table)
        trace = result.trace
        assert trace["avg_factor"] == pytest.approx(11 / 12)
        assert [(e["left"], e["right"]) for e in trace["ass_filtered"]] == [
            ("a", ["b"])
        ]
        assert result.reduct == ("a", "c")
        assert result.isolated == ("c",)
        assert "b" not in result.reduct

    def test_single_attribute_table(self):
        cols = [
            raw_column("a", ("u", "v")),
            raw_column("d", ("y", "n")),
        ]
        result = run_pipeline(from_columns(cols, "d"))
        assert result.reduct == ("a",)
        assert result.isolated == ("a",)
        assert result.trace["delta"] == []
        assert result.trace["avg_factor"] is None

    def test_deterministic_trace_bytes(self, admissions):
        first = run_pipeline(admissions)
        second = run_pipeline(admissions)
        assert first == second
        assert canonical(first.trace) == canonical(second.trace)

    def test_reduct_never_empty_and_within_attrs(self):
        rng = random.Random(29)
        for _ in range(150):
            table = make_random_table(rng)
            result = run_pipeline(table)
            assert result.reduct
            assert set(result.reduct) <= set(table.condition_attrs)
            assert len(set(result.reduct)) == len(result.reduct)

    def test_termination_and_coverage_replay(self):
        rng = random.Random(37)
        for _ in range(150):
            table = make_random_table(rng, min_attrs=2)
            result = run_pipeline(table)
            trace = result.trace
            compound = trace["ass_compound"]
            assert len(trace["iterations"]) <= len(compound)
            # replay: selections and deletions account for every element
            touched = {e["left"] for e in compound}
            processed = set()
            for step in trace["iterations"]:
                processed.add(step["selected"])
                processed.update(step["deleted"])
            assert processed == touched
            # every attribute is selected, covered, or isolated
            mentioned = {e["left"] for e in compound} | {
                r for e in compound for r in e["right"]
            }
            for attr in table.condition_attrs:
                assert (
                    attr in result.reduct
                    or attr in mentioned
                )
            assert set(result.isolated) == set(table.condition_attrs) - mentioned

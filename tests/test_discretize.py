import math
import random

import pytest

from rredux import (
    IntervalMap,
    RawColumn,
    ValidationError,
    chimerge,
    discretize_columns,
    from_columns,
)
import rredux.discretize
from rredux.discretize import chi_square, default_threshold
from conftest import domain_of, raw_column


class TestChiSquare:
    def test_identical_distributions_are_zero(self):
        assert chi_square([1, 1], [1, 1]) == 0.0
        assert chi_square([2, 4], [1, 2]) == 0.0

    def test_opposite_two_by_two(self):
        assert chi_square([2, 0], [0, 2]) == pytest.approx(4.0)

    def test_absent_class_stays_zero(self):
        # the zero expected count only guards the division; the
        # numerator keeps the true expectation, so this is exactly 0
        assert chi_square([3, 0], [3, 0]) == 0.0

    def test_symmetry(self):
        assert chi_square([5, 1, 2], [0, 3, 3]) == pytest.approx(
            chi_square([0, 3, 3], [5, 1, 2])
        )

    def test_class_permutation_invariance(self):
        assert chi_square([5, 1, 2], [0, 3, 3]) == pytest.approx(
            chi_square([2, 5, 1], [3, 0, 3])
        )


class TestChimergeGoldens:
    def test_two_clusters_single_cut(self):
        imap = chimerge([1, 2, 7, 8], ["A", "A", "B", "B"], threshold=0,
                        max_intervals=2)
        assert imap.cut_points == (4.5,)
        assert imap.labels == ("(-inf, 4.5)", "[4.5, inf)")

    def test_interval_membership_is_lower_inclusive(self):
        imap = chimerge([1, 2, 7, 8], ["A", "A", "B", "B"], threshold=0,
                        max_intervals=2)
        assert imap.interval_of(1) == 0
        assert imap.interval_of(4.4999) == 0
        assert imap.interval_of(4.5) == 1
        assert imap.label_of(8) == "[4.5, inf)"

    def test_single_label_collapses_to_one_interval(self):
        imap = chimerge([3, 1, 4, 1, 5], ["A"] * 5)
        assert imap.cut_points == ()
        assert imap.labels == ("(-inf, inf)",)

    def test_constant_column(self):
        imap = chimerge([2.5, 2.5, 2.5], ["A", "B", "A"])
        assert imap.cut_points == ()

    def test_threshold_stops_merging(self):
        values = [1, 2, 3, 101, 102, 103]
        labels = ["A", "A", "A", "B", "B", "B"]
        imap = chimerge(values, labels)  # default threshold, cap 6
        assert imap.cut_points == (52.0,)

    def test_forced_merges_ignore_threshold(self):
        values = [1, 2, 3, 101, 102, 103]
        labels = ["A", "B", "A", "B", "A", "B"]
        imap = chimerge(values, labels, max_intervals=2)
        assert len(imap.labels) <= 2

    @pytest.mark.parametrize("low, high", [
        (1.0, math.nextafter(1.0, 2)),  # the midpoint rounds onto low
        (1.7e308, 1.79e308),  # the midpoint overflows to inf
        (-1.79e308, -1.7e308),  # ... or to -inf
    ])
    def test_cut_separates_neighbours_the_midpoint_cannot(self, low, high):
        imap = chimerge([low] * 3 + [high] * 3, ["x"] * 3 + ["y"] * 3, threshold=0)
        assert imap.cut_points == (high,)
        assert [imap.interval_of(low), imap.interval_of(high)] == [0, 1]

    @pytest.mark.parametrize("lowest, top, above", [
        (1.0, 2.0, math.nextafter(2.0, 3)),  # the midpoint rounds onto top
        (1.6e308, 1.7e308, 1.79e308),  # the midpoint overflows to inf
        (-1.79e308, -1.75e308, -1.7e308),  # ... or to -inf
    ])
    def test_cut_after_a_merged_interval_separates_its_top_value(self, lowest, top, above):
        # lowest and top merge into one interval; its top value, not its
        # lowest, is the neighbour the cut must stay above
        imap = chimerge([lowest] * 3 + [top] * 3 + [above] * 3, ["x"] * 6 + ["y"] * 3,
                        threshold=3.84)
        assert imap.cut_points == (above,)
        assert [imap.interval_of(v) for v in (lowest, top, above)] == [0, 0, 1]

    @pytest.mark.parametrize("values, labels", [
        # "g" prints cuts 1.00000015, 1.0000004 and 1.0000006 as 1, 1 and 1
        ([1.0, 1.0000003, 1.0000005, 1.0000007],
         ("(-inf, 1.00000015)", "[1.00000015, 1.0000004)", "[1.0000004, 1.0000006)",
          "[1.0000006, inf)")),
        # ... and cuts 123456.1 and 123456.4 as 123456 twice
        ([123456.0, 123456.2, 123456.6],
         ("(-inf, 123456.1)", "[123456.1, 123456.4)", "[123456.4, inf)")),
    ])
    def test_cuts_that_print_alike_label_by_repr(self, values, labels):
        imap = chimerge(values, ["a", "b", "a", "b"][:len(values)], threshold=0)
        assert imap.labels == labels
        assert len({imap.label_of(v) for v in values}) == len(values)

    def test_equal_values_share_an_interval(self):
        imap = chimerge([1, 1, 2, 2], ["A", "B", "A", "B"], threshold=0,
                        max_intervals=4)
        # both 1s and both 2s sit in one initial interval each
        assert len(imap.labels) <= 2


class TestChimergeArguments:
    def test_empty_input(self):
        with pytest.raises(ValueError):
            chimerge([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            chimerge([1, 2], ["A"])

    def test_bad_max_intervals(self):
        with pytest.raises(ValueError):
            chimerge([1], ["A"], max_intervals=0)

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            chimerge([1], ["A"], threshold=-1)

    def test_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold must be non-negative"):
            chimerge([1, 2], ["A", "B"], threshold=float("nan"))

    def test_non_finite_value(self):
        with pytest.raises(ValidationError):
            chimerge([1.0, float("nan")], ["A", "B"])

    def test_default_threshold_clamps_df(self):
        assert default_threshold(1) == default_threshold(2)
        assert default_threshold(1) > 0


class TestChimergeProperties:
    def test_merge_loop_gives_chi_square_valid_counts(self, monkeypatch):
        """chi_square does not check its arguments: every pair ChiMerge
        passes has one count per class and a positive total on each side."""
        pairs = []

        def recorded(left, right):
            pairs.append((list(left), list(right)))
            return chi_square(left, right)

        monkeypatch.setattr(rredux.discretize, "chi_square", recorded)
        rng = random.Random(59)
        checked = 0
        for _ in range(100):
            n = rng.randint(2, 30)
            values = [rng.randint(0, 9) + rng.choice([0, 0.5]) for _ in range(n)]
            labels = [f"c{rng.randrange(rng.randint(1, 3))}" for _ in range(n)]
            arity = len(set(labels))
            pairs.clear()
            chimerge(values, labels, rng.choice([None, 0.0, 2.0]), rng.randint(1, 5))
            for left, right in pairs:
                assert len(left) == len(right) == arity
                assert min(left + right) >= 0 and sum(left) > 0 and sum(right) > 0
            checked += len(pairs)
        assert checked

    def test_cap_and_cut_placement_on_random_columns(self):
        rng = random.Random(57)
        for _ in range(150):
            n = rng.randint(1, 40)
            values = [rng.randint(0, 15) + rng.random() for _ in range(n)]
            labels = [f"c{rng.randrange(rng.randint(1, 3))}" for _ in range(n)]
            cap = rng.randint(1, 6)
            threshold = rng.choice([None, 0.0, 1.3, 4.0])
            imap = chimerge(values, labels, threshold, cap)
            assert len(imap.labels) <= max(cap, 1)
            distinct = sorted(set(values))
            for cut in imap.cut_points:
                below = [v for v in distinct if v < cut]
                above = [v for v in distinct if v > cut]
                assert below and above
                assert cut not in distinct

    def test_labels_distinct_for_cuts_a_few_ulps_apart(self):
        """Every distinct value stays its own interval (alternating classes,
        threshold 0), and no two of the intervals share a label."""
        rng = random.Random(61)
        for _ in range(200):
            value = rng.choice([1.0, -3.5, 123456.1, 1e-7, 2.5e12]) * rng.uniform(0.5, 2)
            values = [value]
            for _ in range(rng.randint(1, 8)):
                for _ in range(rng.randint(1, 4)):
                    value = math.nextafter(value, math.inf)
                values.append(value)
            labels = ["a", "b"] * 5
            imap = chimerge(values, labels[:len(values)], threshold=0, max_intervals=9)
            assert len(imap.labels) == len(values)
            assert len(set(imap.labels)) == len(imap.labels)
            assert [imap.interval_of(v) for v in values] == list(range(len(values)))

    def test_mapping_is_monotone(self):
        rng = random.Random(58)
        for _ in range(50):
            n = rng.randint(2, 30)
            values = [rng.uniform(-5, 5) for _ in range(n)]
            labels = [f"c{rng.randrange(2)}" for _ in range(n)]
            imap = chimerge(values, labels, None, rng.randint(1, 5))
            ordered = sorted(values)
            intervals = [imap.interval_of(v) for v in ordered]
            assert intervals == sorted(intervals)


class TestIntervalMap:
    def test_cuts_must_increase(self):
        with pytest.raises(ValueError):
            IntervalMap((2.0, 1.0))


class TestDiscretizeColumns:
    def test_mixed_columns(self):
        cols = [
            raw_column("a", (1.0, 2.0, 7.0, 8.0)),
            raw_column("b", ("p", "p", "q", "q")),
            raw_column("d", ("A", "A", "B", "B")),
        ]
        columns, maps = discretize_columns(cols, "d", threshold=0, max_intervals=2)
        assert [(c.name, c.numeric) for c in columns] == [
            ("a", False), ("b", False), ("d", False),
        ]
        table = from_columns(columns, "d")
        assert set(maps) == {"a"}
        assert maps["a"].cut_points == (4.5,)
        assert domain_of(table, "a") == ("(-inf, 4.5)", "[4.5, inf)")
        assert table.column("a") == (0, 0, 1, 1)
        assert domain_of(table, "b") == ("p", "q")

    def test_no_numeric_columns_is_identity_encoding(self):
        cols = [
            raw_column("a", ("u", "v")),
            raw_column("d", ("y", "n")),
        ]
        columns, maps = discretize_columns(cols, "d")
        assert maps == {}
        assert columns == cols
        assert domain_of(from_columns(columns, "d"), "a") == ("u", "v")

    def test_no_numeric_columns_reads_no_cells(self, monkeypatch):
        cols = [raw_column("a", ("u", "v")), raw_column("d", ("y", "n"))]

        def unread(column):
            raise AssertionError(f"read the cells of {column.name!r}")

        monkeypatch.setattr(RawColumn, "cells", property(unread))
        assert discretize_columns(cols, "d") == (cols, {})

    def test_decision_must_exist(self):
        with pytest.raises(ValueError):
            discretize_columns(
                [raw_column("a", ("u",))], "d"
            )

    def test_labels_each_domain_value_once(self):
        """Equal values written apart are two domain entries with one label;
        the labels take the order their first values have among the codes."""
        cols = [
            RawColumn("a", (8.0, 1.0, 8.0, 2.0), (0, 1, 2, 3, 1, 0)),
            raw_column("d", ("B", "A", "B", "A", "A", "B")),
        ]
        columns, maps = discretize_columns(cols, "d", threshold=0, max_intervals=2)
        assert maps["a"].cut_points == (5.0,)
        assert columns[0].domain == ("[5, inf)", "(-inf, 5)")
        assert columns[0].codes == (0, 1, 0, 1, 1, 0)

    @pytest.mark.parametrize("code", [-1, 2])
    def test_code_outside_domain_raises(self, code):
        """A numeric column with a code outside its domain cannot be built,
        so the relabelling never meets one."""
        with pytest.raises(ValueError, match=f"object 'x3': code {code} outside domain of 'a'"):
            RawColumn("a", (1.0, 2.0), (0, 1, code))

    def test_decision_must_be_categorical(self):
        cols = [
            raw_column("a", ("u",)),
            raw_column("d", (1.0,)),
        ]
        with pytest.raises(ValueError):
            discretize_columns(cols, "d")


def test_default_threshold_matches_scipy():
    """The built-in table (df 1-30) and the scipy path beyond it both give
    scipy's own floats."""
    chi2 = pytest.importorskip("scipy.stats").chi2
    for n in range(1, 41):
        assert default_threshold(n) == float(chi2.ppf(0.95, max(n - 1, 1))), n

import io
import random

import pytest

from rredux import (
    DecisionTable,
    ParseError,
    RawColumn,
    SchemaError,
    ValidationError,
    from_columns,
    parse_columns,
)
from rredux.table import project, row_masks
from conftest import make_random_table
from eval_oracle import subset


def parse_columns_text(text: str, **kwargs):
    return parse_columns(io.BytesIO(text.encode("utf-8")), **kwargs)


def parse_text(text: str, **kwargs):
    return from_columns(*parse_columns_text(text, **kwargs))


def decoded_row(table, index):
    """The object's cell labels (conditions then decision)."""
    names = table.condition_attrs + (table.decision_attr,)
    return tuple(table.domains[a][table.column(a)[index]] for a in names)


class TestParseCsv:
    def test_sample_table_shape(self, admissions):
        assert admissions.m == 8
        assert admissions.condition_attrs == ("i", "e", "f", "r")
        assert admissions.decision_attr == "Decision"
        assert admissions.domains["i"] == ("MBA", "MCE", "MSc")
        assert admissions.domains["Decision"] == ("Accept", "Reject")

    def test_cell_round_trip(self, admissions):
        assert decoded_row(admissions, 0) == ("MBA", "Medium", "Yes", "Excellent", "Accept")
        assert decoded_row(admissions, 7) == ("MCE", "Low", "No", "Excellent", "Reject")

    def test_minimal_single_row(self):
        table = parse_text("a,d\n1,yes\n")
        assert isinstance(table, DecisionTable)
        assert table.m == 1
        assert table.condition_attrs == ("a",)

    def test_ragged_row_names_line(self):
        with pytest.raises(ParseError, match="row 3"):
            parse_text("a,b,c,d\n1,2,3,4\n1,2,3\n")

    def test_duplicate_header(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_text("a,a,d\n1,2,3\n")

    def test_empty_and_header_only(self):
        with pytest.raises(SchemaError):
            parse_text("")
        with pytest.raises(SchemaError):
            parse_text("a,b,d\n")

    def test_missing_value_rejected_with_location(self):
        with pytest.raises(ValidationError, match=r"row 3.*'b'"):
            parse_text("a,b,d\nx,y,z\nx,?,z\n")
        with pytest.raises(ValidationError, match="row 2"):
            parse_text("a,b,d\nx,,z\n")

    # each error is on physical line 4, whether a blank line or a quoted
    # field spanning two lines comes before it or the row itself spans two
    @pytest.mark.parametrize("text", [
        "a,b,d\nx,y,z\n\nx,,z\n",
        'a,b,d\n"x\nw",y,z\nx,,z\n',
        'a,b,d\nx,y,z\n"x\nw",,z\n',
    ], ids=["blank-line", "after-multiline", "multiline-row"])
    def test_missing_value_names_physical_line(self, text):
        with pytest.raises(ValidationError, match="row 4, column 'b'"):
            parse_text(text)

    @pytest.mark.parametrize("text", [
        "a,b,d\nx,y,z\n\nx,z\n",
        'a,b,d\n"x\nw",y,z\nx,z\n',
        'a,b,d\nx,y,z\n"x\nw",z\n',
    ], ids=["blank-line", "after-multiline", "multiline-row"])
    def test_short_row_names_physical_line(self, text):
        with pytest.raises(ParseError, match="row 4: expected 3 cells, got 2"):
            parse_text(text)

    def test_drop_missing_drops_rows(self):
        table = parse_text("a,d\nu,yes\n?,no\nv,no\n", drop_missing=True)
        assert table.m == 2
        assert decoded_row(table, 1) == ("v", "no")

    def test_drop_missing_empty_result(self):
        with pytest.raises(SchemaError, match="after dropping"):
            parse_text("a,d\n?,yes\n", drop_missing=True)

    def test_unknown_decision_column(self):
        with pytest.raises(ValueError, match="NoSuch"):
            parse_text("a,d\nu,yes\n", decision_col="NoSuch")

    def test_decision_column_elsewhere(self):
        table = parse_text("a,d,b\nu,yes,p\nv,no,q\n", decision_col="d")
        assert table.condition_attrs == ("a", "b")
        assert table.decision_attr == "d"

    def test_blank_lines_skipped(self):
        table = parse_text("a,d\nu,yes\n\nv,no\n")
        assert table.m == 2

    def test_delimiter(self):
        table = parse_text("a;d\nu;yes\n", delimiter=";")
        assert table.condition_attrs == ("a",)

    def test_equal_cells_of_a_column_are_one_object(self):
        text = "a,b,d\nxyz,1,yes\nxyz,22,no\nuvw,1,yes\nxyz,22,yes\n"
        for col in parse_columns_text(text)[0]:
            assert len(set(map(id, col.cells))) == len(set(col.cells)), col.name

    def test_row_permutation_permutes_objects_only(self):
        base = "a,b,d\nu,p,yes\nv,q,no\nw,p,yes\n"
        lines = base.strip().split("\n")
        reordered = "\n".join([lines[0], lines[3], lines[1], lines[2]]) + "\n"
        t1 = parse_text(base)
        t2 = parse_text(reordered)
        rows1 = [decoded_row(t1, i) for i in range(t1.m)]
        rows2 = [decoded_row(t2, i) for i in range(t2.m)]
        assert rows2 == [rows1[2], rows1[0], rows1[1]]


class TestNumericDetection:
    def test_integer_only_column_stays_categorical(self):
        columns, _ = parse_columns_text("a,d\n1,yes\n2,no\n")
        assert columns[0].kind == "categorical"
        assert from_columns(columns, "d").domains["a"] == ("1", "2")

    def test_real_literal_makes_column_numeric(self):
        columns, _ = parse_columns_text("a,d\n1.5,yes\n2,no\n")
        assert columns[0].kind == "numeric"
        assert columns[0].cells == (1.5, 2.0)

    def test_exponent_literal_counts_as_real(self):
        columns, _ = parse_columns_text("a,d\n1e2,yes\n2,no\n")
        assert columns[0].kind == "numeric"

    def test_flag_forces_integer_column_numeric(self):
        columns, _ = parse_columns_text("a,d\n1,yes\n2,no\n", numeric_cols=["a"])
        assert columns[0].kind == "numeric"
        assert columns[0].cells == (1.0, 2.0)

    def test_flagged_column_with_text_cell(self):
        with pytest.raises(ValidationError, match="'a'"):
            parse_text("a,d\n1,yes\nok,no\n", numeric_cols=["a"])

    def test_unknown_numeric_flag(self):
        with pytest.raises(ValueError, match="'z'"):
            parse_text("a,d\n1,yes\n", numeric_cols=["z"])

    def test_decision_column_cannot_be_numeric(self):
        with pytest.raises(ValueError, match="decision"):
            parse_text("a,d\n1,2\n", numeric_cols=["d"])

    def test_non_finite_literals_stay_categorical(self):
        columns, _ = parse_columns_text("a,d\ninf,yes\nnan,no\n")
        assert columns[0].kind == "categorical"
        assert from_columns(columns, "d").domains["a"] == ("inf", "nan")

    def test_non_finite_flagged_numeric_rejected(self):
        with pytest.raises(ValidationError):
            parse_text("a,d\ninf,yes\n", numeric_cols=["a"])

    def test_parse_columns_keeps_header_order(self):
        columns, decision = parse_columns(
            io.BytesIO(b"a,d,b\n1.5,yes,u\n"), decision_col="d"
        )
        assert [c.name for c in columns] == ["a", "d", "b"]
        assert decision == "d"


class TestProjectAndSubset:
    def test_project_keeps_table_order(self, admissions):
        reduced = project(admissions, ["r", "e"])
        assert reduced.condition_attrs == ("e", "r")
        assert reduced.decision_attr == "Decision"
        assert reduced.column("e") == admissions.column("e")
        assert reduced.column("Decision") == admissions.column("Decision")

    def test_project_to_all_is_identity(self, admissions):
        assert project(admissions, admissions.condition_attrs) == admissions

    def test_project_idempotent(self, admissions):
        once = project(admissions, ["e", "r"])
        assert project(once, ["e", "r"]) == once

    def test_project_errors(self, admissions):
        with pytest.raises(ValueError):
            project(admissions, [])
        with pytest.raises(ValueError, match="'z'"):
            project(admissions, ["z"])

    def test_projection_row_masks_match_its_columns(self, random_tables):
        for table in random_tables(60, seed=23):
            attrs = table.condition_attrs[::2]
            sub = project(table, attrs)
            assert row_masks(sub) == tuple(
                tuple(sum(1 << i for i, c in enumerate(sub.column(a)) if c == code)
                      for code in range(len(sub.domains[a])))
                for a in attrs
            )

    def test_subset_preserves_ids_and_domains(self, admissions):
        sub = subset(admissions, [1, 4, 6])
        assert sub.m == 3
        assert sub.domains == admissions.domains
        assert sub.codes == {
            a: tuple(column[i] for i in (1, 4, 6)) for a, column in admissions.codes.items()
        }

    def test_subset_empty(self, admissions):
        with pytest.raises(ValueError):
            subset(admissions, [])


class TestFromColumns:
    def test_numeric_column_rejected(self):
        cols = [
            RawColumn("a", "numeric", (1.0, 2.0)),
            RawColumn("d", "categorical", ("x", "y")),
        ]
        with pytest.raises(ValueError, match="discretize"):
            from_columns(cols, "d")

    def test_decision_only_header(self):
        with pytest.raises(SchemaError):
            from_columns([RawColumn("d", "categorical", ("x",))], "d")

    def test_codes_first_appearance(self):
        cols = [
            RawColumn("a", "categorical", ("q", "p", "q")),
            RawColumn("d", "categorical", ("n", "y", "y")),
        ]
        table = from_columns(cols, "d")
        assert table.domains["a"] == ("q", "p")
        assert table.column("a") == (0, 1, 0)


class TestDecisionTableInvariants:
    def test_column_length_checked(self, admissions):
        bad = {**admissions.codes, "f": admissions.codes["f"][:-1]}
        with pytest.raises(ValueError, match="'f': expected 8 codes, got 7"):
            DecisionTable(
                admissions.condition_attrs,
                admissions.decision_attr,
                bad,
                admissions.domains,
            )

    def test_codes_keyed_by_attribute(self, admissions):
        for bad in (
            {a: c for a, c in admissions.codes.items() if a != "r"},
            {**admissions.codes, "z": admissions.codes["r"]},
        ):
            with pytest.raises(ValueError, match="one column per attribute"):
                DecisionTable(
                    admissions.condition_attrs,
                    admissions.decision_attr,
                    bad,
                    admissions.domains,
                )

    def test_domains_keyed_by_attribute(self):
        codes = {"a": (0,), "d": (0,)}
        for bad in ({"a": ("u",)}, {"a": ("u",), "d": ("y",), "z": ("w",)}):
            with pytest.raises(ValueError, match="domains must hold one entry per attribute"):
                DecisionTable(("a",), "d", codes, bad)

    def test_code_outside_domain(self, admissions):
        bad = {**admissions.codes, "i": admissions.codes["i"][:-1] + (9,)}
        with pytest.raises(ValueError, match="object 'x8': code 9 outside domain of 'i'"):
            DecisionTable(
                admissions.condition_attrs,
                admissions.decision_attr,
                bad,
                admissions.domains,
            )

    def test_negative_code_outside_domain(self, admissions):
        column = admissions.codes["Decision"]
        bad = {**admissions.codes, "Decision": column[:2] + (-1,) + column[3:]}
        with pytest.raises(ValueError, match="object 'x3': code -1 outside domain"):
            DecisionTable(
                admissions.condition_attrs,
                admissions.decision_attr,
                bad,
                admissions.domains,
            )

    def test_column_accessor(self, admissions):
        assert admissions.column("i") is admissions.codes["i"]
        assert admissions.column("Decision") == (0, 1, 1, 0, 1, 1, 0, 1)
        with pytest.raises(ValueError, match="unknown attribute 'z'"):
            admissions.column("z")
        assert admissions.column("f") == (0, 0, 0, 0, 0, 0, 1, 1)

    def test_random_tables_well_formed(self):
        rng = random.Random(7)
        for _ in range(50):
            table = make_random_table(rng)
            assert table.m >= 1
            names = table.condition_attrs + (table.decision_attr,)
            assert set(table.codes) == set(names)
            assert all(len(column) == table.m for column in table.codes.values())

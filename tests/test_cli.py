import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rredux.cli import main
from rredux.jsonout import canonical

DATA = Path(__file__).parent / "data"
ADMISSIONS = str(DATA / "admissions.csv")
NUMERIC = str(DATA / "numeric_sample.csv")

# numeric x and y around a categorical c and a decision d in the middle
MIXED_CSV = (
    "x,c,d,y\n"
    "1.5,u,A,10.25\n"
    "2.5,v,A,11.5\n"
    "3.0,u,A,10.75\n"
    "7.25,v,B,30.5\n"
    "8.0,w,B,31.0\n"
    "8.5,u,B,12.0\n"
    "4.0,w,C,50.5\n"
    "4.5,w,C,51.25\n"
)
MIXED_DISCRETIZED = (
    'x,c,d,y\n'
    '"(-inf, 5.875)",u,A,"(-inf, 11.75)"\n'
    '"(-inf, 5.875)",v,A,"(-inf, 11.75)"\n'
    '"(-inf, 5.875)",u,A,"(-inf, 11.75)"\n'
    '"[5.875, inf)",v,B,"[11.75, inf)"\n'
    '"[5.875, inf)",w,B,"[11.75, inf)"\n'
    '"[5.875, inf)",u,B,"[11.75, inf)"\n'
    '"(-inf, 5.875)",w,C,"[11.75, inf)"\n'
    '"(-inf, 5.875)",w,C,"[11.75, inf)"\n'
)
MIXED_CUTS = (
    '{"x": {"cut_points": [5.875000], "labels": ["(-inf, 5.875)", "[5.875, inf)"]}, '
    '"y": {"cut_points": [11.750000], "labels": ["(-inf, 11.75)", "[11.75, inf)"]}}\n'
)
# ``reduct --trace --output json`` on numeric_sample.csv, byte for byte
NUMERIC_TRACE_JSON = (
    '{"isolated": [], "reduct": ["na", "mg", "al"]'
    ', "trace": {"ass_compound": [{"left": "na", "right": ["ri"]}'
    ', {"left": "mg", "right": ["ri"]}, {"left": "al", "right": ["ri"]}]'
    ', "ass_filtered": [{"factor": 1.000000, "left": "na", "right": ["ri"]}'
    ', {"factor": 1.000000, "left": "mg", "right": ["ri"]}'
    ', {"factor": 1.000000, "left": "al", "right": ["ri"]}]'
    ', "ass_selected": [{"factor": 1.000000, "left": "na", "right": ["ri"]}'
    ', {"factor": 1.000000, "left": "mg", "right": ["ri"]}'
    ', {"factor": 1.000000, "left": "al", "right": ["ri"]}'
    ', {"factor": 0.972222, "left": "na", "right": ["mg"]}'
    ', {"factor": 0.919048, "left": "al", "right": ["na"]}'
    ', {"factor": 0.976190, "left": "al", "right": ["mg"]}]'
    ', "avg_factor": 0.977910, "delta": [{"factor": 0.916667, "source": "ri"'
    ', "target": "na"}, {"factor": 0.972222, "source": "ri", "target": "mg"}'
    ', {"factor": 0.611111, "source": "ri", "target": "al"}'
    ', {"factor": 1.000000, "source": "na", "target": "ri"}'
    ', {"factor": 0.972222, "source": "na", "target": "mg"}'
    ', {"factor": 0.618056, "source": "na", "target": "al"}'
    ', {"factor": 1.000000, "source": "mg", "target": "ri"}'
    ', {"factor": 0.931818, "source": "mg", "target": "na"}'
    ', {"factor": 0.698864, "source": "mg", "target": "al"}'
    ', {"factor": 1.000000, "source": "al", "target": "ri"}'
    ', {"factor": 0.919048, "source": "al", "target": "na"}'
    ', {"factor": 0.976190, "source": "al", "target": "mg"}], "isolated": []'
    ', "iterations": [{"deleted": [], "selected": "na"}, {"deleted": []'
    ', "selected": "mg"}, {"deleted": [], "selected": "al"}]'
    ', "partitions": {"decision": [["x1", "x3", "x8", "x10", "x11", "x12"'
    ', "x14", "x17", "x21", "x28", "x35", "x36"], ["x2", "x4", "x6", "x9"'
    ', "x13", "x15", "x18", "x20", "x24", "x25", "x30", "x33"], ["x5", "x7"'
    ', "x16", "x19", "x22", "x23", "x26", "x27", "x29", "x31", "x32", "x34"]]'
    ', "plain": {"al": [["x1", "x4", "x5", "x6", "x9", "x10", "x14", "x17"'
    ', "x20", "x23", "x24", "x25", "x28", "x33", "x34", "x36"], ["x2", "x7"'
    ', "x13", "x15", "x16", "x18", "x19", "x22", "x26", "x27", "x29", "x30"'
    ', "x31", "x32"], ["x3", "x8", "x11", "x12", "x21", "x35"]], "mg": [["x1"'
    ', "x3", "x4", "x8", "x10", "x11", "x12", "x14", "x17", "x21", "x28"'
    ', "x35", "x36"], ["x2", "x6", "x9", "x13", "x15", "x18", "x20", "x24"'
    ', "x25", "x30", "x33"], ["x5", "x7", "x16", "x19", "x22", "x23", "x26"'
    ', "x27", "x29", "x31", "x32", "x34"]], "na": [["x1", "x2", "x3", "x6"'
    ', "x8", "x10", "x11", "x12", "x14", "x17", "x21", "x28", "x33", "x35"'
    ', "x36"], ["x4", "x9", "x13", "x15", "x18", "x20", "x24", "x25", "x30"]'
    ', ["x5", "x7", "x16", "x19", "x22", "x23", "x26", "x27", "x29", "x31"'
    ', "x32", "x34"]], "ri": [["x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8"'
    ', "x9", "x10", "x11", "x12", "x13", "x14", "x15", "x16", "x17", "x18"'
    ', "x19", "x20", "x21", "x22", "x23", "x24", "x25", "x26", "x27", "x28"'
    ', "x29", "x30", "x31", "x32", "x33", "x34", "x35", "x36"]]}'
    ', "relative": {"al": [["x1", "x10", "x14", "x17", "x28", "x36"], ["x2"'
    ', "x13", "x15", "x18", "x30"], ["x3", "x8", "x11", "x12", "x21", "x35"]'
    ', ["x4", "x6", "x9", "x20", "x24", "x25", "x33"], ["x5", "x23", "x34"]'
    ', ["x7", "x16", "x19", "x22", "x26", "x27", "x29", "x31", "x32"]]'
    ', "mg": [["x1", "x3", "x8", "x10", "x11", "x12", "x14", "x17", "x21"'
    ', "x28", "x35", "x36"], ["x2", "x6", "x9", "x13", "x15", "x18", "x20"'
    ', "x24", "x25", "x30", "x33"], ["x4"], ["x5", "x7", "x16", "x19", "x22"'
    ', "x23", "x26", "x27", "x29", "x31", "x32", "x34"]], "na": [["x1", "x3"'
    ', "x8", "x10", "x11", "x12", "x14", "x17", "x21", "x28", "x35", "x36"]'
    ', ["x2", "x6", "x33"], ["x4", "x9", "x13", "x15", "x18", "x20", "x24"'
    ', "x25", "x30"], ["x5", "x7", "x16", "x19", "x22", "x23", "x26", "x27"'
    ', "x29", "x31", "x32", "x34"]], "ri": [["x1", "x3", "x8", "x10", "x11"'
    ', "x12", "x14", "x17", "x21", "x28", "x35", "x36"], ["x2", "x4", "x6"'
    ', "x9", "x13", "x15", "x18", "x20", "x24", "x25", "x30", "x33"], ["x5"'
    ', "x7", "x16", "x19", "x22", "x23", "x26", "x27", "x29", "x31", "x32"'
    ', "x34"]]}}, "reduct": ["na", "mg", "al"]}}\n'
)

# ``evaluate --input numeric_sample.csv --folds 3 --seed 5 --output json``
# with each classifier, byte for byte
NUMERIC_EVAL_NB_JSON = (
    '{"classifier": "nb", "delta": 0.000000, "folds": 3, '
    '"full": {"attrs": ["ri", "na", "mg", "al"], '
    '"consistency": 1.000000, "fold_accuracies": [1.000000, 0.916667, '
    '1.000000], "mean_accuracy": 0.972222}, "isolated": [], '
    '"reduced": {"attrs": ["na", "mg", "al"], "consistency": 1.000000, '
    '"fold_accuracies": [1.000000, 0.916667, 1.000000], '
    '"mean_accuracy": 0.972222}, "reduct": ["na", "mg", "al"], '
    '"seed": 5}\n'
)
NUMERIC_EVAL_1NN_JSON = (
    '{"classifier": "1nn", "delta": 0.000000, "folds": 3, '
    '"full": {"attrs": ["ri", "na", "mg", "al"], '
    '"consistency": 1.000000, "fold_accuracies": [1.000000, 1.000000, '
    '1.000000], "mean_accuracy": 1.000000}, "isolated": [], '
    '"reduced": {"attrs": ["na", "mg", "al"], "consistency": 1.000000, '
    '"fold_accuracies": [1.000000, 1.000000, 1.000000], '
    '"mean_accuracy": 1.000000}, "reduct": ["na", "mg", "al"], '
    '"seed": 5}\n'
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse flag errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestReduct:
    def test_text_output(self):
        code, out, err = run_cli("reduct", "--input", ADMISSIONS)
        assert code == 0
        assert err == ""
        assert "reduct: r, i, e" in out
        assert "isolated: i, e" in out

    def test_json_output(self):
        code, out, _ = run_cli("reduct", "--input", ADMISSIONS, "--output", "json")
        assert code == 0
        assert json.loads(out) == {"reduct": ["r", "i", "e"], "isolated": ["i", "e"]}

    def test_trace_json_has_every_stage(self):
        code, out, _ = run_cli(
            "reduct", "--input", ADMISSIONS, "--output", "json", "--trace"
        )
        assert code == 0
        trace = json.loads(out)["trace"]
        assert set(trace) == {
            "partitions", "delta", "ass_selected", "avg_factor",
            "ass_filtered", "ass_compound", "iterations", "reduct", "isolated",
        }
        assert len(trace["delta"]) == 12
        assert trace["iterations"] == [{"selected": "r", "deleted": []}]

    def test_trace_text_sections(self):
        code, out, _ = run_cli("reduct", "--input", ADMISSIONS, "--trace")
        assert code == 0
        for needle in (
            "U/D:", "U_D/r:", "delta:", "avg_factor: 0.841667",
            "ass_filtered: r->f 0.916667", "1: select r, delete -",
        ):
            assert needle in out, needle

    def test_numeric_trace_json_golden(self):
        code, out, err = run_cli("reduct", "--input", NUMERIC, "--trace", "--output", "json")
        assert code == 0
        assert err == ""
        assert out == NUMERIC_TRACE_JSON

    def test_json_reruns_byte_identical(self):
        first = run_cli("reduct", "--input", ADMISSIONS, "--output", "json", "--trace")
        second = run_cli("reduct", "--input", ADMISSIONS, "--output", "json", "--trace")
        assert first == second

    def test_missing_file_exits_one_naming_path(self):
        code, out, err = run_cli("reduct", "--input", "no-such.csv")
        assert code == 1
        assert out == ""
        assert "no-such.csv" in err

    def test_unknown_decision_column_exits_two(self):
        code, out, err = run_cli(
            "reduct", "--input", ADMISSIONS, "--decision-col", "NoSuch"
        )
        assert code == 2
        assert out == ""
        assert "NoSuch" in err

    def test_ragged_csv_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,d\n1,2,3\n1,2\n")
        code, out, err = run_cli("reduct", "--input", str(bad))
        assert code == 1
        assert out == ""
        assert "row 3" in err

    def test_missing_values_rejected_then_dropped(self, tmp_path):
        holey = tmp_path / "holey.csv"
        holey.write_text("a,d\nu,yes\n?,no\nv,no\nw,yes\n")
        code, _, err = run_cli("reduct", "--input", str(holey))
        assert code == 1 and "row 3" in err
        code, out, _ = run_cli(
            "reduct", "--input", str(holey), "--drop-missing", "--output", "json"
        )
        assert code == 0
        assert json.loads(out)["reduct"] == ["a"]

    def test_utf8_bom_stays_out_of_first_column_name(self, tmp_path):
        src = tmp_path / "bom.csv"
        src.write_bytes(b"\xef\xbb\xbfa,d\n1,yes\n2,no\n")
        code, out, err = run_cli(
            "reduct", "--input", str(src), "--numeric-cols", "a", "--output", "json"
        )
        assert code == 0, err
        assert json.loads(out)["reduct"] == ["a"]

    def test_non_utf8_input_exits_one(self, tmp_path):
        src = tmp_path / "latin1.csv"
        src.write_bytes(b"a,d\n\xff,yes\n2,no\n")
        code, out, err = run_cli("reduct", "--input", str(src))
        assert code == 1
        assert out == ""
        assert "UTF-8" in err

    def test_oversized_field_exits_one_without_traceback(self, tmp_path):
        src = tmp_path / "huge.csv"
        src.write_text("a,d\n" + "x" * 140_000 + ",yes\nu,no\n")
        code, out, err = run_cli("reduct", "--input", str(src))
        assert code == 1
        assert out == ""
        assert err.startswith("error: row 2:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_not_one_character_exits_two(self, delimiter):
        code, out, err = run_cli(
            "reduct", "--input", ADMISSIONS, f"--delimiter={delimiter}"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: delimiter must be a single character")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["reduct", "discretize"])
    @pytest.mark.parametrize("delimiter", ['"', "\n", "\r"],
                             ids=["quote", "newline", "carriage-return"])
    def test_delimiter_that_cannot_split_a_row_exits_two(self, command, delimiter):
        code, out, err = run_cli(
            command, "--input", ADMISSIONS, f"--delimiter={delimiter}"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: delimiter must be a single character")
        assert "Traceback" not in err


class TestUntraced:
    @pytest.fixture
    def no_partitions(self, monkeypatch):
        """Every partition builder the pipeline can reach raises."""
        import rredux.reduct
        import rredux.similarity

        def refuse(*args, **kwargs):
            raise AssertionError("partition built for a run without --trace")

        monkeypatch.setattr(rredux.reduct, "blocks", refuse)
        monkeypatch.setattr(rredux.reduct, "decision_blocks", refuse)
        monkeypatch.setattr(rredux.similarity, "relative_blocks", refuse)

    @pytest.mark.parametrize("command", ["reduct", "evaluate"])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_untraced_run_builds_no_partition(self, no_partitions, command, output):
        code, out, err = run_cli(command, "--input", ADMISSIONS, "--output", output)
        assert (code, err) == (0, "")
        assert "partitions" not in out

    def test_traced_run_builds_partitions(self, no_partitions):
        with pytest.raises(AssertionError, match="without --trace"):
            run_cli("reduct", "--input", ADMISSIONS, "--trace")


class TestDiscretize:
    def test_golden_two_cluster_column(self, tmp_path):
        src = tmp_path / "nums.csv"
        src.write_text("a,d\n1,A\n2,A\n7,B\n8,B\n")
        code, out, err = run_cli(
            "discretize", "--input", str(src), "--numeric-cols", "a",
            "--chi-threshold", "0", "--max-intervals", "2",
        )
        assert code == 0
        assert err == ""
        assert out == (
            'a,d\n'
            '"(-inf, 4.5)",A\n'
            '"(-inf, 4.5)",A\n'
            '"[4.5, inf)",B\n'
            '"[4.5, inf)",B\n'
        )

    def test_all_categorical_input_echoes_exactly(self):
        code, out, _ = run_cli("discretize", "--input", ADMISSIONS)
        assert code == 0
        assert out == Path(ADMISSIONS).read_text()

    def test_emit_cuts_sidecar(self, tmp_path):
        src = tmp_path / "nums.csv"
        src.write_text("a,d\n1,A\n2,A\n7,B\n8,B\n")
        sidecar = tmp_path / "cuts.json"
        code, _, _ = run_cli(
            "discretize", "--input", str(src), "--numeric-cols", "a",
            "--chi-threshold", "0", "--max-intervals", "2",
            "--emit-cuts", str(sidecar),
        )
        assert code == 0
        assert json.loads(sidecar.read_text()) == {
            "a": {
                "cut_points": [4.5],
                "labels": ["(-inf, 4.5)", "[4.5, inf)"],
            }
        }

    def test_mixed_columns_golden_with_cuts(self, tmp_path):
        src = tmp_path / "mixed.csv"
        src.write_text(MIXED_CSV)
        sidecar = tmp_path / "cuts.json"
        code, out, err = run_cli(
            "discretize", "--input", str(src), "--decision-col", "d",
            "--emit-cuts", str(sidecar),
        )
        assert code == 0
        assert err == ""
        assert out == MIXED_DISCRETIZED
        assert sidecar.read_text() == MIXED_CUTS

    @pytest.mark.parametrize("literal", ["1_000.5", " 3.5 ", "\u0661.\u0665"],
                             ids=["underscore", "spaces", "arabic-indic-digits"])
    def test_number_literal_beyond_plain_form_is_not_numeric(self, tmp_path, literal):
        src = tmp_path / "literal.csv"
        text = f"a,d\n{literal},A\n2.5,B\n4.0,A\n"
        src.write_text(text, encoding="utf-8")
        assert run_cli("discretize", "--input", str(src)) == (0, text, "")
        code, out, err = run_cli("discretize", "--input", str(src), "--numeric-cols", "a")
        assert (code, out) == (1, "")
        assert f"cell {literal!r} is not a finite number" in err

    def test_max_intervals_zero_exits_two(self):
        code, out, err = run_cli(
            "discretize", "--input", NUMERIC, "--max-intervals", "0"
        )
        assert code == 2
        assert out == ""
        assert "max-intervals" in err

    def test_nan_chi_threshold_exits_two(self):
        code, out, err = run_cli(
            "discretize", "--input", NUMERIC, "--chi-threshold", "nan"
        )
        assert (code, out) == (2, "")
        assert err == "error: threshold must be non-negative\n"

    @pytest.mark.parametrize("command", ["reduct", "discretize"])
    @pytest.mark.parametrize("threshold", ["nan", "-1"])
    def test_bad_chi_threshold_on_categorical_input_exits_two(self, command, threshold):
        code, out, err = run_cli(
            command, "--input", ADMISSIONS, f"--chi-threshold={threshold}"
        )
        assert (code, out) == (2, "")
        assert err == "error: threshold must be non-negative\n"

    @pytest.mark.parametrize("flags", [["--output", "json"], ["--trace"]],
                             ids=["output", "trace"])
    def test_report_flags_are_not_accepted(self, flags):
        code, out, err = run_cli("discretize", "--input", ADMISSIONS, *flags)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flags[0]}" in err

    def test_keeps_decision_column_position(self, tmp_path):
        src = tmp_path / "mid.csv"
        src.write_text("a,d,b\n1.5,yes,u\n2.5,no,v\n")
        code, out, _ = run_cli("discretize", "--input", str(src),
                               "--decision-col", "d")
        assert code == 0
        assert out.splitlines()[0] == "a,d,b"


class TestEvaluate:
    def test_json_report_shape(self):
        code, out, err = run_cli(
            "evaluate", "--input", ADMISSIONS, "--folds", "2", "--seed", "7",
            "--output", "json",
        )
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["reduct"] == ["r", "i", "e"]
        assert report["classifier"] == "nb"
        assert report["folds"] == 2
        assert report["seed"] == 7
        for side in ("full", "reduced"):
            assert 0.0 <= report[side]["mean_accuracy"] <= 1.0
            assert len(report[side]["fold_accuracies"]) == 2
            assert 0.0 <= report[side]["consistency"] <= 1.0
        assert report["delta"] == pytest.approx(
            report["reduced"]["mean_accuracy"] - report["full"]["mean_accuracy"]
        )

    def test_text_report(self):
        code, out, _ = run_cli(
            "evaluate", "--input", ADMISSIONS, "--folds", "2", "--seed", "7"
        )
        assert code == 0
        assert "classifier: nb  folds: 2  seed: 7" in out
        assert "delta (reduced - full):" in out
        header = next(l for l in out.splitlines() if l.startswith("set"))
        assert header.split() == ["set", "attrs", "mean_accuracy", "consistency"]

    def test_text_trace_precedes_report(self):
        """``--trace`` prints the same trace as ``reduct --trace``, then the
        untraced report unchanged."""
        args = ("evaluate", "--input", ADMISSIONS, "--folds", "2", "--seed", "7")
        code, out, _ = run_cli(*args, "--trace")
        assert code == 0
        _, plain, _ = run_cli(*args)
        _, reduct, _ = run_cli("reduct", "--input", ADMISSIONS, "--trace")
        trace = reduct[:reduct.index("reduct: ")]
        assert trace.startswith("partitions:\n")
        assert out == trace + plain

    def test_reruns_byte_identical(self):
        args = ("evaluate", "--input", NUMERIC, "--folds", "3", "--seed", "5",
                "--output", "json")
        assert run_cli(*args) == run_cli(*args)

    @pytest.mark.parametrize("classifier, golden", [
        ("nb", NUMERIC_EVAL_NB_JSON), ("1nn", NUMERIC_EVAL_1NN_JSON),
    ])
    def test_numeric_json_golden(self, classifier, golden):
        code, out, err = run_cli(
            "evaluate", "--input", NUMERIC, "--folds", "3", "--seed", "5",
            "--output", "json", "--classifier", classifier,
        )
        assert (code, err) == (0, "")
        assert out == golden

    def test_numeric_input_discretized_internally(self):
        code, out, _ = run_cli(
            "evaluate", "--input", NUMERIC, "--folds", "3", "--seed", "11",
            "--output", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["reduct"]
        assert set(report["reduct"]) <= {"ri", "na", "mg", "al"}

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("RREDUX_SEED", "23")
        code, out, _ = run_cli(
            "evaluate", "--input", ADMISSIONS, "--folds", "2", "--output", "json"
        )
        assert code == 0
        assert json.loads(out)["seed"] == 23
        explicit = run_cli(
            "evaluate", "--input", ADMISSIONS, "--folds", "2", "--seed", "23",
            "--output", "json",
        )
        assert explicit[1] == out

    def test_bad_env_seed_exits_two(self, monkeypatch):
        monkeypatch.setenv("RREDUX_SEED", "not-a-number")
        code, out, err = run_cli(
            "evaluate", "--input", ADMISSIONS, "--folds", "2", "--output", "json"
        )
        assert code == 2
        assert out == ""
        assert "RREDUX_SEED" in err

    def test_folds_below_two_exits_two(self):
        code, out, err = run_cli("evaluate", "--input", ADMISSIONS, "--folds", "1")
        assert code == 2
        assert out == ""
        assert "folds must be" in err

    def test_unsupported_classifier_exits_two(self):
        code, _, err = run_cli(
            "evaluate", "--input", ADMISSIONS, "--classifier", "j48"
        )
        assert code == 2
        assert "j48" in err

    def test_library_value_error_exits_one(self, monkeypatch):
        """Only a bad flag exits 2; a ValueError that library code raises
        under valid flags is reported and exits 1."""
        def fail(*args, **kwargs):
            raise ValueError("fold 0 leaves no training or no test rows")

        monkeypatch.setattr("rredux.cli.compare", fail)
        code, out, err = run_cli("evaluate", "--input", ADMISSIONS, "--folds", "2")
        assert (code, out) == (1, "")
        assert err == "error: fold 0 leaves no training or no test rows\n"

    def test_fewer_rows_than_folds_exits_one(self, tmp_path):
        src = tmp_path / "one_row.csv"
        src.write_text("a,d\nu,A\n")
        code, out, err = run_cli("evaluate", "--input", str(src), "--folds", "2")
        assert (code, out) == (1, "")
        assert err == "error: 2 folds need at least 2 objects, got 1\n"


class TestJsonEmitter:
    def test_canonical_form(self):
        value = {"b": [1.0, 0.5, None], "a": {"y": True, "x": "q\"uote"}}
        assert canonical(value) == (
            '{"a": {"x": "q\\"uote", "y": true}, "b": [1.000000, 0.500000, null]}'
        )

    def test_ints_stay_ints(self):
        assert canonical({"n": 3}) == '{"n": 3}'

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError):
            canonical({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical({"x": object()})


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "rredux.cli", "reduct", "--input", ADMISSIONS,
             "--output", "json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["reduct"] == ["r", "i", "e"]

    def test_commands_load_neither_scipy_nor_numpy(self):
        """A categorical reduct and the default-threshold ChiMerge of a
        three-class numeric table run without importing scipy, numpy or
        fractions."""
        argvs = [
            ["reduct", "--input", ADMISSIONS],
            ["discretize", "--input", NUMERIC],
            ["evaluate", "--input", NUMERIC, "--classifier", "nb"],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from rredux.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(json.dumps(sorted({'scipy', 'numpy', 'fractions'} & set(sys.modules))))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            cwd=Path(__file__).parents[1], env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == []

    def test_threshold_beyond_table_without_scipy_exits_two(self, tmp_path):
        """33 classes need the critical value for 32 df, which only scipy
        gives; with scipy unavailable the run asks for --chi-threshold."""
        src = tmp_path / "many_classes.csv"
        src.write_text("x,d\n" + "".join(f"{i}.5,c{i}\n" for i in range(33)))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from rredux.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        args = [sys.executable, "-c", script, "discretize", "--input", str(src)]
        env = {**os.environ, "PYTHONPATH": "src"}
        root = Path(__file__).parents[1]
        result = subprocess.run(args, cwd=root, env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ")
        assert "--chi-threshold" in result.stderr
        assert "Traceback" not in result.stderr
        result = subprocess.run(args + ["--chi-threshold", "40"], cwd=root, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_perfbench_tracer_rebinds_every_name(self):
        """perfbench/tracer.py rebinds module attributes by name; a missing one
        fails every traced benchmark op, so check it here, out of process."""
        root = Path(__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, 'perfbench'); import tracer; "
             "tracer.instrument(tracer.Tracer())"],
            cwd=root, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("argv, spans", [
        (("reduct", "--input", ADMISSIONS, "--output", "json"),
         {"table.from_columns", "reduct.run_pipeline", "partition.relative_blocks",
          "similarity.matrix"}),
        (("evaluate", "--input", NUMERIC, "--classifier", "1nn", "--folds", "3",
          "--seed", "5", "--output", "json"),
         {"table.from_columns", "reduct.run_pipeline", "evaluate.cv_1nn"}),
    ], ids=["reduct", "evaluate-1nn"])
    def test_perfbench_traced_command(self, tmp_path, argv, spans):
        """A traced benchmark op runs the command with every observer installed
        (they read table, fold-plan and matrix attributes) and records its spans."""
        root = Path(__file__).parents[1]
        out = tmp_path / "spans.json"
        result = subprocess.run(
            [sys.executable, "perfbench/tracer.py", str(out), "0", "--", *argv],
            cwd=root, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert spans <= {span[0] for span in json.loads(out.read_text())}

    def test_console_script_declared(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["rredux"] == "rredux.cli:main"
        module, _, attr = scripts["rredux"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main

    @pytest.mark.skipif(shutil.which("rredux") is None,
                        reason="rredux console script not installed")
    def test_console_script(self):
        result = subprocess.run(
            ["rredux", "reduct", "--input", ADMISSIONS, "--output", "json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["reduct"] == ["r", "i", "e"]

"""Generated CSVs through every subcommand with valid flags: exit 0 or 1
(bad data), never a traceback, and the same bytes on a rerun."""

import contextlib
import csv
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from rredux.cli import main

NUMBERS = ("0.5", "1.5", "2", "-3.25", "1e1", "4.0", ".5")
WORDS = ("x", "y", "z", "1", "2.5", "inf", "1_0.5", " 3.5 ", "١.٥", "a,b", 'q"t')
GAPPY = ("", "?", "x", "y")  # with the missing-value tokens
OVERSIZED = "x" * (csv.field_size_limit() + 1)  # one character over the reader's limit


@st.composite
def csv_texts(draw):
    """A header with maybe an empty or duplicate name, 0-6 rows, columns of
    numbers, words or words with missing cells, now and then a row one
    cell short or long, and now and then one field, header or cell, longer
    than the CSV reader accepts."""
    width = draw(st.integers(1, 5))
    header = [f"h{i}" for i in range(width)]
    fault = draw(st.sampled_from(["none"] * 6 + ["empty", "duplicate"]))
    if fault == "empty":
        header[draw(st.integers(0, width - 1))] = ""
    elif fault == "duplicate" and width > 1:
        header[-1] = header[0]
    pools = [draw(st.sampled_from([NUMBERS, WORDS, WORDS[:3], GAPPY])) for _ in header]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(st.sampled_from(pool)) for pool in pools]
        ragged = draw(st.sampled_from([0] * 30 + [-1, 1]))
        rows.append(row[:ragged] if ragged < 0 else row + ["x"] * ragged)
    if draw(st.sampled_from([False] * 7 + [True])):
        line = draw(st.sampled_from([header] + [row for row in rows if row]))
        line[draw(st.integers(0, len(line) - 1))] = OVERSIZED
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_texts(), drop_missing=st.booleans())
def test_cli_exit_codes_and_reruns(text, drop_missing):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        extra = ["--drop-missing"] if drop_missing else []
        commands = [
            ["reduct", "--input", path, "--trace"],
            ["discretize", "--input", path],
            *(["evaluate", "--input", path, "--folds", "2", "--seed", "3",
               "--classifier", classifier] for classifier in ("nb", "1nn")),
        ]
        for argv in commands:
            first = run(argv + extra)
            # every flag here is valid, so only the data can fail a run (exit
            # 1); fewer rows than folds is short data, not a bad --folds
            assert first[0] in (0, 1), (argv, first)
            assert run(argv + extra) == first

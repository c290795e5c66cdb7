"""What the reduct must not depend on.

Every factor is an exact ratio of counts, and ``exact_mean`` rounds once,
so ``run_pipeline`` gives the same reduct and trace when the rows are
permuted or each repeated, and when the values of a column or the
decision classes are renamed injectively.  Rows that move or repeat
change the partitions' object ids, so those two compare the trace
without ``partitions``; the renamings keep even those.  On the sample
files, discretizing first or scaling a numeric column by two changes
nothing either.
"""

import contextlib
import csv
import io
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from rredux import from_columns, run_pipeline
from rredux.cli import main
from conftest import raw_column

DATA = Path(__file__).parent / "data"
SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tables(draw):
    """Rows of 1-5 condition cells and a decision, as strings: 1-14 rows,
    each column's values drawn from 1-4 labels."""
    m = draw(st.integers(1, 14))
    arities = draw(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    return [[f"v{draw(st.integers(0, k - 1))}" for k in arities] for _ in range(m)]


def pipeline(rows):
    names = [f"a{i}" for i in range(len(rows[0]) - 1)] + ["d"]
    columns = [raw_column(name, cells) for name, cells in zip(names, zip(*rows))]
    result = run_pipeline(from_columns(columns, "d"), trace=True)
    return result.reduct, result.isolated, result.trace


def without_partitions(outcome):
    reduct, isolated, trace = outcome
    return reduct, isolated, {k: v for k, v in trace.items() if k != "partitions"}


@SETTINGS
@given(data=st.data(), rows=tables())
def test_row_permutation(data, rows):
    shuffled = data.draw(st.permutations(rows))
    assert without_partitions(pipeline(shuffled)) == without_partitions(pipeline(rows))


@SETTINGS
@given(rows=tables(), k=st.integers(2, 3))
def test_every_row_repeated(rows, k):
    repeated = [row for row in rows for _ in range(k)]
    assert without_partitions(pipeline(repeated)) == without_partitions(pipeline(rows))


def renamed(data, rows, col):
    """``rows`` with column ``col``'s values renamed one to one, in an order
    of their own."""
    values = sorted({row[col] for row in rows})
    names = dict(zip(values, data.draw(st.permutations([f"w{v}" for v in values]))))
    return [[names[cell] if i == col else cell for i, cell in enumerate(row)] for row in rows]


@SETTINGS
@given(data=st.data(), rows=tables())
def test_injective_renaming_of_a_condition_column(data, rows):
    col = data.draw(st.integers(0, len(rows[0]) - 2))
    assert pipeline(renamed(data, rows, col)) == pipeline(rows)


@SETTINGS
@given(data=st.data(), rows=tables())
def test_renaming_the_decision_classes(data, rows):
    assert pipeline(renamed(data, rows, len(rows[0]) - 1)) == pipeline(rows)


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", ["admissions.csv", "numeric_sample.csv"])
def test_reduct_of_discretized_file_matches_raw(tmp_path, name):
    discretized = tmp_path / name
    discretized.write_text(run("discretize", "--input", str(DATA / name)))
    flags = ("--output", "json", "--trace")
    assert (run("reduct", "--input", str(discretized), *flags)
            == run("reduct", "--input", str(DATA / name), *flags))


@pytest.mark.parametrize("column", ["ri", "na", "mg", "al"])
def test_doubling_a_numeric_column_keeps_the_reduct(tmp_path, column):
    """x -> 2x is exact and increasing, so ChiMerge cuts the same rows apart."""
    with open(DATA / "numeric_sample.csv", newline="") as f:
        rows = list(csv.reader(f))
    pos = rows[0].index(column)
    for row in rows[1:]:
        row[pos] = repr(2 * float(row[pos]))
    doubled = tmp_path / "doubled.csv"
    with open(doubled, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    source = DATA / "numeric_sample.csv"
    assert (run("reduct", "--input", str(doubled), "--output", "json")
            == run("reduct", "--input", str(source), "--output", "json"))

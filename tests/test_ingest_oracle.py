"""Column-at-a-time ingestion against the row-at-a-time oracle in
``tests/ingest_oracle.py``: the same columns or the same error, and the
same table in the keyed form of ``tests/keyed_table_oracle.py``."""

import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cell_tuple_oracle
import ingest_oracle
from keyed_table_oracle import keyed
from rredux.discretize import discretize_columns
from rredux.table import from_columns, parse_columns
from test_properties import csv_texts


def outcome(fn, *args, **kwargs):
    """``(result, None)``, or ``(None, (type, message))`` of what ``fn`` raised."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # any exception is part of the outcome
        return None, (type(exc), str(exc))


def as_cells(result):
    """A parse outcome with each column as ``(name, cells)``: floats for a
    numeric column, texts for any other."""
    parsed, raised = result
    if parsed is None:
        return result
    columns, decision = parsed
    return ([(c.name, c.cells) for c in columns], decision), raised


# after a missing cell, an unclosed quote swallows the rest of the file
# into one field longer than csv.field_size_limit(), a csv.Error
UNCLOSED_QUOTE = 'a,b,d\nx,?,z\n"' + "p" * 140_000


@settings(max_examples=400, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_texts(), drop_missing=st.booleans())
@example(text='a,b,d\nx,y,z\n\n"p\nq",?,z\nx,,w\nu,v,w\n', drop_missing=False)
@example(text='a,b,d\nx,y,z\n\n"p\nq",?,z\nx,,w\nu,v,w\n', drop_missing=True)
@example(text="a,b,d\n?,y,z\n,,\n", drop_missing=True)
@example(text="a,b,d\nx,?,z\nx,y\n", drop_missing=False)
@example(text="a,b,d\nx,?,z\nx,y\n", drop_missing=True)
@example(text="a,b,d\n?,y,z\n\nx,,w\n", drop_missing=False)
@example(text="a,b,d\n?,y,z\n\nx,,w\n", drop_missing=True)
@example(text=UNCLOSED_QUOTE, drop_missing=False)
@example(text=UNCLOSED_QUOTE, drop_missing=True)
def test_ingestion_matches_oracle(text, drop_missing):
    def parsed(parse):
        return outcome(parse, io.BytesIO(text.encode("utf-8")), drop_missing=drop_missing)

    got, want = parsed(parse_columns), parsed(ingest_oracle.parse_columns)
    assert as_cells(got) == as_cells(want)
    if want[0] is None:
        return
    (columns, decision), (oracle_columns, _) = got[0], want[0]
    discretized, raised = outcome(discretize_columns, columns, decision)
    if raised:
        return
    columns, _ = discretized
    oracle_columns, _ = cell_tuple_oracle.discretize_columns(oracle_columns, decision)
    got = outcome(lambda *args: keyed(from_columns(*args)), columns, decision)
    want = outcome(ingest_oracle.from_columns, oracle_columns, decision)
    assert got == want

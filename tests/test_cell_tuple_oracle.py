"""The reader that hands out codes against the per-cell chain it replaced,
kept in ``tests/cell_tuple_oracle.py``: the same error, or the same
columns, ChiMerge maps, discretized cells, codes and domains.  Tables are
compared in the keyed form of ``tests/keyed_table_oracle.py``."""

import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cell_tuple_oracle
from keyed_table_oracle import keyed
from rredux.discretize import discretize_columns
from rredux.table import from_columns, parse_columns
from test_properties import csv_texts

LIBRARY = (parse_columns, discretize_columns, lambda *args: keyed(from_columns(*args)))
ORACLE = (cell_tuple_oracle.parse_columns, cell_tuple_oracle.discretize_columns,
          cell_tuple_oracle.from_columns)


def stages(chain, text, **kwargs):
    """Each stage's result in order, columns as ``(name, cells)`` (floats
    for a numeric column, texts for any other), ending with ``(type,
    message)`` of whatever raised."""
    parse, discretize, build = chain
    out = []
    try:
        columns, decision = parse(io.BytesIO(text.encode("utf-8")), **kwargs)
        out.append(([(c.name, c.cells) for c in columns], decision))
        columns, maps = discretize(columns, decision)
        out.append(maps)
        out.append([(c.name, c.cells) for c in columns])
        out.append(build(columns, decision))
    except Exception as exc:  # any exception is part of the outcome
        out.append((type(exc), str(exc)))
    return out


ID_LIKE = "id,x,d\n" + "".join(f"r{i},{i / 7:.3f},c{i % 3}\n" for i in range(200))
EQUAL_FLOATS = "a,b,d\n1,p,y\n1.0,q,n\n1.00,p,y\n1e0,q,n\n-0.0,p,y\n0.0,q,n\n1.0,p,n\n0.0,q,y\n"
# the dropped rows hold texts no kept row has: "only", "2x", "z" and "v"
DROPPED_ONLY = "a,b,d\nx,1.5,y\nonly,?,z\nw,2.5,n\nv,2x,?\nx,0.5,n\n"


@settings(max_examples=400, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    text=csv_texts(),
    drop_missing=st.booleans(),
    numeric_cols=st.none() | st.lists(st.sampled_from(["h0", "h1", "h2", "h3"]), max_size=2),
)
@example(text="\ufeffa,b,d\n1.5,x,y\n2.5,z,n\n", drop_missing=False, numeric_cols=None)
@example(text="a,b,c,d\n1,2,x,y\n3,4,z,n\n", drop_missing=False, numeric_cols=["a", "b"])
@example(text="a,b,c,d\n1,2,x,y\n3,oops,z,n\n4,bad,z,y\n", drop_missing=False,
         numeric_cols=["a", "b"])
@example(text=EQUAL_FLOATS, drop_missing=False, numeric_cols=None)
@example(text=EQUAL_FLOATS, drop_missing=False, numeric_cols=["a"])
@example(text=ID_LIKE, drop_missing=False, numeric_cols=None)
@example(text=DROPPED_ONLY, drop_missing=True, numeric_cols=None)
@example(text=DROPPED_ONLY, drop_missing=False, numeric_cols=None)
def test_codes_match_cell_tuple_oracle(text, drop_missing, numeric_cols):
    kwargs = {"drop_missing": drop_missing, "numeric_cols": numeric_cols}
    assert stages(LIBRARY, text, **kwargs) == stages(ORACLE, text, **kwargs)


def test_examples_reach_every_stage():
    """The id-like, equal-float and dropped-row examples get through to the
    table, so they compare every stage, not an early error."""
    for text, drop_missing in ((ID_LIKE, False), (EQUAL_FLOATS, False), (DROPPED_ONLY, True)):
        assert len(stages(LIBRARY, text, drop_missing=drop_missing)) == 4
    table = stages(LIBRARY, DROPPED_ONLY, drop_missing=True)[-1]
    assert table.domains["a"] == ("x", "w") and table.codes["a"] == (0, 1, 0)

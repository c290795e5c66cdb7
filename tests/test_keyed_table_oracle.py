"""A table of columns against the keyed table it replaced, kept in
``tests/keyed_table_oracle.py``: from the same columns, the same names,
codes and domains or the same error, including for columns broken by
hand; and the same projections.  Library tables are read through their
own accessors, so no check of the keyed form runs on them."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

import keyed_table_oracle as oracle
from rredux.table import RawColumn, from_columns, project

BREAKS = ("none", "range", "length", "repeat", "numeric")


@st.composite
def column_specs(draw, faults=BREAKS):
    """``(specs, fault)``: per column ``[name, kind, domain, codes]``, 1-5
    condition columns and the decision ``d`` anywhere, 1-8 objects, and at
    most one fault, drawn from ``faults``, put in by hand: a code outside
    its domain, a column one code short or long, a repeated name, or a
    numeric column."""
    m = draw(st.integers(1, 8))
    names = [f"a{i}" for i in range(draw(st.integers(1, 5)))]
    names.insert(draw(st.integers(0, len(names))), "d")
    specs = []
    for name in names:
        arity = draw(st.integers(1, 4))
        codes = draw(st.lists(st.integers(0, arity - 1), min_size=m, max_size=m))
        specs.append([name, oracle.CATEGORICAL, tuple(f"v{k}" for k in range(arity)), codes])
    fault = draw(st.sampled_from(faults))
    spec = specs[draw(st.integers(0, len(specs) - 1))]
    if fault == "range":
        i = draw(st.integers(0, m - 1))
        spec[3][i] = draw(st.sampled_from([-2, -1, len(spec[2]), len(spec[2]) + 3]))
    elif fault == "length":
        spec[3] = spec[3][:-1] if draw(st.booleans()) else spec[3] + [0]
    elif fault == "repeat":
        spec[0] = draw(st.sampled_from(names))
    elif fault == "numeric":
        spec[1], spec[2] = oracle.NUMERIC, tuple(k + 0.5 for k in range(len(spec[2])))
    return specs, fault


def library_table(specs):
    return from_columns([RawColumn(name, domain, tuple(codes))
                         for name, _, domain, codes in specs], "d")


def oracle_table(specs):
    return oracle.from_columns([oracle.RawColumn(name, kind, domain, tuple(codes))
                                for name, kind, domain, codes in specs], "d")


def library_view(table):
    """Names, then each column's name, codes and domain, of a library table."""
    columns = table.condition + (table.decision,)
    return (table.condition_attrs, table.decision_attr,
            [(col.name, col.codes, col.domain) for col in columns])


def oracle_view(table):
    """The same view of a keyed table."""
    names = table.condition_attrs + (table.decision_attr,)
    return (table.condition_attrs, table.decision_attr,
            [(a, table.codes[a], table.domains[a]) for a in names])


def outcome(build):
    """What ``build()`` returns, or ``(type, message)`` of what it raised."""
    try:
        return build()
    except Exception as exc:  # any exception is part of the outcome
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=column_specs())
def test_table_matches_keyed_oracle(drawn):
    specs, _ = drawn
    got = outcome(lambda: library_view(library_table(specs)))
    names = [spec[0] for spec in specs]
    if 1 < names.count("d") < len(names):
        # the keyed oracle keeps the last column named ``d``; the library refuses
        assert got == (ValueError, "attribute names must be unique")
    else:
        assert got == outcome(lambda: oracle_view(oracle_table(specs)))


def test_every_fault_is_drawn_and_caught():
    """Each fault kind turns up, and every fault raises but a name repeated
    onto its own column, which is no fault."""
    seen = {fault: 0 for fault in BREAKS}

    @settings(max_examples=400, database=None, derandomize=True)
    @given(drawn=column_specs())
    def count(drawn):
        specs, fault = drawn
        seen[fault] += 1
        built = outcome(lambda: library_table(specs))
        names = [spec[0] for spec in specs]
        if fault not in ("none", "repeat") or len(set(names)) < len(names):
            assert isinstance(built, tuple), (fault, specs)

    count()
    assert min(seen.values()) >= 20, seen


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=column_specs(faults=("none",)), data=st.data())
def test_projection_matches_keyed_oracle(drawn, data):
    specs, _ = drawn
    table = library_table(specs)
    attrs = data.draw(st.sets(st.sampled_from(table.condition_attrs + ("d", "z"))))
    got = outcome(lambda: library_view(project(table, attrs)))
    assert got == outcome(lambda: oracle_view(oracle.project(oracle_table(specs), attrs)))


def test_project_passes_the_columns_through(admissions):
    reduced = project(admissions, ["r", "e"])
    assert reduced.decision is admissions.decision
    own = {col.name: col for col in admissions.condition}
    assert [col.name for col in reduced.condition] == ["e", "r"]
    assert all(col is own[col.name] for col in reduced.condition)

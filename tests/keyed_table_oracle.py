"""The decision table as keyed dicts, kept as a differential oracle.

This is ``rredux.table``'s table form as it stood before a table held its
columns.  ``RawColumn`` carried a ``kind`` (``CATEGORICAL`` or
``NUMERIC``) beside its domain and codes and checked only that kind.
``DecisionTable`` restated every column as a ``codes`` dict and a
``domains`` dict keyed by name, beside the names in ``condition_attrs``
and ``decision_attr``; it checked that the dicts matched the names and
scanned every column's codes against its domain on each construction,
including the tables ``from_columns`` and ``project`` had just built.

``tests/test_keyed_table_oracle.py`` checks the library against them;
``tests/cell_tuple_oracle.py``, ``tests/ingest_oracle.py`` and
``tests/eval_oracle.py`` build their tables in this form, and ``keyed``
restates a library table in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from rredux.errors import SchemaError

CATEGORICAL = "categorical"
NUMERIC = "numeric"


@dataclass(frozen=True)
class RawColumn:
    """A parsed column: its kind, its distinct values and one code per object."""

    name: str
    kind: str
    domain: tuple
    codes: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise ValueError(f"unknown column kind {self.kind!r}")

    @property
    def cells(self) -> tuple:
        return tuple(map(self.domain.__getitem__, self.codes))


@dataclass(frozen=True)
class DecisionTable:
    """``codes[attr]`` and ``domains[attr]`` for every condition attribute
    and for the decision."""

    condition_attrs: tuple[str, ...]
    decision_attr: str
    codes: dict[str, tuple[int, ...]]
    domains: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if len(self.condition_attrs) < 1:
            raise ValueError("a decision table needs at least one condition attribute")
        names = self.condition_attrs + (self.decision_attr,)
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        if set(self.codes) != set(names):
            raise ValueError("codes must hold one column per attribute")
        if set(self.domains) != set(names):
            raise ValueError("domains must hold one entry per attribute")
        m = self.m
        if m < 1:
            raise ValueError("a decision table needs at least one object")
        for attr in names:
            column, size = self.codes[attr], len(self.domains[attr])
            if len(column) != m:
                raise ValueError(f"column {attr!r}: expected {m} codes, got {len(column)}")
            if min(column) < 0 or max(column) >= size:
                i = next(i for i, code in enumerate(column) if not 0 <= code < size)
                raise ValueError(
                    f"object 'x{i + 1}': code {column[i]} outside domain of {attr!r}"
                )

    @property
    def m(self) -> int:
        return len(self.codes[self.decision_attr])

    def column(self, attr: str) -> tuple[int, ...]:
        try:
            return self.codes[attr]
        except KeyError:
            raise ValueError(f"unknown attribute {attr!r}") from None


def from_columns(columns: Sequence[RawColumn], decision_attr: str) -> DecisionTable:
    by_name = {c.name: c for c in columns}
    if decision_attr not in by_name:
        raise ValueError(f"decision column {decision_attr!r} not among columns")
    for col in columns:
        if col.kind != CATEGORICAL:
            raise ValueError(f"column {col.name!r} is numeric; discretize it first")
    condition = tuple(c.name for c in columns if c.name != decision_attr)
    if not condition:
        raise SchemaError("no condition attributes besides the decision column")
    ordered = [by_name[a] for a in condition] + [by_name[decision_attr]]
    codes = {col.name: col.codes for col in ordered}
    domains = {col.name: col.domain for col in ordered}
    return DecisionTable(condition, decision_attr, codes, domains)


def project(table: DecisionTable, attrs: Iterable[str]) -> DecisionTable:
    wanted = set(attrs)
    if not wanted:
        raise ValueError("projection needs at least one attribute")
    unknown = wanted - set(table.condition_attrs)
    if unknown:
        raise ValueError(f"unknown attribute {sorted(unknown)[0]!r}")
    kept = tuple(a for a in table.condition_attrs if a in wanted)
    names = kept + (table.decision_attr,)
    codes = {a: table.codes[a] for a in names}
    domains = {a: table.domains[a] for a in names}
    return DecisionTable(kept, table.decision_attr, codes, domains)


def keyed(table) -> DecisionTable:
    """A library ``DecisionTable`` restated in the keyed form."""
    columns = table.condition + (table.decision,)
    return DecisionTable(
        table.condition_attrs,
        table.decision_attr,
        {col.name: col.codes for col in columns},
        {col.name: col.domain for col in columns},
    )

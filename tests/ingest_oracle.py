"""Row-at-a-time CSV ingestion kept as a differential oracle.

These are ``rredux.table``'s ingestion functions as they were before
the table was built a column at a time and before each row was read in
one loop: a generator turns decoding and csv faults into ``ParseError``,
rows carry their line numbers as ``(line_num, row)`` tuples, the
missing-value policy runs over every row in a second pass, each column is
gathered row by row, and codes come from a ``setdefault`` encoder.
``tests/test_ingest_oracle.py`` checks ``parse_columns`` and
``from_columns`` against them.  Columns are staged in the per-cell
``RawColumn`` of ``tests/cell_tuple_oracle.py``, and the table is built in
the keyed form of ``tests/keyed_table_oracle.py``.
"""

from __future__ import annotations

import csv
import io
from typing import BinaryIO, Iterable, Sequence

from cell_tuple_oracle import RawColumn
from keyed_table_oracle import CATEGORICAL, NUMERIC, DecisionTable
from rredux.errors import ParseError, SchemaError, UsageError, ValidationError
from rredux.table import MISSING_TOKENS, _looks_real, _parse_finite


def _records(reader):
    """The reader's rows, with decoding and csv faults raised as ParseError."""
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None


def _read_rows(text, delimiter: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    reader = csv.reader(text, delimiter=delimiter)
    records = _records(reader)
    header = next(records, None)
    if header is None:
        raise SchemaError("empty file: no header row")
    seen = set()
    for name in header:
        if name in seen:
            raise SchemaError(f"duplicate column name {name!r} in header")
        seen.add(name)
    rows = []
    for row in records:
        if not row:
            continue  # blank line
        if len(row) != len(header):
            raise ParseError(
                f"row {reader.line_num}: expected {len(header)} cells, got {len(row)}"
            )
        rows.append((reader.line_num, row))
    if not rows:
        raise SchemaError("no data rows after header")
    return header, rows


def _apply_missing_policy(header, rows, drop_missing: bool):
    kept = []
    for line_num, row in rows:
        missing = [name for name, cell in zip(header, row) if cell in MISSING_TOKENS]
        if not missing:
            kept.append(row)
        elif not drop_missing:
            raise ValidationError(
                f"missing value at row {line_num}, column {missing[0]!r}"
            )
    if not kept:
        raise SchemaError("no data rows left after dropping rows with missing values")
    return kept


def parse_columns(
    source: BinaryIO,
    decision_col: str | None = None,
    numeric_cols: Iterable[str] | None = None,
    *,
    delimiter: str = ",",
    drop_missing: bool = False,
) -> tuple[list[RawColumn], str]:
    """Parse a UTF-8 CSV byte stream into typed columns in header order.

    Returns the columns plus the decision column name (default: last
    column).  The decision column is always categorical; see the module
    docstring for how condition columns are typed.  A leading byte-order
    mark is skipped.  A delimiter or column name that cannot apply raises
    ``UsageError``.
    """
    if len(delimiter) != 1 or delimiter in '"\r\n':
        raise UsageError(
            f"delimiter must be a single character other than a quote or line break,"
            f" got {delimiter!r}"
        )
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    header, numbered = _read_rows(text, delimiter)
    rows = _apply_missing_policy(header, numbered, drop_missing)

    decision = header[-1] if decision_col is None else decision_col
    if decision not in header:
        raise UsageError(f"decision column {decision!r} not in header")
    flagged = set(numeric_cols or ())
    unknown = flagged - set(header)
    if unknown:
        raise UsageError(f"numeric column {sorted(unknown)[0]!r} not in header")
    if decision in flagged:
        raise UsageError(f"decision column {decision!r} cannot be numeric")

    columns: list[RawColumn] = []
    for pos, name in enumerate(header):
        cells = [row[pos] for row in rows]
        if name == decision:
            columns.append(RawColumn(name, CATEGORICAL, tuple(cells)))
            continue
        parsed = []
        for cell in cells:
            value = _parse_finite(cell)
            if value is None:
                break
            parsed.append(value)
        all_number = len(parsed) == len(cells)
        if name in flagged:
            if not all_number:
                bad = cells[len(parsed)]
                raise ValidationError(
                    f"column {name!r} flagged numeric but cell {bad!r} is not a finite number"
                )
            numeric = True
        else:
            numeric = all_number and any(_looks_real(c) for c in cells)
        if numeric:
            columns.append(RawColumn(name, NUMERIC, tuple(parsed)))
        else:
            columns.append(RawColumn(name, CATEGORICAL, tuple(cells)))
    return columns, decision


def from_columns(columns: Sequence[RawColumn], decision_attr: str) -> DecisionTable:
    """Encode all-categorical columns into a decision table.

    Object ids are positional (``x1`` .. ``xm``); category codes are dense
    integers in first-appearance order.
    """
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

    domains: dict[str, tuple[str, ...]] = {}
    codes: dict[str, tuple[int, ...]] = {}
    for col in ordered:
        index: dict[str, int] = {}
        codes[col.name] = tuple(index.setdefault(cell, len(index)) for cell in col.cells)
        domains[col.name] = tuple(index)
    return DecisionTable(condition, decision_attr, codes, domains)

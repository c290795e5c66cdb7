"""Ingestion through per-cell tuples, kept as a differential oracle.

These are ``rredux``'s ingestion functions as they stood before the
reader handed out codes.  ``RawColumn`` held one value per cell: the
text for a categorical column, a float checked finite one cell at a time
for a numeric one.  ``_read_rows`` stored each kept row as its texts,
equal texts made one ``str`` by an intern memo.  ``parse_columns``
zipped those rows into columns and typed each column over its cells.
``discretize_columns`` labelled every cell with ``label_of``, and
``from_columns`` encoded the cells to codes in a second pass.
``tests/test_cell_tuple_oracle.py`` checks the library against them,
and ``tests/ingest_oracle.py`` stages its columns in this ``RawColumn``.
Tables are built in the keyed form of ``tests/keyed_table_oracle.py``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import takewhile
from typing import BinaryIO, Iterable, Sequence

from keyed_table_oracle import CATEGORICAL, NUMERIC, DecisionTable
from rredux.discretize import DEFAULT_MAX_INTERVALS, IntervalMap, chimerge
from rredux.errors import ParseError, SchemaError, UsageError, ValidationError
from rredux.table import MISSING_TOKENS, _looks_real, _parse_finite


@dataclass(frozen=True)
class RawColumn:
    """A parsed but not yet encoded column.

    ``cells`` are strings for categorical columns and finite floats for
    numeric ones; missing values have already been rejected or dropped.
    """

    name: str
    kind: str
    cells: tuple

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == NUMERIC:
            for cell in self.cells:
                if not isinstance(cell, float) or not math.isfinite(cell):
                    raise ValidationError(
                        f"column {self.name!r}: non-finite numeric cell {cell!r}"
                    )


def _read_rows(text, delimiter: str, drop_missing: bool) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(text, delimiter=delimiter)
    rows, missing = [], None  # missing: (line, column) of the first missing cell
    memo = {}  # cell text -> the first str read with that text
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty file: no header row")
        seen = set()
        for name in header:
            if name in seen:
                raise SchemaError(f"duplicate column name {name!r} in header")
            seen.add(name)
        for row in reader:
            if not row:
                continue  # blank line
            if len(row) != len(header):
                raise ParseError(
                    f"row {reader.line_num}: expected {len(header)} cells, got {len(row)}"
                )
            if MISSING_TOKENS.isdisjoint(row):
                rows.append(list(map(memo.setdefault, row, row)))
            elif missing is None:
                column = next(n for n, cell in zip(header, row) if cell in MISSING_TOKENS)
                missing = (reader.line_num, column)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None
    if missing and not drop_missing:
        raise ValidationError(f"missing value at row {missing[0]}, column {missing[1]!r}")
    if not rows:
        if missing:
            raise SchemaError("no data rows left after dropping rows with missing values")
        raise SchemaError("no data rows after header")
    return header, rows


def parse_columns(
    source: BinaryIO,
    decision_col: str | None = None,
    numeric_cols: Iterable[str] | None = None,
    *,
    delimiter: str = ",",
    drop_missing: bool = False,
) -> tuple[list[RawColumn], str]:
    if len(delimiter) != 1 or delimiter in '"\r\n':
        raise UsageError(
            f"delimiter must be a single character other than a quote or line break,"
            f" got {delimiter!r}"
        )
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    header, rows = _read_rows(text, delimiter, drop_missing)
    cols = list(zip(*rows))  # one tuple of cells per header column

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
    for name, cells in zip(header, cols):
        if name == decision:
            columns.append(RawColumn(name, CATEGORICAL, cells))
            continue
        parsed = list(takewhile(lambda v: v is not None, map(_parse_finite, cells)))
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
            columns.append(RawColumn(name, CATEGORICAL, cells))
    return columns, decision


def discretize_columns(
    columns: Sequence[RawColumn],
    decision_attr: str,
    threshold: float | None = None,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
) -> tuple[list[RawColumn], dict[str, IntervalMap]]:
    by_name = {c.name: c for c in columns}
    if decision_attr not in by_name:
        raise ValueError(f"decision column {decision_attr!r} not among columns")
    decision = by_name[decision_attr]
    if decision.kind != CATEGORICAL:
        raise ValueError("decision column must be categorical")

    maps: dict[str, IntervalMap] = {}
    converted: list[RawColumn] = []
    for col in columns:
        if col.kind != NUMERIC:
            converted.append(col)
            continue
        imap = chimerge(col.cells, decision.cells, threshold, max_intervals)
        maps[col.name] = imap
        converted.append(
            RawColumn(col.name, CATEGORICAL, tuple(imap.label_of(v) for v in col.cells))
        )
    return converted, maps


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

    domains: dict[str, tuple[str, ...]] = {}
    codes: dict[str, tuple[int, ...]] = {}
    for col in ordered:
        index = {cell: k for k, cell in enumerate(dict.fromkeys(col.cells))}
        codes[col.name] = tuple(map(index.__getitem__, col.cells))
        domains[col.name] = tuple(index)
    return DecisionTable(condition, decision_attr, codes, domains)

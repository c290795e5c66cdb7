"""The row-at-a-time reader kept as a differential oracle.

This is ``rredux.table``'s reader as it was before rows were read a
chunk at a time: one Python loop checks each row's length and missing
cells as it arrives and keeps each kept row as a list of codes, and
``parse_columns`` turns those row lists into columns with ``zip(*rows)``.
``tests/test_row_list_oracle.py`` checks the chunked reader against it.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from itertools import takewhile
from typing import BinaryIO, Iterable

from rredux.errors import ParseError, SchemaError, UsageError, ValidationError
from rredux.table import MISSING_TOKENS, RawColumn, _looks_real, _parse_finite


def _read_rows(text, delimiter: str, drop_missing: bool) -> tuple[list, list, list]:
    """Header, per column a dict of text -> code, and each kept row's codes."""
    reader = csv.reader(text, delimiter=delimiter)
    rows, missing = [], None  # missing: (line, column) of the first missing cell
    try:
        header = next(filter(None, reader), None)  # blank lines before it are skipped
        if header is None:
            raise SchemaError("empty file: no header row")
        seen = set()
        for name in header:
            if name in seen:
                raise SchemaError(f"duplicate column name {name!r} in header")
            seen.add(name)
        domains = [defaultdict() for _ in header]
        for domain in domains:
            domain.default_factory = domain.__len__  # a new text gets the next code
        for row in reader:
            if not row:
                continue  # blank line
            if len(row) != len(header):
                raise ParseError(
                    f"row {reader.line_num}: expected {len(header)} cells, got {len(row)}"
                )
            if MISSING_TOKENS.isdisjoint(row):
                rows.append(list(map(dict.__getitem__, domains, row)))
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
    return header, domains, rows


def parse_columns(
    source: BinaryIO,
    decision_col: str | None = None,
    numeric_cols: Iterable[str] | None = None,
    *,
    delimiter: str = ",",
    drop_missing: bool = False,
) -> tuple[list[RawColumn], str]:
    """Parse a UTF-8 CSV byte stream into typed columns in header order."""
    if len(delimiter) != 1 or delimiter in '"\r\n':
        raise UsageError(
            f"delimiter must be a single character other than a quote or line break,"
            f" got {delimiter!r}"
        )
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    header, domains, rows = _read_rows(text, delimiter, drop_missing)

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
    # the first text that is not a number is also the first such cell in the file
    for name, texts, codes in zip(header, map(tuple, domains), zip(*rows)):
        # the decision is never numeric, so its texts are not parsed
        values = () if name == decision else tuple(
            takewhile(lambda v: v is not None, map(_parse_finite, texts)))
        if name in flagged and len(values) < len(texts):
            raise ValidationError(f"column {name!r} flagged numeric but cell "
                                  f"{texts[len(values)]!r} is not a finite number")
        numeric = len(values) == len(texts) and (name in flagged or any(map(_looks_real, texts)))
        columns.append(RawColumn(name, values if numeric else texts, codes))
    return columns, decision

"""Decision-table ingestion: CSV parsing, categorical encoding, projection.

A decision table holds m objects described by categorical condition
attributes plus one categorical decision attribute.  Cell values are
stored as dense integer codes assigned in first-appearance order, so
downstream partitioning and traces are deterministic for a given input.

Ingestion is ``parse_columns`` (typed :class:`RawColumn` staging data),
then ``discretize.discretize_columns`` (numeric columns to ChiMerge
labels), then ``from_columns`` (the encoded table).  A column counts
as numeric only when explicitly flagged, or when every cell is a plain
finite number literal (``_NUMBER``) and at least one cell is written in
real form (contains a decimal point or exponent).  Integer-only columns
are ambiguous -- they are just as often category codes -- and default to
categorical.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from itertools import takewhile
from typing import BinaryIO, Iterable, Sequence

from .errors import ParseError, SchemaError, UsageError, ValidationError

MISSING_TOKENS = frozenset({"", "?"})

CATEGORICAL = "categorical"
NUMERIC = "numeric"


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


@dataclass(frozen=True)
class DecisionTable:
    """Immutable categorical decision table, stored by column.

    ``codes[attr]`` holds one integer code per object, in object order,
    for every condition attribute and for the decision.  Codes index into
    ``domains[attr]``, the per-attribute label list in first-appearance
    order.  Objects are identified by position; where they are shown,
    object i is named ``x{i+1}``.
    """

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
        """The codes of ``attr`` (a condition attribute or the decision)."""
        try:
            return self.codes[attr]
        except KeyError:
            raise ValueError(f"unknown attribute {attr!r}") from None


def _read_rows(text, delimiter: str, drop_missing: bool) -> tuple[list[str], list[list[str]]]:
    """Header and the data rows without a missing cell, each checked once as read.

    Faults raise in file order: a structural one (undecodable bytes, a csv
    error, a ragged row) where it is found, even after a missing cell; then
    the first missing cell, unless ``drop_missing``; then a table left empty.
    Equal cells of the kept rows are one ``str`` object, so the rows hold
    one string per distinct cell text rather than one per cell.
    """
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


# A plain decimal or exponent literal in ASCII digits.  float() accepts more
# (surrounding spaces, underscores, non-ASCII digits, "inf", "nan").
_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)


def _parse_finite(cell: str) -> float | None:
    if not _NUMBER.fullmatch(cell):
        return None
    value = float(cell)
    return value if math.isfinite(value) else None


def _looks_real(cell: str) -> bool:
    return "." in cell or "e" in cell or "E" in cell


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


def from_columns(columns: Sequence[RawColumn], decision_attr: str) -> DecisionTable:
    """Encode all-categorical columns into a decision table.

    Category codes are dense integers in first-appearance order.
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
        index = {cell: k for k, cell in enumerate(dict.fromkeys(col.cells))}
        codes[col.name] = tuple(map(index.__getitem__, col.cells))
        domains[col.name] = tuple(index)
    return DecisionTable(condition, decision_attr, codes, domains)


def project(table: DecisionTable, attrs: Iterable[str]) -> DecisionTable:
    """Restrict the table to ``attrs`` plus the decision column.

    Kept columns stay in table order; object order, codes and the
    decision column are unchanged.
    """
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


# Translating the codes costs two C passes over them per code, the loop one
# Python step per position.  Measured on 100 to 40,000 positions (Python
# 3.11, 2-vCPU VM), translating takes 0.2-0.3 of the loop's time for 2-8
# codes, 0.5-0.8 for 16-24 and 0.75-0.9 for 32, and ties it at 40, at every
# length alike.
_TRANSLATE_MAX = 32
_ZEROS = b"0" * 256


def bitsets(codes: Sequence[int], size: int) -> tuple[int, ...]:
    """For each code below ``size``, the positions holding it in ``codes``
    as the set bits of one int.

    Up to ``_TRANSLATE_MAX`` codes, each int is parsed from the codes as
    bytes, last position first, with that code translated to the digit 1
    and every other code to 0.  More codes set bits in one bytearray per
    code in a single loop over the positions.
    """
    if codes and size <= _TRANSLATE_MAX:
        backwards = bytes(codes)[::-1]  # position i is the i-th digit from the right
        return tuple(int(backwards.translate(_ZEROS[:v] + b"1" + _ZEROS[v + 1:]), 2)
                     for v in range(size))
    buffers = [bytearray((len(codes) + 7) >> 3) for _ in range(size)]
    for i, code in enumerate(codes):
        buffers[code][i >> 3] |= 1 << (i & 7)
    return tuple(int.from_bytes(buffer, "little") for buffer in buffers)


def row_masks(table: DecisionTable) -> tuple[tuple[int, ...], ...]:
    """Per condition attribute, per code: the rows holding that code.

    Bit i of ``row_masks(table)[a][code]`` is set when row i holds
    ``code`` in the a-th condition attribute.  That is rows x (sum of the
    domain sizes) bits in all, one ``bitsets`` call per attribute.
    """
    return tuple(bitsets(table.column(a), len(table.domains[a])) for a in table.condition_attrs)

"""Decision-table ingestion: CSV parsing, categorical encoding, projection.

A decision table holds m objects described by categorical condition
attributes plus one categorical decision attribute.  Cell values are
stored as dense integer codes assigned in first-appearance order, so
downstream partitioning and traces are deterministic for a given input.

Ingestion is ``parse_columns`` (typed :class:`RawColumn` codes, as read),
then ``discretize.discretize_columns`` (numeric columns to ChiMerge
labels), then ``from_columns`` (the table).  A column counts
as numeric only when explicitly flagged, or when every cell is a plain
finite number literal (``_NUMBER``) and at least one cell is written in
real form (contains a decimal point or exponent).  Integer-only columns
are ambiguous -- they are just as often category codes -- and default to
categorical.  Typing reads each distinct cell text once, and a column's
kind is its domain: floats for a numeric column, texts for any other.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import defaultdict, namedtuple
from itertools import compress, islice, repeat, takewhile
from operator import attrgetter
from typing import BinaryIO, Iterable, Sequence

from .errors import ParseError, SchemaError, UsageError, ValidationError

MISSING_TOKENS = frozenset({"", "?"})


class RawColumn(namedtuple("RawColumn", "name domain codes")):
    """A column: its distinct values and one code per object.

    ``domain`` has one entry per distinct cell text in first-appearance
    order: the text, or for a numeric column its float (so ``"1.0"`` and
    ``"1.00"`` are two entries of one value).  ``codes`` index into it, one
    per object; missing values have already been rejected or dropped.
    Every code is checked against the domain here, where the column is
    built, and nowhere else.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` checks too

    def __new__(cls, name: str, domain: tuple, codes: tuple[int, ...]):
        bad = set(codes).difference(range(len(domain)))
        if bad:  # one C pass over the codes, where min and max take two
            i = next(i for i, code in enumerate(codes) if code in bad)
            raise ValueError(f"object 'x{i + 1}': code {codes[i]} outside domain of {name!r}")
        return super().__new__(cls, name, domain, codes)

    @property
    def numeric(self) -> bool:
        """Whether the domain is non-empty and holds only floats."""
        return bool(self.domain) and all(isinstance(v, float) for v in self.domain)

    @property
    def cells(self) -> tuple:
        """Each object's value, in object order."""
        return tuple(map(self.domain.__getitem__, self.codes))


class DecisionTable(namedtuple("DecisionTable", "condition decision")):
    """Immutable categorical decision table: its condition columns and its
    decision column.

    Objects are identified by position; where they are shown, object i is
    named ``x{i+1}``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` checks too

    def __new__(cls, condition: Sequence[RawColumn], decision: RawColumn):
        self = super().__new__(cls, tuple(condition), decision)  # from any sequence
        if len(self.condition) < 1:
            raise ValueError("a decision table needs at least one condition attribute")
        names = self.condition_attrs + (self.decision_attr,)
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        m = self.m
        if m < 1:
            raise ValueError("a decision table needs at least one object")
        for col in self.condition + (self.decision,):
            if len(col.codes) != m:
                raise ValueError(f"column {col.name!r}: expected {m} codes, got {len(col.codes)}")
            if col.numeric:
                raise ValueError(f"column {col.name!r} is numeric; discretize it first")
        return self

    @property
    def condition_attrs(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.condition)

    @property
    def decision_attr(self) -> str:
        return self.decision.name

    @property
    def m(self) -> int:
        return len(self.decision.codes)

    def column(self, attr: str) -> tuple[int, ...]:
        """The codes of ``attr`` (a condition attribute or the decision)."""
        for col in self.condition + (self.decision,):
            if col.name == attr:
                return col.codes
        raise ValueError(f"unknown attribute {attr!r}")


# Rows are read, checked and encoded ``_CHUNK`` at a time, each step one
# C-level pass over the chunk, so no Python runs per row and no row outlives
# its chunk.  On the 40,000-row tall benchmark input (Python 3.11, 2-vCPU
# VM) 32-256 rows parsed in 75-79 ms, 4,096 in 117 ms against the row
# loop's 142: rows that live that long are promoted by the collector first.
_CHUNK = 256


def _chunks(numbered):
    """Lists of up to ``_CHUNK`` ``(row, line)`` pairs.  A read fault raises
    only after the chunk of rows read before it, so those are checked first."""
    while True:
        chunk = []
        try:
            chunk.extend(islice(numbered, _CHUNK))  # keeps what it read if it raises
        except (UnicodeDecodeError, csv.Error):
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk


def _read_rows(text, delimiter: str, drop_missing: bool) -> tuple[list, list, list]:
    """Header, per column a dict of text -> code, and per column its codes.

    Faults raise in file order: a structural one (undecodable bytes, a csv
    error, a ragged row) where it is found, even after a missing cell; then
    the first missing cell, unless ``drop_missing``; then a table left empty.
    Codes follow first appearance, and a row with a missing cell is dropped
    from its chunk unencoded, so its texts enter no dict.
    """
    reader = csv.reader(text, delimiter=delimiter)
    missing = None  # (line, column) of the first missing cell
    try:
        header = next(filter(None, reader), None)  # blank lines before it are skipped
        if header is None:
            raise SchemaError("empty file: no header row")
        if len(set(header)) < len(header):
            name = next(name for i, name in enumerate(header) if name in header[:i])
            raise SchemaError(f"duplicate column name {name!r} in header")
        width, codes = len(header), [[] for _ in header]
        domains = [defaultdict() for _ in header]
        for domain in domains:
            domain.default_factory = domain.__len__  # a new text gets the next code
        # each non-blank row with the line it ends on
        numbered = zip(filter(None, reader), map(attrgetter("line_num"), repeat(reader)))
        for chunk in _chunks(numbered):
            rows, lines = zip(*chunk)
            if set(map(len, rows)) != {width}:
                i = next(i for i, row in enumerate(rows) if len(row) != width)
                raise ParseError(f"row {lines[i]}: expected {width} cells, got {len(rows[i])}")
            columns = list(zip(*rows))
            if not all(map(MISSING_TOKENS.isdisjoint, columns)):
                kept = list(map(MISSING_TOKENS.isdisjoint, rows))
                i = kept.index(False)
                gaps = map(MISSING_TOKENS.__contains__, rows[i])
                missing = missing or (lines[i], next(compress(header, gaps)))
                columns = list(zip(*compress(rows, kept)))
            for out, domain, column in zip(codes, domains, columns):
                out.extend(map(domain.__getitem__, column))
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None
    if missing and not drop_missing:
        raise ValidationError(f"missing value at row {missing[0]}, column {missing[1]!r}")
    if not codes[0]:
        raise SchemaError("no data rows left after dropping rows with missing values"
                          if missing else "no data rows after header")
    return header, domains, codes


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
    try:
        header, domains, codes = _read_rows(text, delimiter, drop_missing)
    finally:
        text.detach()  # the caller's stream stays open

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
    codes.reverse()  # popped in header order, so each list dies once it is a tuple
    # the first text that is not a number is also the first such cell in the file
    for name, texts in zip(header, map(tuple, domains)):
        # the decision is never numeric, so its texts are not parsed
        values = () if name == decision else tuple(
            takewhile(lambda v: v is not None, map(_parse_finite, texts)))
        if name in flagged and len(values) < len(texts):
            raise ValidationError(f"column {name!r} flagged numeric but cell "
                                  f"{texts[len(values)]!r} is not a finite number")
        numeric = len(values) == len(texts) and (name in flagged or any(map(_looks_real, texts)))
        columns.append(RawColumn(name, values if numeric else texts, tuple(codes.pop())))
    return columns, decision


def from_columns(columns: Sequence[RawColumn], decision_attr: str) -> DecisionTable:
    """The decision table of all-categorical columns, each column as it is."""
    decision = [c for c in columns if c.name == decision_attr]
    if not decision:
        raise ValueError(f"decision column {decision_attr!r} not among columns")
    condition = tuple(c for c in columns if c.name != decision_attr)
    if not condition:
        raise SchemaError("no condition attributes besides the decision column")
    if len(decision) > 1:
        raise ValueError("attribute names must be unique")
    return DecisionTable(condition, decision[0])


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
    return DecisionTable(tuple(c for c in table.condition if c.name in wanted), table.decision)


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
    return tuple(bitsets(col.codes, len(col.domain)) for col in table.condition)

"""The chunked CSV reader against the row-at-a-time reader it replaced,
kept in ``tests/row_list_oracle.py``: the same header, domain order and
codes, or the same error, with ``_CHUNK`` patched so that rows and faults
fall in later chunks; the memory a parse holds at its peak; and the
caller's stream left open."""

import gc
import io
import tracemalloc
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

import row_list_oracle
import rredux.table
from rredux.errors import ParseError, ValidationError
from rredux.table import _CHUNK, _read_rows, parse_columns
from test_properties import csv_texts

SIZES = (1, 2, 3, _CHUNK)


def outcome(fn, *args, **kwargs):
    """``(result, None)``, or ``(None, (type, message))`` of what ``fn`` raised."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # any exception is part of the outcome
        return None, (type(exc), str(exc))


def text_of(data: bytes):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def read(data: bytes, drop_missing: bool):
    """The chunked reader's header, each domain's texts in code order and
    each column's codes."""
    header, domains, codes = _read_rows(text_of(data), ",", drop_missing)
    return header, [list(domain) for domain in domains], [list(column) for column in codes]


def oracle_read(data: bytes, drop_missing: bool):
    """The same of the row-at-a-time reader, its row lists turned into columns."""
    header, domains, rows = row_list_oracle._read_rows(text_of(data), ",", drop_missing)
    return header, [list(domain) for domain in domains], [list(column) for column in zip(*rows)]


def assert_matches_oracle(data: bytes, drop_missing: bool, sizes=SIZES):
    want = outcome(oracle_read, data, drop_missing)
    want_parsed = outcome(row_list_oracle.parse_columns, io.BytesIO(data),
                          drop_missing=drop_missing)
    for size in sizes:
        with mock.patch.object(rredux.table, "_CHUNK", size):
            assert outcome(read, data, drop_missing) == want, size
            got_parsed = outcome(parse_columns, io.BytesIO(data), drop_missing=drop_missing)
            assert got_parsed == want_parsed, size
    return want


@settings(max_examples=400, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_texts(), drop_missing=st.booleans())
def test_reader_matches_row_list_oracle(text, drop_missing):
    assert_matches_oracle(text.encode("utf-8"), drop_missing, sizes=(1, 2, _CHUNK))


HEADER = b"a,b,d\n"
# a cell longer than one 8 KiB read of the text decoder, so that the bytes
# after it are decoded in a later read than the rows before it
PAD = b"q," + b"p" * 9000 + b",n\n"


def good_rows(count: int) -> bytes:
    return b"".join(b"x%d,v%d,c%d\n" % (i % 5, i % 3, i % 2) for i in range(count))


def with_blank_lines(count: int) -> bytes:
    """``count`` rows with a blank line after every seventh and a quoted
    line break in every eleventh, so that lines and rows part ways."""
    return b"".join((b'"x\n%d",v,c\n' % i if i % 11 == 0 else b"x%d,v,c\n" % (i % 4))
                    + (b"\n" if i % 7 == 0 else b"") for i in range(count))


# every fault sits past the first chunk at each size in SIZES
LATER_CHUNK_CASES = {
    "ragged row, then an undecodable byte": (
        HEADER + good_rows(300) + b"x,y\n" + PAD + b"\xff,y,n\n" + good_rows(5),
        (ParseError, "row 302: expected 3 cells, got 2")),
    "an undecodable byte after good rows": (
        HEADER + good_rows(300) + PAD + b"\xff,y,n\n",
        (ParseError, "input is not UTF-8 text")),
    "missing cell, then a ragged row": (
        HEADER + good_rows(300) + b"x,?,y\n" + good_rows(10) + b"x,y\n" + good_rows(5),
        (ParseError, "row 313: expected 3 cells, got 2")),
    "missing cell alone": (
        HEADER + good_rows(300) + b"x,,y\n" + good_rows(10) + b"?,v,c\n" + good_rows(5),
        None),
    "blank lines, then a ragged row": (
        HEADER + with_blank_lines(400) + b"x,y,z,w\n" + good_rows(3),
        (ParseError, "cells, got 4")),
    "blank lines, then a missing cell": (
        HEADER + with_blank_lines(400) + b"x,?,c\n" + with_blank_lines(20),
        None),
    "blank lines only": (HEADER + b"\n\n" + with_blank_lines(600) + b"\n\n", None),
}


@pytest.mark.parametrize("drop_missing", [False, True])
@pytest.mark.parametrize("case", sorted(LATER_CHUNK_CASES))
def test_later_chunk_faults_match_oracle(case, drop_missing):
    data, fault = LATER_CHUNK_CASES[case]
    _, raised = assert_matches_oracle(data, drop_missing)
    if fault is None:
        return
    assert raised[0] is fault[0] and fault[1] in raised[1], raised


def test_later_chunk_lines_are_named():
    """The line a missing cell or ragged row is reported on is its own,
    past blank lines and quoted line breaks in the chunks before it: the
    400 rows before it take 400 lines, 37 quoted line breaks and 58 blank
    lines, after the header."""
    data, _ = LATER_CHUNK_CASES["blank lines, then a missing cell"]
    _, raised = outcome(read, data, False)
    assert raised == (ValidationError, "missing value at row 497, column 'b'")
    data, _ = LATER_CHUNK_CASES["blank lines, then a ragged row"]
    _, raised = outcome(read, data, False)
    assert raised == (ParseError, "row 497: expected 3 cells, got 4")


def test_parse_holds_the_file_once():
    """At its peak a parse holds at most 1.6 times what its result holds:
    rows are not kept beside the columns built from them."""
    header = ",".join(f"a{j}" for j in range(20)) + "\n"
    body = "".join(",".join(f"v{i * (j + 3) % (j + 2)}" for j in range(20)) + "\n"
                   for i in range(20_000))
    source = io.BytesIO((header + body).encode())
    gc.collect()
    tracemalloc.start()
    try:
        result = parse_columns(source)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0]) == 20 and len(result[0][0].codes) == 20_000
    assert peak <= 1.6 * held, (peak, held)


@pytest.mark.parametrize("data, parses", [
    (b"a,d\nx,y\n", True), (b"a,d\nx\n", False), (b"a,d\n\xff,y\n", False), (b"", False)])
def test_stream_left_open(data, parses):
    source = io.BytesIO(data)
    parsed, _ = outcome(parse_columns, source)
    assert (parsed is not None) == parses
    assert not source.closed
    gc.collect()  # a wrapper left attached would close the stream when collected
    assert not source.closed

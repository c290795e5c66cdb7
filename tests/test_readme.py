"""The README's examples, run as written from the repository root."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import rredux
from rredux.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README, re.S)


def shown_values(block):
    """(expression, value) for each line written ``expression  # literal``."""
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            yield code.strip(), ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue


def test_pipeline_block():
    block = python_blocks()[0]
    namespace = {}
    exec(block, namespace)
    shown = list(shown_values(block))
    assert shown == [("result.reduct", ("r", "i", "e")), ("result.isolated", ("i", "e"))]
    for expression, value in shown:
        assert eval(expression, namespace) == value
    stages = ["delta", "ass_selected", "avg_factor", "ass_filtered", "ass_compound",
              "iterations", "reduct", "isolated"]
    assert sorted(namespace["result"].trace) == sorted(stages)
    full_trace = namespace["full_trace"]
    assert sorted(full_trace) == sorted(stages + ["partitions"])
    assert sorted(full_trace["partitions"]) == ["decision", "plain", "relative"]


def test_discretize_block():
    block = python_blocks()[1]
    namespace = {}
    exec(block, namespace)
    shown = list(shown_values(block))
    assert [expression for expression, _ in shown] == ['maps["mg"].labels']
    assert namespace["maps"]["mg"].labels == shown[0][1]


def test_reduct_command():
    command = "rredux reduct --input tests/data/admissions.csv --output json"
    lines = README.splitlines()
    want = lines[lines.index(command) + 1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)[1:]) == 0
    assert out.getvalue() == want + "\n"


def test_package_surface_list():
    """The names README gives as "`rredux.__all__` is exactly this list"."""
    start = README.index("`rredux.__all__` is exactly this list:\n")
    bullets = README[start:].split("\n\n")[1]
    assert set(re.findall(r"`(\w+)`", bullets)) == set(rredux.__all__)

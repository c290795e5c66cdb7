"""Every name a ``rredux`` module imports is used in that module, and
importing the CLI pulls in no heavy standard module.

A deletion that leaves its import behind fails here.  ``__init__.py`` is
exempt: its imports are the package surface.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "rredux"

# (module, name) imported but never referenced, each kept for a reason
UNREFERENCED = {
    # perfbench/tracer.py rebinds these module-level names to time them
    ("cli", "chimerge"),
    ("discretize", "from_columns"),
}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _referenced(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_referenced(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    unused = _imported(tree) - _referenced(tree)
    assert unused == {name for mod, name in UNREFERENCED if mod == module}


def _modules_after(code: str) -> set[str]:
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_cli_import_loads_no_dataclasses_or_inspect():
    """``dataclasses`` imports ``inspect``, which costs more at start-up than
    the records it would build."""
    added = _modules_after("import rredux.cli") - _modules_after("pass")
    assert not added & {"dataclasses", "inspect"}

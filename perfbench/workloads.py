"""Seeded inputs and the CLI commands of each benchmark workload.

A workload is a set of generated CSV files plus the cycle of ``rredux``
commands run on them.  Everything here is a pure function of the seed
and the size preset, so the same seed always gives byte-identical files.
"""

from __future__ import annotations

import csv
import io
import os
import random
from dataclasses import dataclass

ADMISSIONS = "tests/data/admissions.csv"
CLASSES = 3

# Full sizes are the benchmarked ones; "tiny" keeps every code path but
# runs in milliseconds, for the smoke test.
SIZES = {
    "full": {
        "wide_rows": 2000, "wide_attrs": 24,
        "tall_rows": 40000, "tall_attrs": 6,
        "numeric_rows": 800, "numeric_span": 270,
        "small_rows": 40,
    },
    "tiny": {
        "wide_rows": 60, "wide_attrs": 8,
        "tall_rows": 200, "tall_attrs": 6,
        "numeric_rows": 60, "numeric_span": 40,
        "small_rows": 20,
    },
}
ARITIES = (3, 5, 8, 40)


@dataclass(frozen=True)
class InputFile:
    """One generated CSV and the properties the report records."""

    name: str
    data: bytes
    header: tuple[str, ...]
    numeric: tuple[str, ...]
    properties: dict


@dataclass(frozen=True)
class Op:
    """One CLI command: ``kind`` selects the correctness check."""

    kind: str
    args: tuple[str, ...]
    input: InputFile
    sidecar: str | None = None


def _csv_bytes(header, rows) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def _input(name, header, rows, numeric=()) -> InputFile:
    data = _csv_bytes(header, rows)
    columns = list(zip(*rows))
    arities = [len(set(col)) for h, col in zip(header[:-1], columns) if h not in numeric]
    distinct = [len(set(col)) for h, col in zip(header[:-1], columns) if h in numeric]
    props = {
        "rows": len(rows),
        "attributes": len(header) - 1,
        "arity_mix": arities,
        "distinct_numeric_values": distinct,
        "classes": len(set(columns[-1])),
        "csv_bytes": len(data),
    }
    return InputFile(name, data, tuple(header), tuple(numeric), props)


def _categorical(rng, rows, arities, tie):
    """Rows of categorical cells whose values lean on the class with rate ``tie``."""
    out = []
    for _ in range(rows):
        y = rng.randrange(CLASSES)
        cells = [
            f"v{(y * 7 + j) % k if rng.random() < tie else rng.randrange(k)}"
            for j, k in enumerate(arities)
        ]
        cells.append(f"c{y}")
        out.append(cells)
    return out


def _header(n_attrs):
    return [f"a{j + 1}" for j in range(n_attrs)] + ["class"]


def wide_inputs(rng, size):
    arities = [ARITIES[j % 4] for j in range(size["wide_attrs"])]
    rows = _categorical(rng, size["wide_rows"], arities, tie=0.3)
    return [_input("wide.csv", _header(len(arities)), rows)]


def tall_inputs(rng, size):
    arities = [ARITIES[j % 4] for j in range(size["tall_attrs"])]
    rows = _categorical(rng, size["tall_rows"], arities, tie=0.3)
    return [_input("tall.csv", _header(len(arities)), rows)]


def numeric_inputs(rng, size):
    """Four one-decimal float columns plus categoricals of arity 4 and 6."""
    span = size["numeric_span"]
    band = span // CLASSES
    header = ["x1", "x2", "x3", "x4", "k4", "k6", "class"]
    rows = []
    for _ in range(size["numeric_rows"]):
        y = rng.randrange(CLASSES)
        cells = []
        for _ in range(4):
            code = y * band + rng.randrange(band) if rng.random() < 0.5 else rng.randrange(span)
            cells.append(f"{code / 10:.1f}")
        cells.append(f"k{y if rng.random() < 0.4 else rng.randrange(4)}")
        cells.append(f"k{rng.randrange(6)}")
        cells.append(f"c{y}")
        rows.append(cells)
    return [_input("numeric.csv", header, rows, numeric=("x1", "x2", "x3", "x4"))]


def small_inputs(rng, size):
    """A two-cluster table with two float columns for discretize and evaluate."""
    rows = []
    for _ in range(size["small_rows"]):
        y = rng.randrange(2)
        rows.append([
            f"{rng.gauss(2.0 + 3.0 * y, 1.0):.2f}",
            f"{rng.gauss(5.0 - 2.0 * y, 1.5):.2f}",
            ("pos", "neg")[y],
        ])
    return [_input("small.csv", ["x1", "x2", "label"], rows, numeric=("x1", "x2"))]


def load_admissions() -> InputFile:
    """The committed 8-row sample, used as is rather than generated."""
    with open(ADMISSIONS, newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    return _input(ADMISSIONS, header, rows)


def _reduct_wide_ops(files, seed, workdir):
    path = os.path.join(workdir, files[0].name)
    return [Op("reduct", ("reduct", "--input", path, "--output", "json", "--trace"), files[0])]


def _reduct_tall_ops(files, seed, workdir):
    path = os.path.join(workdir, files[0].name)
    return [Op("reduct", ("reduct", "--input", path, "--output", "json"), files[0])]


def _evaluate_ops(files, seed, workdir):
    path = os.path.join(workdir, files[0].name)
    return [Op("evaluate", ("evaluate", "--input", path, "--classifier", "1nn",
                            "--folds", "5", "--seed", str(seed), "--output", "json"),
               files[0])]


def _cli_small_ops(files, seed, workdir):
    small = files[0]
    path = os.path.join(workdir, small.name)
    cuts = os.path.join(workdir, "cuts.json")
    return [
        Op("admissions", ("reduct", "--input", ADMISSIONS, "--output", "json"),
           load_admissions()),
        Op("discretize", ("discretize", "--input", path, "--emit-cuts", cuts), small,
           sidecar=cuts),
        Op("evaluate", ("evaluate", "--input", path, "--classifier", "nb",
                        "--seed", str(seed), "--output", "json"), small),
    ]


@dataclass(frozen=True)
class Workload:
    """``in_process`` workloads call ``rredux.cli.main`` inside the worker;
    the others start a fresh ``python -m rredux.cli`` per command."""

    name: str
    in_process: bool
    make_inputs: object
    make_ops: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reduct_wide_trace", True, wide_inputs, _reduct_wide_ops),
        Workload("reduct_tall", True, tall_inputs, _reduct_tall_ops),
        Workload("evaluate_numeric_1nn", True, numeric_inputs, _evaluate_ops),
        Workload("cli_small", False, small_inputs, _cli_small_ops),
    )
}


def generate(workload: Workload, seed: int, size_name: str) -> list[InputFile]:
    return workload.make_inputs(random.Random(seed), SIZES[size_name])

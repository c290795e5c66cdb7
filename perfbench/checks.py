"""The correctness gate every benchmark operation passes through.

An operation fails when the command exits non-zero, when its output is
malformed (a reduct outside the attributes, cut points that do not
increase, an accuracy outside [0, 1] ...), when it differs by a single
byte from the first output of the same command in the run, or, at the
default seed and full size, when its digest differs from the one
recorded from the seed commit in ``digests.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from bisect import bisect_right

ADMISSIONS_STDOUT = '{"isolated": ["i", "e"], "reduct": ["r", "i", "e"]}\n'
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


class Malformed(Exception):
    """An output that breaks a property every correct output has."""


def _require(condition, message):
    if not condition:
        raise Malformed(message)


def _attrs(op):
    return op.input.header[:-1]


def _check_reduct_fields(op, payload):
    attrs = _attrs(op)
    reduct, isolated = payload["reduct"], payload["isolated"]
    _require(reduct, "empty reduct")
    _require(len(set(reduct)) == len(reduct), "reduct repeats an attribute")
    _require(set(reduct) <= set(attrs), "reduct names an unknown attribute")
    _require(set(isolated) <= set(reduct), "an isolated attribute is missing from the reduct")


def check_reduct(op, stdout, sidecar):
    payload = json.loads(stdout)
    traced = "--trace" in op.args
    _require(set(payload) == {"reduct", "isolated"} | ({"trace"} if traced else set()),
             "unexpected keys in reduct output")
    _check_reduct_fields(op, payload)
    if traced:
        trace = payload["trace"]
        n = len(_attrs(op))
        _require(trace["reduct"] == payload["reduct"], "trace disagrees with the reduct")
        _require(len(trace["delta"]) == n * (n - 1), "trace lacks pairwise factors")
        _require(all(0.0 < row["factor"] <= 1.0 for row in trace["delta"]),
                 "similarity factor outside (0, 1]")


def check_admissions(op, stdout, sidecar):
    _require(stdout == ADMISSIONS_STDOUT, f"admissions reduct printed {stdout!r}")


def check_evaluate(op, stdout, sidecar):
    payload = json.loads(stdout)
    folds = int(op.args[op.args.index("--folds") + 1]) if "--folds" in op.args else 5
    _check_reduct_fields(op, payload)
    _require(payload["seed"] == int(op.args[op.args.index("--seed") + 1]), "seed not echoed")
    _require(payload["folds"] == folds, "fold count not echoed")
    _require(tuple(payload["full"]["attrs"]) == _attrs(op), "full set is not every attribute")
    _require(set(payload["reduced"]["attrs"]) == set(payload["reduct"]),
             "reduced set is not the reduct")
    for name in ("full", "reduced"):
        report = payload[name]
        accs = report["fold_accuracies"]
        _require(len(accs) == folds, f"{name}: one accuracy per fold expected")
        _require(all(0.0 <= a <= 1.0 for a in accs), f"{name}: accuracy outside [0, 1]")
        _require(0.0 <= report["mean_accuracy"] <= 1.0, f"{name}: mean outside [0, 1]")
        _require(math.isclose(report["mean_accuracy"], sum(accs) / folds, abs_tol=2e-6),
                 f"{name}: mean is not the mean of the folds")
        _require(0.0 <= report["consistency"] <= 1.0, f"{name}: consistency outside [0, 1]")
    delta = payload["reduced"]["mean_accuracy"] - payload["full"]["mean_accuracy"]
    _require(math.isclose(payload["delta"], delta, abs_tol=2e-6), "delta is not reduced - full")


def check_discretize(op, stdout, sidecar):
    header, *rows = list(csv.reader(io.StringIO(stdout)))
    source = list(csv.reader(io.StringIO(op.input.data.decode("utf-8"))))[1:]
    _require(tuple(header) == op.input.header, "discretize changed the header")
    _require(len(rows) == len(source), "discretize changed the row count")
    cuts = json.loads(sidecar)
    _require(set(cuts) == set(op.input.numeric), "cut file does not cover the numeric columns")
    for name, spec in cuts.items():
        points, labels = spec["cut_points"], spec["labels"]
        _require(all(a < b for a, b in zip(points, points[1:])),
                 f"{name}: cut points do not strictly increase")
        _require(len(labels) == len(points) + 1, f"{name}: one label per interval expected")
    for out_row, in_row in zip(rows, source):
        for name, out_cell, in_cell in zip(header, out_row, in_row):
            if name in cuts:
                spec = cuts[name]
                # cut points are printed to six decimals; inputs have two
                expected = spec["labels"][bisect_right(spec["cut_points"], float(in_cell))]
                _require(out_cell == expected, f"{name}: {in_cell} labelled {out_cell}")
            else:
                _require(out_cell == in_cell, f"{name}: categorical cell changed")


CHECKS = {
    "reduct": check_reduct,
    "admissions": check_admissions,
    "evaluate": check_evaluate,
    "discretize": check_discretize,
}


def digest(stdout: bytes, sidecar: bytes) -> str:
    return hashlib.sha256(stdout + b"\0" + sidecar).hexdigest()


def recorded_digests(workload: str) -> list[str]:
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)[workload]


class Gate:
    """Checks each output of a run's command cycle; None means it passed."""

    def __init__(self, ops, recorded: list[str] | None = None):
        self.ops = ops
        self.recorded = recorded
        self.first: dict[int, str] = {}

    def check(self, index: int, code: int, stdout: bytes, sidecar: bytes) -> str | None:
        op = self.ops[index]
        if code != 0:
            return f"{op.kind}: exit status {code}"
        try:
            CHECKS[op.kind](op, stdout.decode("utf-8"), sidecar.decode("utf-8"))
        except (Malformed, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{op.kind}: {type(exc).__name__}: {exc}"
        seen = digest(stdout, sidecar)
        if self.first.setdefault(index, seen) != seen:
            return f"{op.kind}: output differs from this run's first output"
        if self.recorded is not None and self.recorded[index] != seen:
            return f"{op.kind}: output differs from the seed commit's"
        return None

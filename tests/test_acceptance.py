"""Acceptance checks for the whole package.

Each test prints a single PASS/FAIL line to the real stdout so the suite
doubles as a checklist when run under ``pytest tests/test_acceptance.py``.

The end-to-end check compares every pipeline stage with the paper's worked
example on the bundled admissions sample, with two documented corrections:

* the paper's ``U_D/r`` holds the block ``{x3, x7}``, whose objects have
  different decisions, although the relation only groups objects that
  agree on the decision; the corrected partition splits it, and the
  similarity factors, sets and reduct downstream of it change with it;
* the paper truncates its factors to two decimals (0.83 for 5/6, 0.76 for
  23/30), so the factors are recorded as exact fractions instead.

The paper's stages are still checked against its own figures: its twelve
recorded factors, fed through the selection, filtering, compounding and
reduction stages, give its selected, filtered and compound sets, its
average and its reduct.
"""

import contextlib
import io
import itertools
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from math import floor, isclose

from rredux.cli import main
from rredux.discretize import chi_square, chimerge
from rredux.evaluate import compare, nb_train, nb_predict, stratified_folds
from rredux.jsonout import canonical
from rredux.partition import blocks, decision_blocks, relative_blocks
from rredux.reduct import comp_sim, run_pipeline, select_pairs, sin_red_gen, ass_gen
from rredux.similarity import SimilarityMatrix, matrix
from rredux.table import RawColumn, from_columns
from conftest import factor_of
from member_count_oracle import factor

import json
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _report(name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {name}", file=sys.__stdout__, flush=True)


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _as_sets(labelled_blocks):
    return {frozenset(block) for block in labelled_blocks}


REFERENCE_PARTITIONS = (
    ("U/D", ("decision",), [{"x1", "x4", "x7"}, {"x2", "x3", "x5", "x6", "x8"}]),
    ("U/i", ("plain", "i"), [{"x1", "x2", "x7"}, {"x3", "x8"}, {"x4", "x5", "x6"}]),
    ("U/e", ("plain", "e"), [{"x1", "x5"}, {"x2", "x3", "x8"}, {"x4", "x6", "x7"}]),
    ("U/f", ("plain", "f"), [{"x1", "x2", "x3", "x4", "x5", "x6"}, {"x7", "x8"}]),
    ("U/r", ("plain", "r"), [{"x1", "x6", "x8"}, {"x2", "x4", "x5"}, {"x3", "x7"}]),
    ("U_D/i", ("relative", "i"),
     [{"x1", "x7"}, {"x2"}, {"x3", "x8"}, {"x4"}, {"x5", "x6"}]),
    ("U_D/e", ("relative", "e"),
     [{"x1"}, {"x5"}, {"x2", "x3", "x8"}, {"x4", "x7"}, {"x6"}]),
    ("U_D/f", ("relative", "f"),
     [{"x1", "x4"}, {"x2", "x3", "x5", "x6"}, {"x7"}, {"x8"}]),
    # The paper records the block {x3, x7} here, but x3 is rejected and x7
    # accepted, so the decision-refined relation keeps them apart.
    ("U_D/r", ("relative", "r"),
     [{"x1"}, {"x6", "x8"}, {"x2", "x5"}, {"x4"}, {"x3"}, {"x7"}]),
)

# Exact factors.  The paper truncates them to two decimals, and its r row
# (0.7, 0.7, 0.8) comes from the slipped U_D/r block.
REFERENCE_DELTA = {
    ("i", "e"): Fraction(4, 5), ("i", "f"): Fraction(4, 5),
    ("i", "r"): Fraction(7, 10),
    ("e", "i"): Fraction(5, 6), ("e", "f"): Fraction(5, 6),
    ("e", "r"): Fraction(23, 30),
    ("f", "i"): Fraction(3, 4), ("f", "e"): Fraction(3, 4),
    ("f", "r"): Fraction(3, 4),
    ("r", "i"): Fraction(5, 6), ("r", "e"): Fraction(5, 6),
    ("r", "f"): Fraction(11, 12),
}

REFERENCE_SELECTED = {("e", "i"), ("i", "f"), ("r", "i"),
                      ("e", "f"), ("r", "e"), ("r", "f")}
REFERENCE_AVG = Fraction(101, 120)
REFERENCE_FILTERED = {("r", "f")}
REFERENCE_COMPOUND = {"r": {"f"}}
REFERENCE_REDUCT = {"r", "i", "e"}
REFERENCE_ISOLATED = {"i", "e"}

# The paper's own figures, as printed.
PAPER_DELTA = {
    ("i", "e"): 0.8, ("i", "f"): 0.8, ("i", "r"): 0.7,
    ("e", "i"): 0.83, ("e", "f"): 0.83, ("e", "r"): 0.76,
    ("f", "i"): 0.75, ("f", "e"): 0.75, ("f", "r"): 0.75,
    ("r", "i"): 0.7, ("r", "e"): 0.7, ("r", "f"): 0.8,
}
PAPER_SELECTED = {("i", "f"), ("i", "r"), ("e", "i"),
                  ("e", "f"), ("e", "r"), ("r", "f")}
PAPER_AVG = 0.786
PAPER_FILTERED = {("i", "f"), ("e", "i"), ("e", "f"), ("r", "f")}
PAPER_COMPOUND = {"i": {"f"}, "e": {"i", "f"}, "r": {"f"}}
PAPER_REDUCT = {"e", "r"}


def _stage_failures(mat, label, want_selected, avg_ok, want_filtered,
                    want_compound, want_reduct):
    failures = []
    selected = select_pairs(mat)
    edges = {(el.left, el.right[0]) for el in selected.elements}
    if edges != want_selected:
        failures.append(f"{label} selected edges: got {sorted(edges)}")
    if not avg_ok(selected.avg_factor):
        failures.append(f"{label} avg factor: got {selected.avg_factor:.6f}")

    filtered_set = ass_gen(mat)
    filtered = {(el.left, el.right[0]) for el in filtered_set.elements}
    if filtered != want_filtered:
        failures.append(f"{label} filtered set: got {sorted(filtered)}")

    compound_set = comp_sim(filtered_set)
    compound = {el.left: set(el.right) for el in compound_set.elements}
    if compound != want_compound:
        failures.append(f"{label} compound set: got {compound}")

    reduct = sin_red_gen(compound_set, mat.attrs).reduct
    if set(reduct) != want_reduct:
        failures.append(f"{label} reduct: got {sorted(reduct)}")
    return failures


def test_end_to_end_reference_figures(admissions):
    failures = []
    start = time.perf_counter()
    result = run_pipeline(admissions, trace=True)
    elapsed = time.perf_counter() - start
    trace = result.trace

    for name, path, expected in REFERENCE_PARTITIONS:
        node = trace["partitions"]
        for key in path:
            node = node[key]
        actual = _as_sets(node)
        if actual != {frozenset(b) for b in expected}:
            failures.append(f"partition {name}: got {sorted(map(sorted, node))}")

    mat = matrix(admissions)
    for (src, dst), figure in REFERENCE_DELTA.items():
        actual = factor_of(mat, src, dst)
        if actual != float(figure):
            failures.append(f"delta {src}->{dst}: got {actual!r}, reference {figure}")

    # Outside the r row the paper's figures are the exact factors
    # truncated to two decimals.
    for (src, dst), printed in PAPER_DELTA.items():
        truncated = Fraction(floor(REFERENCE_DELTA[src, dst] * 100), 100)
        if src != "r" and truncated != Fraction(str(printed)):
            failures.append(f"paper delta {src}->{dst}: {printed} is not "
                            f"{REFERENCE_DELTA[src, dst]} truncated")

    failures += _stage_failures(
        mat, "reference", REFERENCE_SELECTED,
        # The exact mean of the float factors, rounded once; the factors are
        # rounded themselves, so it may sit an ulp off the exact mean.
        lambda avg: isclose(avg, REFERENCE_AVG, rel_tol=1e-12),
        REFERENCE_FILTERED, REFERENCE_COMPOUND, REFERENCE_REDUCT,
    )
    if set(result.reduct) != REFERENCE_REDUCT:
        failures.append(f"pipeline reduct: got {sorted(result.reduct)}")
    if set(result.isolated) != REFERENCE_ISOLATED:
        failures.append(f"pipeline isolated: got {sorted(result.isolated)}")

    attrs = admissions.condition_attrs
    paper = SimilarityMatrix(attrs, tuple(
        tuple(1.0 if a == b else PAPER_DELTA[a, b] for b in attrs)
        for a in attrs
    ))
    failures += _stage_failures(
        paper, "paper", PAPER_SELECTED,
        lambda avg: floor(avg * 1000) / 1000 == PAPER_AVG,
        PAPER_FILTERED, PAPER_COMPOUND, PAPER_REDUCT,
    )

    if elapsed >= 1.0:
        failures.append(f"runtime: {elapsed:.3f}s, limit 1s")

    ok = not failures
    _report("end-to-end reference figures (admissions sample)", ok)
    assert ok, (
        "mismatches against the paper's worked example, with U_D/r corrected "
        "to keep decisions apart and the factors exact rather than truncated "
        "to two decimals:\n  " + "\n  ".join(failures)
    )


def test_oracle_equivalence_on_random_tables(random_tables):
    def pairwise_relative(table, attr):
        col_a = table.column(attr)
        col_d = table.column(table.decision_attr)

        def related(i, j):
            return col_a[i] == col_a[j] and col_d[i] == col_d[j]

        found = []
        for i in range(table.m):
            for block in found:
                if related(i, block[0]):
                    block.append(i)
                    break
            else:
                found.append([i])
        return {frozenset(b) for b in found}

    def overlap_factor(source, target):
        total = Fraction(0)
        for block in source:
            best = max(len(set(block) & set(other)) for other in target)
            total += Fraction(best, len(block))
        return total / len(source)

    ok = True
    detail = ""
    checked = 0
    for table in random_tables(200):
        mat = matrix(table)
        for attr in table.condition_attrs:
            got = {frozenset(b) for b in relative_blocks(table, attr)}
            want = pairwise_relative(table, attr)
            if got != want:
                ok, detail = False, f"relative partition of {attr!r} diverges"
                break
        for src, dst in itertools.permutations(table.condition_attrs, 2):
            oracle = overlap_factor(mat.relative[src], mat.relative[dst])
            if factor_of(mat, src, dst) != float(oracle):
                ok, detail = False, f"factor {src}->{dst} diverges from oracle"
                break
        if not ok:
            break
        checked += 1
    ok = ok and checked == 200
    _report("oracle equivalence on 200 random tables", ok)
    assert ok, detail or f"only {checked} tables checked"


def test_property_suite_on_random_tables(random_tables):
    failures = []
    rng = random.Random(424242)
    for table in random_tables(150, seed=987):
        n = len(table.condition_attrs)
        subset = rng.sample(table.condition_attrs, rng.randint(1, n))
        parts = blocks(table, subset)
        seen = [i for block in parts for i in block]
        if sorted(seen) != list(range(table.m)):
            failures.append("partition does not cover the universe exactly once")
        if any(not block for block in parts):
            failures.append("empty partition block")

        mat = matrix(table)
        for src in table.condition_attrs:
            if factor(mat.relative[src], mat.relative[src]) != 1.0:
                failures.append("self similarity below one")
        for src, dst in itertools.permutations(table.condition_attrs, 2):
            value = factor_of(mat, src, dst)
            if not 0.0 < value <= 1.0:
                failures.append(f"factor {value} outside (0, 1]")
            refines = all(
                any(set(b) <= set(other) for other in mat.relative[dst])
                for b in mat.relative[src]
            )
            if (value == 1.0) != refines:
                failures.append("factor 1.0 does not coincide with refinement")

        selected = select_pairs(mat)
        if len(selected.elements) != n * (n - 1) // 2:
            failures.append("selected set is not one element per unordered pair")

        filtered = ass_gen(mat)
        compound = comp_sim(filtered)
        flat = Counter(
            (el.left, right) for el in compound.elements for right in el.right
        )
        original = Counter((el.left, el.right[0]) for el in filtered.elements)
        if flat != original:
            failures.append("compound merge changed the edge multiset")

        first = sin_red_gen(compound, table.condition_attrs)
        second = sin_red_gen(compound, table.condition_attrs)
        if first != second:
            failures.append("reduct generation is not deterministic")
        if not first.reduct or not set(first.reduct) <= set(table.condition_attrs):
            failures.append("reduct empty or not a subset of the conditions")
        if failures:
            break

    ok = not failures
    _report("pipeline property suite on random tables", ok)
    assert ok, "; ".join(sorted(set(failures)))


def test_chimerge_discretization():
    failures = []
    if chi_square([3, 1], [3, 1]) != 0.0:
        failures.append("identical class distributions should give chi-square 0")
    if chi_square([2, 4], [1, 2]) != 0.0:
        failures.append("proportional class distributions should give chi-square 0")

    imap = chimerge([1.0, 2.0, 7.0, 8.0], ["A", "A", "B", "B"])
    if imap.cut_points != (4.5,):
        failures.append(f"two-cluster case: got cuts {imap.cut_points}")

    rng = random.Random(31)
    for trial in range(100):
        values = [rng.uniform(0, 10) for _ in range(rng.randint(2, 40))]
        labels = [rng.choice("pqr") for _ in values]
        cap = rng.randint(1, 5)
        imap = chimerge(values, labels, max_intervals=cap)
        if len(imap.cut_points) + 1 > cap:
            failures.append(f"trial {trial}: interval cap {cap} exceeded")
        observed = sorted(set(values))
        for cut in imap.cut_points:
            inside = any(
                lo < cut < hi for lo, hi in zip(observed, observed[1:])
            )
            if not inside:
                failures.append(f"trial {trial}: cut {cut} not between observed values")

    ok = not failures
    _report("chimerge discretization behaviour", ok)
    assert ok, "; ".join(failures)


def test_evaluation_harness(admissions, random_tables):
    failures = []
    rng = random.Random(77)
    for table in random_tables(60, seed=5150):
        if table.m < 2:
            continue
        k = rng.randint(2, table.m)
        plan = stratified_folds(table, k, rng.randint(0, 999))
        sizes = Counter(plan.assignments)
        if max(sizes.values()) - min(sizes[f] for f in range(k)) > 1:
            failures.append("fold sizes differ by more than one")
        decision = table.column(table.decision_attr)
        for cls in set(decision):
            per_fold = Counter(
                plan.assignments[i] for i, d in enumerate(decision) if d == cls
            )
            counts = [per_fold.get(f, 0) for f in range(k)]
            if max(counts) - min(counts) > 1:
                failures.append("class spread across folds exceeds one")
        if failures:
            break

    once = compare(admissions, ("r", "i"), 4, 9, "nb")
    twice = compare(admissions, ("r", "i"), 4, 9, "nb")
    render = lambda pair: canonical(
        [{"attrs": list(r.attrs), "folds": list(r.fold_accuracies),
          "mean": r.mean_accuracy, "delta": r.delta} for r in pair]
    )
    if render(once) != render(twice):
        failures.append("fixed seed does not give byte-identical reports")

    full, reduced = compare(admissions, admissions.condition_attrs, 4, 3, "nb")
    if full.delta != 0.0 or reduced.delta != 0.0:
        failures.append("reduct equal to C must give delta exactly 0")

    columns = [
        RawColumn("a", "categorical", ("u", "u", "v", "v", "u")),
        RawColumn("b", "categorical", ("p", "q", "p", "q", "p")),
        RawColumn("d", "categorical", ("yes", "yes", "no", "no", "no")),
    ]
    tiny = from_columns(columns, "d")
    model = nb_train(tiny, range(tiny.m))

    def posterior(cls, query):
        decision = tiny.column("d")
        conditions = zip(*(tiny.column(a) for a in tiny.condition_attrs))
        rows = [r for r, d in zip(conditions, decision) if d == cls]
        score = Fraction(len(rows), tiny.m)
        for pos, attr in enumerate(tiny.condition_attrs):
            hits = sum(1 for r in rows if r[pos] == query[pos])
            score *= Fraction(hits + 1, len(rows) + len(tiny.domains[attr]))
        return score

    for query in itertools.product((0, 1), repeat=2):
        scores = [posterior(cls, query) for cls in (0, 1)]
        want = max((0, 1), key=lambda cls: (scores[cls], -cls))
        if nb_predict(model, query) != want:
            failures.append(f"nb prediction for {query} disagrees with the oracle")

    ok = not failures
    _report("evaluation harness: stratification, determinism, oracles", ok)
    assert ok, "; ".join(failures)


def test_numeric_csv_end_to_end_both_classifiers():
    failures = []
    for classifier in ("nb", "1nn"):
        code, out, err = _run_cli(
            "evaluate", "--input", str(DATA / "numeric_sample.csv"),
            "--folds", "3", "--seed", "11", "--classifier", classifier,
            "--output", "json",
        )
        if code != 0:
            failures.append(f"{classifier}: exit code {code}, stderr {err!r}")
            continue
        report = json.loads(out)
        n_conditions = 4
        shrunk = len(report["reduct"]) < n_conditions
        if not (shrunk or report["isolated"]):
            failures.append(f"{classifier}: no reduction and no isolated flag")
        for side in ("full", "reduced"):
            acc = report[side]["mean_accuracy"]
            if not 0.0 <= acc <= 1.0:
                failures.append(f"{classifier}: {side} accuracy {acc} out of range")

    ok = not failures
    _report("numeric CSV end to end with both classifiers", ok)
    assert ok, "; ".join(failures)

"""Spans around the calls into each ``rredux`` module, recorded from outside.

``instrument`` rebinds the module-level names through which one module
calls the next (``rredux.cli.parse_columns``, ``rredux.similarity.
relative_blocks`` ...) to timing wrappers, so the library itself stays
untouched.  A span is ``[name, start, end, parent, op, counts]``: parent
is the index of the enclosing span, op the benchmark operation it belongs
to, and counts the work sizes seen at that boundary.  Spans stay in
memory until the run ends.

Run as a script, it is the traced form of ``python -m rredux.cli``:
``python tracer.py SPANS_OUT OP_ID -- CLI_ARGS...`` runs the command with
the wrappers installed and writes its spans to ``SPANS_OUT``.
"""

from __future__ import annotations

import collections
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

# metric -> span whose total time per op it reports
LAYER_TIMES = {
    "table.parse_s": "table.parse_columns",
    "table.encode_s": "table.from_columns",
    "discretize.chimerge_s": "discretize.chimerge",
    "discretize.columns_s": "discretize.discretize_columns",
    "partition.relative_s": "partition.relative_blocks",
    "partition.plain_s": "partition.blocks",
    "similarity.matrix_s": "similarity.matrix",
    "reduct.pipeline_s": "reduct.run_pipeline",
    "reduct.stages_s": "reduct.stages",
    "jsonout.canonical_s": "jsonout.canonical",
    "evaluate.cv_1nn_s": "evaluate.cv_1nn",
    "evaluate.cv_nb_s": "evaluate.cv_nb",
    "evaluate.folds_s": "evaluate.stratified_folds",
    "evaluate.project_s": "evaluate.project",
    "evaluate.consistency_s": "evaluate.consistency",
}
# metric -> (spans, count recorded on them, unit), summed per op
LAYER_COUNTS = {
    "table.rows": (("table.parse_columns",), "rows", "count"),
    "table.cells": (("table.parse_columns",), "cells", "count"),
    "table.csv_bytes": (("table.parse_columns",), "bytes", "bytes"),
    "discretize.distinct_values": (("discretize.chimerge",), "distinct", "count"),
    "discretize.intervals": (("discretize.chimerge",), "intervals", "count"),
    "discretize.merges": (("discretize.chimerge",), "merges", "count"),
    "partition.relative_blocks": (("partition.relative_blocks",), "blocks", "count"),
    "similarity.pairs": (("similarity.matrix",), "pairs", "count"),
    "similarity.block_pairs": (("similarity.matrix",), "block_pairs", "count"),
    "reduct.filtered": (("reduct.run_pipeline",), "filtered", "count"),
    "reduct.iterations": (("reduct.run_pipeline",), "iterations", "count"),
    "reduct.size": (("reduct.run_pipeline",), "size", "count"),
    "jsonout.bytes": (("jsonout.canonical",), "bytes", "bytes"),
    "evaluate.predictions": (("evaluate.cv_1nn", "evaluate.cv_nb"), "predictions", "count"),
    "evaluate.distance_evals": (("evaluate.cv_1nn", "evaluate.cv_nb"), "distance_evals", "count"),
}
ROOT = "cli.main"


class Tracer:
    """Collects spans; ``op`` tags every span opened until it changes."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.matrix = None  # last similarity matrix, for the stages probe
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent, self.op, {}]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record[5]
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def wrap(self, fn, name, observe=None):
        """``fn`` timed as span ``name`` (a string or a function of the call's
        arguments); ``observe(result, *args)`` returns counts for the span."""

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            with self.span(label) as counts:
                result = fn(*args, **kwargs)
            if observe is not None:
                counts.update(observe(result, *args, **kwargs))
            return result

        return traced

    def run_op(self, op: int, main, argv) -> int:
        """One traced CLI command, then the reduct-stage probe on its matrix."""
        self.op = op
        with self.span(ROOT):
            code = main(argv)
        self.probe_stages()
        return code

    def probe_stages(self):
        """Time ass_gen, comp_sim and sin_red_gen called directly on the matrix.

        ``run_pipeline`` interleaves these stages with building its trace, so
        they are re-run here, outside the command's own span, to split the
        pipeline's time between the stages and the trace.
        """
        from rredux.reduct import ass_gen, comp_sim, sin_red_gen

        mat, self.matrix = self.matrix, None
        if mat is not None:
            with self.span("reduct.stages"):
                sin_red_gen(comp_sim(ass_gen(mat)), mat.attrs)


def _parsed(result, source, *args, **kwargs):
    columns, _ = result
    rows = len(columns[0].cells)
    # parse_columns closes ``source`` on return, so size it by name
    return {"rows": rows, "cells": rows * len(columns), "bytes": os.path.getsize(source.name)}


def _merged(imap, values, *args, **kwargs):
    distinct = len(set(values))
    return {"distinct": distinct, "intervals": len(imap.labels),
            "merges": distinct - len(imap.labels)}


def _blocks(result, *args, **kwargs):
    return {"blocks": len(result)}


def _pipeline(result, *args, **kwargs):
    return {"filtered": len(result.trace["ass_filtered"]),
            "iterations": len(result.trace["iterations"]), "size": len(result.reduct)}


def _cv_name(table, plan, classifier):
    return f"evaluate.cv_{classifier}"


def _cv_counts(report, table, plan, classifier):
    tests = collections.Counter(plan.assignments).values()
    evals = sum(t * (table.m - t) for t in tests) if classifier == "1nn" else 0
    return {"predictions": table.m, "distance_evals": evals}


def instrument(tracer: Tracer) -> None:
    """Route the calls between rredux modules through ``tracer``."""
    import rredux.cli as cli
    import rredux.discretize as discretize
    import rredux.evaluate as evaluate
    import rredux.reduct as reduct
    import rredux.similarity as similarity

    def keep_matrix(mat, *args, **kwargs):
        tracer.matrix = mat
        sizes = [len(mat.relative[a]) for a in mat.attrs]
        n = len(sizes)
        return {"pairs": n * (n - 1),
                "block_pairs": sum(sizes) ** 2 - sum(s * s for s in sizes)}

    def patch(module, attr, name, observe=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, observe))

    patch(cli, "parse_columns", "table.parse_columns", _parsed)
    patch(cli, "from_columns", "table.from_columns")
    patch(discretize, "from_columns", "table.from_columns")
    patch(cli, "discretize_columns", "discretize.discretize_columns")
    patch(cli, "chimerge", "discretize.chimerge", _merged)
    patch(discretize, "chimerge", "discretize.chimerge", _merged)
    patch(similarity, "relative_blocks", "partition.relative_blocks", _blocks)
    patch(reduct, "blocks", "partition.blocks")
    patch(similarity, "matrix", "similarity.matrix", keep_matrix)
    patch(cli, "run_pipeline", "reduct.run_pipeline", _pipeline)
    patch(cli, "canonical", "jsonout.canonical", lambda text, *a: {"bytes": len(text.encode())})
    patch(cli, "compare", "evaluate.compare")
    patch(evaluate, "project", "evaluate.project")
    patch(evaluate, "stratified_folds", "evaluate.stratified_folds")
    patch(evaluate, "cross_validate", _cv_name, _cv_counts)
    patch(cli, "consistency", "evaluate.consistency")


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus that of direct children."""
    covered = collections.defaultdict(float)
    for name, start, end, parent, op, counts in spans:
        if parent is not None:
            covered[parent] += end - start
    out = collections.defaultdict(float)
    for index, (name, start, end, parent, op, counts) in enumerate(spans):
        out[name] += end - start - covered[index]
    return dict(out)


def layer_metrics(spans, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer times and counts from the spans of ``ops`` traced commands."""
    total = collections.defaultdict(float)
    counted = collections.defaultdict(float)
    for name, start, end, parent, op, counts in spans:
        total[name] += end - start
        for key, value in counts.items():
            counted[name, key] += value
    out = {metric: (total[span] / ops, "s") for metric, span in LAYER_TIMES.items()}
    for metric, (names, key, unit) in LAYER_COUNTS.items():
        out[metric] = (sum(counted[name, key] for name in names) / ops, unit)
    own = self_times(spans)
    out["similarity.self_s"] = (own.get("similarity.matrix", 0.0) / ops, "s")
    trace_build = (out["reduct.pipeline_s"][0] - out["similarity.matrix_s"][0]
                   - out["reduct.stages_s"][0])
    out["reduct.trace_build_s"] = (trace_build, "s")
    return out


def main(argv: list[str]) -> int:
    spans_out, op, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT OP_ID -- CLI_ARGS...")
    import rredux.cli

    tracer = Tracer()
    instrument(tracer)
    code = tracer.run_op(int(op), rredux.cli.main, cli_args)
    with open(spans_out, "w", encoding="utf-8") as f:
        json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

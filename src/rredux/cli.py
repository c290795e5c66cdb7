"""Command-line front end: discretize, reduct, evaluate.

Each subcommand reads a CSV decision table, does its work, and writes to
stdout; diagnostics go to stderr.  Exit status is 0 on success, 2 for bad
flag values (``UsageError``), and 1 for any other error reported: input
data that cannot be read or used, or a fault found in the library.  JSON
output is canonical (sorted keys, fixed six-decimal floats) so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .discretize import DEFAULT_MAX_INTERVALS, IntervalMap, discretize_columns
from .discretize import chimerge  # not called here; perfbench/tracer.py rebinds it by name
from .errors import DataError, UsageError
from .evaluate import CLASSIFIERS, compare
from .jsonout import ExactFloat, canonical
from .partition import consistency
from .reduct import run_pipeline
from .table import RawColumn, from_columns, parse_columns

ENV_SEED = "RREDUX_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rredux",
        description="Feature selection for categorical decision tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", required=True, help="path to a CSV file with a header row")
    shared.add_argument("--decision-col", help="decision column name (default: last column)")
    shared.add_argument("--delimiter", default=",", help="CSV delimiter (default: ,)")
    shared.add_argument("--drop-missing", action="store_true",
                        help="drop rows with missing cells instead of rejecting the file")
    shared.add_argument("--numeric-cols", metavar="A,B,C",
                        help="comma-separated columns to treat as numeric")
    shared.add_argument("--chi-threshold", type=float,
                        help="ChiMerge stop threshold (default: 0.95 critical value)")
    shared.add_argument("--max-intervals", type=int, default=DEFAULT_MAX_INTERVALS,
                        help="ChiMerge interval cap (default: %(default)s)")

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--output", choices=("json", "text"), default="text")
    report.add_argument("--trace", action="store_true", help="include the full pipeline trace")

    p_disc = sub.add_parser("discretize", parents=[shared],
                            help="replace numeric columns with ChiMerge interval labels")
    p_disc.add_argument("--emit-cuts", metavar="PATH",
                        help="write the cut points per column to a JSON file")
    p_disc.set_defaults(func=cmd_discretize)

    p_red = sub.add_parser("reduct", parents=[shared, report],
                           help="compute the single reduct of the table")
    p_red.set_defaults(func=_report)

    p_eval = sub.add_parser("evaluate", parents=[shared, report],
                            help="cross-validate full vs. reduced attribute sets")
    p_eval.add_argument("--folds", type=int, default=5, help="fold count (default: %(default)s)")
    p_eval.add_argument("--seed", type=int,
                        help=f"PRNG seed (default: ${ENV_SEED} or 0)")
    p_eval.add_argument("--classifier", choices=sorted(CLASSIFIERS), default="nb")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def _numeric_flags(args) -> tuple[str, ...] | None:
    if args.numeric_cols is None:
        return None
    names = tuple(name.strip() for name in args.numeric_cols.split(",") if name.strip())
    if not names:
        raise UsageError("--numeric-cols given but names no columns")
    return names


def _read_columns(args) -> tuple[list[RawColumn], str, dict[str, IntervalMap]]:
    """Parse the input, then discretize its numeric columns."""
    if args.max_intervals < 1:
        raise UsageError("max-intervals must be >= 1")
    if args.chi_threshold is not None and not args.chi_threshold >= 0:
        raise UsageError("threshold must be non-negative")
    with open(args.input, "rb") as source:
        columns, decision = parse_columns(
            source,
            args.decision_col,
            _numeric_flags(args),
            delimiter=args.delimiter,
            drop_missing=args.drop_missing,
        )
    try:
        columns, maps = discretize_columns(
            columns, decision, args.chi_threshold, args.max_intervals
        )
    except ImportError as exc:  # the default threshold needs scipy here
        raise UsageError(f"{exc}; give --chi-threshold instead") from None
    return columns, decision, maps


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _attr_list(attrs) -> str:
    return ", ".join(attrs) if attrs else "-"


def _render_aligned(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _format_blocks(blocks: list[list[str]]) -> str:
    return ", ".join("{" + ", ".join(block) + "}" for block in blocks)


def _element_text(entry: dict) -> str:
    right = entry["right"]
    target = right[0] if len(right) == 1 else "{" + ", ".join(right) + "}"
    text = f"{entry['left']}->{target}"
    if "factor" in entry:
        text += f" {entry['factor']:.6f}"
    return text


def _render_trace(trace: dict) -> list[str]:
    parts = trace["partitions"]
    lines = ["partitions:"]
    lines.append(f"  U/D: {_format_blocks(parts['decision'])}")
    for attr, blocks in parts["plain"].items():
        lines.append(f"  U/{attr}: {_format_blocks(blocks)}")
    for attr, blocks in parts["relative"].items():
        lines.append(f"  U_D/{attr}: {_format_blocks(blocks)}")
    lines.append("delta:")
    lines += [
        f"  {row['source']}->{row['target']} {row['factor']:.6f}"
        for row in trace["delta"]
    ]
    lines.append("ass_selected: " + (
        "; ".join(_element_text(e) for e in trace["ass_selected"]) or "-"))
    avg = trace["avg_factor"]
    lines.append("avg_factor: " + ("-" if avg is None else f"{avg:.6f}"))
    lines.append("ass_filtered: " + (
        "; ".join(_element_text(e) for e in trace["ass_filtered"]) or "-"))
    lines.append("ass_compound: " + (
        "; ".join(_element_text(e) for e in trace["ass_compound"]) or "-"))
    lines.append("iterations:")
    for n, step in enumerate(trace["iterations"], start=1):
        lines.append(
            f"  {n}: select {step['selected']}, delete {_attr_list(step['deleted'])}"
        )
    return lines


def _report(args, seed: int | None = None) -> int:
    """Print the reduct of the input; given a seed, also cross-validate it.

    Both commands share this path, so evaluate's output, in JSON and in
    text, is reduct's plus the comparison.
    """
    columns, decision, _ = _read_columns(args)
    table = from_columns(columns, decision)
    result = run_pipeline(table, trace=args.trace)
    payload = {"reduct": list(result.reduct), "isolated": list(result.isolated)}
    if seed is not None:
        full, reduced = compare(table, result.reduct, args.folds, seed, args.classifier)
        delta = reduced.mean_accuracy - full.mean_accuracy
        payload.update(classifier=args.classifier, folds=args.folds, seed=seed, delta=delta)
        for name, report, consist in (
            ("full", full, consistency(table)),
            ("reduced", reduced, consistency(table, result.reduct)),
        ):
            payload[name] = {
                "attrs": list(report.attrs),
                "fold_accuracies": list(report.fold_accuracies),
                "mean_accuracy": report.mean_accuracy,
                "consistency": consist,
            }
    if args.trace:
        payload["trace"] = result.trace
    if args.output == "json":
        print(canonical(payload))
        return 0
    lines = _render_trace(result.trace) if args.trace else []
    lines.append(f"reduct: {_attr_list(result.reduct)}")
    lines.append(f"isolated: {_attr_list(result.isolated)}")
    if seed is not None:
        lines.append(f"classifier: {args.classifier}  folds: {args.folds}  seed: {seed}")
        rows = [["set", "attrs", "mean_accuracy", "consistency"]]
        for name in ("full", "reduced"):
            entry = payload[name]
            rows.append([name, _attr_list(entry["attrs"]), f"{entry['mean_accuracy']:.6f}",
                         f"{entry['consistency']:.6f}"])
        lines += _render_aligned(rows)
        lines.append(f"delta (reduced - full): {delta:.6f}")
    print("\n".join(lines))
    return 0


def cmd_discretize(args) -> int:
    columns, _, maps = _read_columns(args)
    if args.emit_cuts:  # before stdout, so a sidecar that cannot be written leaves it empty
        payload = {
            attr: {"cut_points": list(map(ExactFloat, imap.cut_points)),
                   "labels": list(imap.labels)}
            for attr, imap in maps.items()
        }
        with open(args.emit_cuts, "w", encoding="utf-8") as sidecar:
            sidecar.write(canonical(payload) + "\n")
    writer = csv.writer(sys.stdout, delimiter=args.delimiter, lineterminator="\n")
    writer.writerow([col.name for col in columns])
    writer.writerows(zip(*(col.cells for col in columns)))
    return 0


def cmd_evaluate(args) -> int:
    if args.folds < 2:
        raise UsageError("folds must be >= 2")
    return _report(args, _resolve_seed(args))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

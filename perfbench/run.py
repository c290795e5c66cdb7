"""rredux benchmark: seeded workloads through the real CLI, checked op by op.

Usage, from the repository root:

    python3 perfbench/run.py --workload reduct_tall --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Load shape: a closed loop with one client.  One worker process runs one
CLI command at a time and the next starts only when the previous one has
returned; there are no threads.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run.  The second
to last line of stdout is a JSON report (inputs, stamp, every metric with
its sample count, failures); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = ".perfbench_work"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# Writing the small inputs takes under a millisecond, so cheap set-ups are
# repeated until this much time is covered, to steady their median.
SETUP_MIN_S = 0.5
# The tail is the highest percentile with at least ten samples beyond it,
# so an untraced run times at least this many commands.
MIN_SAMPLES = 11
PROBE_REPEATS = 3


class WorkerDied(RuntimeError):
    pass


def _env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    return env


class Worker:
    """A ``worker.py`` process, driven one request at a time."""

    def __init__(self, in_process: bool, workdir: str):
        mode = "inproc" if in_process else "subproc"
        self.proc = subprocess.Popen([sys.executable, WORKER, mode, workdir],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env())
        self.import_s = self._read()["import_s"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def request(self, **message) -> dict:
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()
        return self._read()

    def op(self, op_id: int, argv) -> tuple[dict, bytes]:
        head = self.request(cmd="op", op=op_id, argv=list(argv))
        return head, self.proc.stdout.read(head["bytes"])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Phase:
    """Timings and failures of one closed-loop stretch of commands."""

    def __init__(self):
        self.times: list[float] = []
        self.cells = 0
        self.failures: list[str] = []


def set_up(workload, seed: int, size: str, workdir: str):
    """Generate and write the inputs; for an in-process workload, also start
    a worker, whose cold import of rredux counts as set-up."""
    start = perf_counter()
    files = workloads.generate(workload, seed, size)
    for f in files:
        with open(os.path.join(workdir, f.name), "wb") as out:
            out.write(f.data)
    setup_s = perf_counter() - start
    if not workload.in_process:
        return files, None, setup_s
    worker = Worker(True, workdir)
    return files, worker, setup_s + worker.import_s


def set_up_repeatedly(workload, seed: int, size: str, workdir: str):
    """Set up at least SETUP_REPEATS times and for SETUP_MIN_S; keep the last.

    Returns the inputs, a worker and every set-up time.
    """
    setups, worker = [], None
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        if worker is not None:
            worker.close()
        files, worker, setup_s = set_up(workload, seed, size, workdir)
        setups.append(setup_s)
    if worker is None:
        worker = Worker(False, workdir)
    return files, worker, setups


def measure(worker, gate, ops, seconds, min_ops, phase, next_id) -> int:
    """Run whole cycles of ``ops`` for ``seconds`` and at least ``min_ops``."""
    start = perf_counter()
    k = 0
    while perf_counter() - start < seconds or k < min_ops or k % len(ops):
        index = k % len(ops)
        op = ops[index]
        head, stdout = worker.op(next_id + k, op.args)
        sidecar = b""
        if op.sidecar and os.path.exists(op.sidecar):
            with open(op.sidecar, "rb") as f:
                sidecar = f.read()
            os.remove(op.sidecar)
        error = gate.check(index, head["code"], stdout, sidecar)
        if error:
            phase.failures.append(f"{error} {head['stderr'].strip()}".strip())
        phase.times.append(head["elapsed"])
        phase.cells += op.input.properties["rows"] * (op.input.properties["attributes"] + 1)
        k += 1
    return next_id + k


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(times)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _gate(name, ops, seed, size):
    recorded = None
    if seed == DEFAULT_SEED and size == "full" and os.path.exists(checks.DIGESTS):
        recorded = checks.recorded_digests(name)
    return checks.Gate(ops, recorded)


def _subprocess_median(code: str) -> float:
    """Median over repeats of a fresh interpreter running ``code``: the time
    the child prints, or its wall time if it prints nothing."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                              check=True, timeout=120)
        times.append(perf_counter() - start if not proc.stdout else float(proc.stdout))
    return statistics.median(times)


def cli_small_p50(seed: int, size: str, workdir: str, phase: Phase) -> float:
    """Median op time of one cycle of the ``cli_small`` commands."""
    workload = workloads.WORKLOADS["cli_small"]
    files, worker, _ = set_up_repeatedly(workload, seed, size, workdir)
    try:
        ops = workload.make_ops(files, seed, workdir)
        probe = Phase()
        measure(worker, _gate(workload.name, ops, seed, size), ops, 0, len(ops), probe, 0)
    finally:
        worker.close()
    phase.times += probe.times
    phase.failures += probe.failures
    return statistics.median(probe.times)


def stamp() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = sorted(glob.glob(os.path.join("src", "rredux", "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as f:
            data = f.read()
        digest.update(data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "repo.src_lines": lines,
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: str):
    """One benchmark run; returns (report, result)."""
    workload = workloads.WORKLOADS[name]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    worker = None
    try:
        files, worker, setups = set_up_repeatedly(workload, seed, size, workdir)
        ops = workload.make_ops(files, seed, workdir)
        gate = _gate(name, ops, seed, size)
        plain, traced, probes = Phase(), Phase(), Phase()
        if not trace:
            measure(worker, gate, ops, seconds, MIN_SAMPLES, plain, 0)
            finish = worker.request(cmd="finish")
        else:
            next_id = measure(worker, gate, ops, seconds / 2, 1, plain, 0)
            worker.request(cmd="trace")
            measure(worker, gate, ops, seconds / 2, 1, traced, next_id)
            finish = worker.request(cmd="finish")
            interp_s = _subprocess_median("pass")
            import_s = _subprocess_median(
                "import time; t = time.perf_counter(); import rredux.cli; "
                "print(time.perf_counter() - t)")
            small_p50 = (statistics.median(plain.times) if name == "cli_small"
                         else cli_small_p50(seed, size, workdir, probes))
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)

    phases = (plain, traced, probes)
    attempted = sum(len(p.times) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    p50 = statistics.median(plain.times)
    ops = len(plain.times)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "load": "closed loop, 1 client, 1 worker process, no threads",
        "stamp": stamp(),
        "inputs": [f.properties for f in files],
        "failures": (plain.failures + traced.failures + probes.failures)[:10],
        "digests": list(gate.first.values()),
    }
    if not trace:
        tail_s, tail_pct = tail(plain.times)
        # (value, unit, samples); the result line carries the first four
        metrics = {
            "wall_s.p50": (p50, "s", ops),
            "cells_per_s": (plain.cells / sum(plain.times), "cells/s", ops),
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "peak_rss_mb": (finish["peak_rss_kb"] / 1024, "MB", 1),
            "wall_s.tail": (tail_s, "s", ops),
            "fail_ratio": (failed / attempted, "ratio", attempted),
        }
        report["wall_s.tail_percentile"] = tail_pct
        reported = ("wall_s.tail", "fail_ratio")
    else:
        traced_ops = len(traced.times)
        metrics = {k: (v, unit, traced_ops)
                   for k, (v, unit) in tracer.layer_metrics(finish["spans"], traced_ops).items()}
        traced_p50 = statistics.median(traced.times)
        metrics.update({
            "cli.interp_s": (interp_s, "s", PROBE_REPEATS),
            "cli.import_s": (import_s, "s", PROBE_REPEATS),
            "cli.import_share": (import_s / small_p50, "ratio", PROBE_REPEATS),
            "trace.op_s": (traced_p50, "s", traced_ops),
            "trace.overhead_s": (traced_p50 - p50, "s", traced_ops + ops),
        })
        reported = ()
        report["self_s"] = {k: v / traced_ops
                            for k, v in tracer.self_times(finish["spans"]).items()}
        spans_file = os.path.join(WORK_ROOT, f"spans-{name}-seed{seed}.json")
        with open(spans_file, "w", encoding="utf-8") as f:
            json.dump(finish["spans"], f)
        report["spans_file"] = spans_file
    report["metrics"] = {k: {"value": v, "unit": unit, "samples": n}
                         for k, (v, unit, n) in metrics.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit}
                          for k, (v, unit, n) in metrics.items() if k not in reported}}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rredux", "cli.py")):
        print("error: run from the repository root; src/rredux is missing", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        report, result = run(name, args.seed, args.seconds, bool(args.trace), args.size)
        print(json.dumps(report), flush=True)
        results[name] = result
    if len(names) == 1:
        final = result
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark worker: runs one CLI command at a time on request.

``worker.py inproc`` imports ``rredux.cli`` (timing the cold import) and
runs each command through ``rredux.cli.main`` in this process.
``worker.py subproc`` imports nothing from rredux and runs each command
as a fresh ``python -m rredux.cli`` child.  Either way the worker is a
closed loop with one client: it reads one JSON request per line on
stdin and answers each before reading the next.

Every answer is one JSON line on stdout; an op's answer is followed by
the raw bytes of the command's stdout, whose length the line gives.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")


def _send(out, message: dict, payload: bytes = b"") -> None:
    out.write(json.dumps(message).encode() + b"\n" + payload)
    out.flush()


class InProcess:
    def __init__(self):
        start = perf_counter()
        import rredux.cli

        self.import_s = perf_counter() - start
        self.main = rredux.cli.main
        self.tracer = None

    def trace(self):
        import tracer

        self.tracer = tracer.Tracer()
        tracer.instrument(self.tracer)

    def run(self, op: int, argv: list[str]):
        stdout, stderr = io.StringIO(), io.StringIO()
        # Leave no garbage from the previous command for this one to collect:
        # a real CLI run starts from a fresh heap.
        gc.collect()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if self.tracer is None:
                    code = self.main(argv)
                else:
                    code = self.tracer.run_op(op, self.main, argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # as the interpreter would: traceback, status 1
                traceback.print_exc()
                code = 1
        elapsed = perf_counter() - start
        return code, elapsed, stdout.getvalue().encode(), stderr.getvalue()

    def spans(self):
        return self.tracer.spans if self.tracer else []

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Subprocess:
    import_s = 0.0

    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.traced = False
        self._spans: list[list] = []

    def trace(self):
        self.traced = True

    def run(self, op: int, argv: list[str]):
        spans_out = os.path.join(self.spans_dir, f"spans-{op}.json")
        if self.traced:
            cmd = [sys.executable, TRACER, spans_out, str(op), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "rredux.cli", *argv]
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        elapsed = perf_counter() - start
        if self.traced and os.path.exists(spans_out):  # absent if the command crashed
            with open(spans_out, encoding="utf-8") as f:
                child = json.load(f)
            os.remove(spans_out)
            base = len(self._spans)
            for span in child:  # parents index into this op's spans
                span[3] = None if span[3] is None else span[3] + base
            self._spans.extend(child)
        return proc.returncode, elapsed, proc.stdout, proc.stderr.decode("utf-8", "replace")

    def spans(self):
        return self._spans

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main(argv: list[str]) -> int:
    out = sys.stdout.buffer
    mode, workdir = argv
    runner = InProcess() if mode == "inproc" else Subprocess(workdir)
    _send(out, {"import_s": runner.import_s})
    for line in sys.stdin:
        request = json.loads(line)
        if request["cmd"] == "op":
            code, elapsed, stdout, stderr = runner.run(request["op"], request["argv"])
            _send(out, {"code": code, "elapsed": elapsed, "bytes": len(stdout),
                        "stderr": stderr[-2000:]}, stdout)
        elif request["cmd"] == "trace":
            runner.trace()
            _send(out, {})
        elif request["cmd"] == "finish":
            _send(out, {"peak_rss_kb": runner.peak_rss_kb(), "spans": runner.spans()})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run_all(trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "all", "--seed", "5", "--seconds", "0.2",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, group):
    lines = _run_all(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[group]}
    for name in workloads.WORKLOADS:
        emitted = {key.split(":", 1)[1]: metric for key, metric in result["metrics"].items()
                   if key.startswith(name + ":")}
        assert set(emitted) == set(expected), name
        for metric, unit in expected.items():
            assert emitted[metric]["unit"] == unit, (name, metric)
            assert isinstance(emitted[metric]["value"], (int, float)), (name, metric)
    reports = [json.loads(line) for line in lines[:-1]]
    assert [r["workload"] for r in reports] == list(workloads.WORKLOADS)
    for report in reports:
        assert report["stamp"]["repo.src_lines"] > 0
        for metric in report["metrics"].values():
            assert metric["samples"] >= 1
        if trace == 0:
            assert report["metrics"]["fail_ratio"]["value"] == 0.0
            assert report["metrics"]["wall_s.tail"]["unit"] == "s"
            assert 0 < report["wall_s.tail_percentile"] <= 100


def _real_outputs(tmp_path, name):
    """Each op of a tiny workload run once through ``python -m rredux.cli``."""
    workload = workloads.WORKLOADS[name]
    files = workloads.generate(workload, 5, "tiny")
    for f in files:
        (tmp_path / f.name).write_bytes(f.data)
    ops = workload.make_ops(files, 5, str(tmp_path))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    outputs = []
    for op in ops:
        proc = subprocess.run([sys.executable, "-m", "rredux.cli", *op.args], cwd=ROOT,
                              env=env, capture_output=True, timeout=120)
        sidecar = open(op.sidecar, "rb").read() if op.sidecar else b""
        outputs.append((proc.returncode, proc.stdout, sidecar))
    return ops, outputs


def _corrupt_json(stdout: bytes, edit) -> bytes:
    payload = json.loads(stdout)
    edit(payload)
    return json.dumps(payload).encode() + b"\n"


def _bad_cuts(sidecar):
    cuts = json.loads(sidecar)
    for spec in cuts.values():
        spec["cut_points"] = spec["cut_points"][::-1] + [spec["cut_points"][0]]
        spec["labels"].append("extra")
    return json.dumps(cuts).encode()


CORRUPTIONS = {
    "reduct": lambda out, side: (_corrupt_json(out, lambda p: p["reduct"].append("zz")), side),
    "admissions": lambda out, side: (out.replace(b'"r"', b'"f"'), side),
    "evaluate": lambda out, side: (
        _corrupt_json(out, lambda p: p["full"]["fold_accuracies"].__setitem__(0, 1.5)), side),
    "discretize": lambda out, side: (out, _bad_cuts(side)),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_output_trips_the_gate(tmp_path, name):
    ops, outputs = _real_outputs(tmp_path, name)
    gate = checks.Gate(ops)
    for index, (code, stdout, sidecar) in enumerate(outputs):
        assert gate.check(index, code, stdout, sidecar) is None
        # a repeat must be byte-identical to the first output
        assert gate.check(index, code, stdout, sidecar) is None
        assert gate.check(index, code, stdout + b" ", sidecar) is not None
        assert gate.check(index, 1, stdout, sidecar) is not None
        bad_out, bad_side = CORRUPTIONS[ops[index].kind](stdout, sidecar)
        assert checks.Gate(ops).check(index, code, bad_out, bad_side) is not None
    recorded = checks.Gate(ops, ["0" * 64] * len(ops))
    assert recorded.check(0, *outputs[0]) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reduct_tall",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == b""

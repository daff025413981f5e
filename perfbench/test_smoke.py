"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]

import run  # noqa: E402
from reference import Checker, OracleCache  # noqa: E402
from worker import Recorder, run_in_process  # noqa: E402
from workloads import N, make_plan  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric_and_no_failure(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, done.stdout
    assert any(line.split()[:2] == ["failed_ratio", "0"] for line in lines)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_corrupted_expected_answer_counts_as_failure(tmp_path):
    plan = make_plan("modal", 3, tmp_path, tiny=True)
    for name, content in plan.files.items():
        (tmp_path / name).write_text(content)
    outdir = tmp_path / "out"
    outdir.mkdir()
    rec = Recorder(outdir)
    for op in plan.ops:
        code, out, err = run_in_process(op.argv)
        rec.record(op.id, code, out, err)
    result = {"first": rec.first, "executions": rec.executions}

    failed, problems = run._verify(plan, result, outdir, Checker(ROOT, OracleCache(None)))
    assert (failed, problems) == (0, {})

    victim = next(op for op in plan.ops if op.cls == "witness" and op.spec["kind"] == "check")
    target = N(victim.spec["formula"]) if victim.spec["mode"] == "valid" else victim.spec["formula"]

    class CorruptedCache(OracleCache):
        def first_model(self, f, axioms, names):
            found = super().first_model(f, axioms, names)
            return None if f == target else found  # a witness query reported as exhaustive

    failed, problems = run._verify(plan, result, outdir, Checker(ROOT, CorruptedCache(None)))
    assert failed == 1
    assert list(problems) == [victim.id]

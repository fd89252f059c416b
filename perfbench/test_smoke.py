"""Smoke test of the benchmark: every workload, both modes, reduced size.

Run with ``python3 -m pytest -q perfbench/test_smoke.py``.  Each run must
emit every metric BENCHMARK.json names, with its unit, and fail no op.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, workload, trace, runner=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_no_op_fails(tmp_path, workload, trace):
    proc = run(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2
    assert result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    suffix = "-trace.json" if trace else ".json"
    record = json.loads((HERE / "results" / f"{workload}-seed3-smoke{suffix}").read_text())
    assert record["failed_ratio"] == 0.0
    assert record["check"]["max_rel_err"] <= record["check"]["gate"]
    if trace:
        assert record["spans"], "a traced run records spans"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0, runner=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

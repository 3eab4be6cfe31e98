"""Smoke test of the benchmark.

Every workload runs its set-ups and one timed op, untraced and traced: a run
of a tiny --seconds times exactly one op. Each run must report every metric
named in BENCHMARK.json as a finite number, fail no op, and give the same
bytes from its traced ops as from its untraced ones.

    python3 -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from run import SETUP_REPEATS  # noqa: E402


def bench_run(*args, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=bench.parent, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = bench_run("--workload", workload, "--seed", "3", "--seconds", "0.001",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # with --trace 1 a traced op whose output differs from the untraced one fails
    assert result["correct"] and result["failed"] == 0, proc.stdout
    # a warm-up op per set-up, and one timed op
    assert result["attempted"] == SETUP_REPEATS + 1
    assert any(line.split()[1:] == ["op_fail_ratio", "0", "ratio"] for line in lines)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == spec
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name


def test_refuses_to_run_without_genis(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("--workload", "toy_stage1", "--seed", "1", "--seconds", "1",
                     "--trace", "0", bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

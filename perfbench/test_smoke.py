"""Smoke test of the benchmark at toy sizes; it checks shape, not speed.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1",
                           "--size", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--seed", "3", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_counts_repeat_between_traced_runs():
    runs = [result_of(bench("--workload", "verify", "--seed", "5", "--trace", "1"))
            for _ in range(2)]
    counts = [{name: m["value"] for name, m in r["metrics"].items() if m["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["fusionbasis.basis_builds"] > 0
    report = json.loads((ROOT / ".perfbench_runs" / "verify-seed5-trace1.json").read_text())
    assert report["counts_repeat"]


def test_a_corrupted_output_counts_as_failed():
    proc = bench("--workload", "landscape", "--corrupt")
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    ratio = next(line for line in proc.stdout.splitlines() if line.startswith("fail_ratio"))
    assert float(ratio.split()[1]) > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "verify", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

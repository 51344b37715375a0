"""The quick mode of the benchmark prints every named metric with its unit.

    python3 -m pytest perfbench/test_quick.py

Runs each workload in quick mode, untraced and traced, from the repository
root, and checks the result's shape against BENCHMARK.json.  It asserts no
timings.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# figures every run records by name, beside the contract's metrics
NAMED = {
    "common": {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_rate": "1"},
    "train": {"train_windows_per_s": "1/s", "return_windows_per_s": "1/s",
              "policy_windows_per_s": "1/s", "heldout_nll": "nats", "policy_mse": "1"},
    "rollout": {"env_steps_per_s": "1/s", "decision_ms_p50": "ms",
                "decision_ms_p99": "ms", "driving_score": "1"},
    "dataset": {"dataset_steps_per_s": "1/s"},
}


def run_quick(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_reports_every_metric(workload, trace):
    record, result = run_quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    named = {name: m["unit"] for name, m in record["metrics"].items()}
    assert named == {**NAMED["common"], **NAMED[workload]}
    assert record["metrics"]["error_rate"]["value"] == 0.0
    env = record["environment"]
    for key in ("git_rev", "python", "numpy", "scipy", "nproc", "blas",
                "blas_threads_pinned", "seed"):
        assert key in env
    assert env["seed"] == 3


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

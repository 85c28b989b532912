"""Smoke test of the benchmark at tiny sizes (n_theta=21, N=50).

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that every correctness check of each workload runs, and that the benchmark
refuses to run where the dropsed sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

CHECKS = {
    "linear": ["max_real_vs_table", "max_real_above_1_15", "sup_rate_vs_operator"],
    "evolve": ["final_time", "final_c3", "volume_drift", "snapshot_count", "min_r_positive"],
    "micro": ["mean_velocity_vs_formula", "rescaled_mean_speed", "frame_count", "frame_times",
              "positions_finite"],
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_every_metric_and_check(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    for name in ("wall_s", "setup_s", "peak_rss_mb", "err_to_tol", "fail_frac"):
        assert any(line.split()[:1] == [name] for line in lines), name
    ran = {line.split()[1] for line in lines if line.strip().startswith("check ")}
    assert ran == set(CHECKS[workload])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "linear", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

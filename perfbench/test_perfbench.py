"""Checks on the benchmark itself: ``python3 -m pytest -q perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _traced_metrics(seed: int) -> dict:
    proc = _run(
        ROOT, "--workload", "noisy_power_sweep", "--seed", str(seed), "--seconds", "0",
        "--trace", "1",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_counts_repeat_at_one_seed():
    first, second = _traced_metrics(11), _traced_metrics(11)
    exact = [k for k in first if k.endswith("_per_trial")] + [
        "ssa_nc.redraws",
        "ssa_nc.resamples",
        "analysis.max_decode_err",
        "analysis.slope_rel_err",
    ]
    assert len(exact) == 11
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_refuses_without_library_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(
        tmp_path, "--workload", "sweep_grid", "--seed", "1", "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

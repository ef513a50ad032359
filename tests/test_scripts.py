"""The experiment scripts still run end to end.

``scripts/ablation_comparison.py`` is the only caller that runs every solver
variant through the whole pipeline; ``scripts/run_synthetic_forecast.py`` is
the only one that tunes with SPSA before forecasting;
``scripts/lane_budget_sweep.py`` times stacked windows against single ones;
``scripts/bench_pairs.py`` times one commit against another.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stforecast.solver import VARIANTS

ROOT = Path(__file__).resolve().parent.parent


def test_ablation_comparison_reports_every_variant():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/ablation_comparison.py",
         "--stations", "6", "--steps", "300", "--max-samples", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[1:]]
    assert rows == [*VARIANTS, "persistence"], proc.stdout


def test_synthetic_forecast_tunes_then_forecasts():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/run_synthetic_forecast.py",
         "--stations", "6", "--steps", "300", "--max-samples", "2", "--tune-iterations", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "SPSA: val huber" in proc.stdout, proc.stdout
    assert "evaluated 2 test windows" in proc.stdout, proc.stdout
    assert "improvement over persistence" in proc.stdout, proc.stdout


def test_lane_budget_sweep_prints_a_row_per_windows_per_call():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/lane_budget_sweep.py", "--scales", "6:2", "3:1",
         "--windows", "1", "2", "--repeats", "1", "--blocks", "1", "--layers", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["stations", "heads", "windows", "lane", "nodes", "median", "ms",
                                "speed-up", "best", "ms", "speed-up"], proc.stdout
    rows = [line.split() for line in lines[1:]]
    # lane nodes per call: windows x heads x stations x (12 + 6) instants
    assert [row[:4] for row in rows] == [
        ["6", "2", "1", "216"], ["6", "2", "2", "432"],
        ["3", "1", "1", "54"], ["3", "1", "2", "108"],
    ], proc.stdout
    assert rows[0][5] == rows[0][7] == rows[2][5] == rows[2][7] == "1.00x"
    assert all(float(row[4]) >= float(row[6]) > 0 for row in rows)


def test_bench_pairs_writes_both_sides_of_every_metric(tmp_path):
    # HEAD against itself on the tiny smoke workload, one pair of 1 s runs
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, "scripts/bench_pairs.py", "HEAD", "HEAD", "--workload", "smoke",
         "--pairs", "1", "--seconds", "1", "--claim", "smoke:tune_s_per_iter",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True).stdout.strip()
    assert report["parent_commit"] == report["change_commit"] == head
    assert set(report) == {"change", "parent_commit", "change_commit", "command", "protocol",
                           "environment", "claim", "workloads"}
    assert report["claim"] == {"workload": "smoke", "metric": "tune_s_per_iter"}
    assert report["environment"]["blas_threads"] == "1"
    (entry,) = report["workloads"].values()
    assert entry["pairs"] == 1 and entry["seeds"] == [51] and entry["all_correct"]
    assert entry["failed"] == {"parent": 0, "change": 0}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(entry["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        m = entry["metrics"][spec["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (spec["unit"], spec["better"],
                                                       spec["bound"])
        for side in ("parent", "change"):
            (value,) = m[f"{side}_runs"]
            assert m[side] == {"median": value, "q1": value, "q3": value, "iqr": 0.0}
        assert m["wins"] + m["ties"] <= 1
    # the accuracy of one seed is the same on both sides
    for name in ("rmse_ratio", "val_huber_best"):
        assert entry["metrics"][name]["ties"] == 1
    worktrees = subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                               capture_output=True, text=True).stdout
    assert "bench_pairs-" not in worktrees  # both checkouts removed

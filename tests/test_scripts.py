"""The experiment scripts still run end to end.

``scripts/ablation_comparison.py`` is the only caller that runs every solver
variant through the whole pipeline; ``scripts/run_synthetic_forecast.py`` is
the only one that tunes with SPSA before forecasting;
``scripts/lane_budget_sweep.py`` times stacked windows against single ones.
"""

import os
import subprocess
import sys
from pathlib import Path

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

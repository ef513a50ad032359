"""The experiment scripts still run end to end.

``scripts/ablation_comparison.py`` is the only caller that runs every solver
variant through the whole pipeline; ``scripts/run_synthetic_forecast.py`` is
the only one that tunes with SPSA before forecasting.
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

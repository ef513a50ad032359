"""The benchmark in perfbench/ still runs against the package.

Its traced run wraps package functions by name (solver.update_*,
solver.cg_solve, solver.admm_block, MixedGraph.apply,
attention.multi_head_graphs, ...), so a rename or a changed call path in the
package breaks it; the smoke run at tiny scale catches that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

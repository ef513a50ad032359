#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json once and print each metric by name.

    python3 perfbench/all.py [--seed 0] [--trace 0|1]

Each workload runs in its own process through perfbench/run.py, with the
run length BENCHMARK.json sets. Exits non-zero if any run fails or reports
an incorrect result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in bench["workloads"]:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
            "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload['name']}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"== {workload['name']}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

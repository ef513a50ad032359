#!/usr/bin/env python3
"""Smoke check of the benchmark itself at tiny scale (4 stations, 1x2x1 model).

    python3 perfbench/smoke.py

Runs the tiny session traced twice and then untraced, in one process. Each
run already fails if a hook is installed when it starts or left installed
when it ends, if a count does not repeat between the two traced runs, or if
the metrics it emits differ in name or unit from BENCHMARK.json. Exits 0 when
all three runs report correct results. Takes a few seconds.
"""

import contextlib
import io
import json
import sys

import run

SMOKE_ARGS = ["--workload", "smoke", "--seed", "0", "--seconds", "1"]


def main() -> int:
    (run.OUT_ROOT / "smoke-seed0" / "counts.json").unlink(missing_ok=True)
    ok = True
    for trace in ("1", "1", "0"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run.main(SMOKE_ARGS + ["--trace", trace])
        result = json.loads(buf.getvalue().splitlines()[-1])
        print(f"trace {trace}: correct={result['correct']} metrics={len(result['metrics'])}")
        ok = ok and result["correct"]
    print("smoke check passed" if ok else "smoke check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

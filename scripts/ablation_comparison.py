#!/usr/bin/env python3
"""Compare the solver variants on one synthetic dataset.

Runs the full mixed-graph solver against the three ablations (no l1 term,
no l2 temporal term, undirected temporal graph) and the unsplit direct solve,
reporting test RMSE and MAE for each, and the milliseconds ``pipeline.evaluate``
took per evaluated window (context set-up excluded).

    python scripts/ablation_comparison.py --stations 12 --steps 800
"""

import argparse
import time
from dataclasses import replace

from stforecast import data, pipeline
from stforecast.config import PipelineConfig
from stforecast.solver import VARIANTS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stations", type=int, default=12)
    ap.add_argument("--steps", type=int, default=800)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-samples", type=int, default=8)
    args = ap.parse_args()

    table, pg = data.generate_synthetic(args.stations, args.steps, args.seed)
    base = PipelineConfig()
    splits, std = data.split_dataset(table, base.data)
    results = {}
    for mode in VARIANTS:
        cfg = replace(base, solver=replace(base.solver, mode=mode))
        ctx = pipeline.PipelineContext.build(pg, cfg, standardizer=std)
        t0 = time.perf_counter()
        rep = pipeline.evaluate(splits.test, ctx, max_samples=args.max_samples)
        ms = 1e3 * (time.perf_counter() - t0) / rep["n_samples"]
        results[mode] = (rep["rmse"], rep["mae"], ms)
        persistence = rep["persistence_rmse"]

    print(f"{'variant':<22} {'rmse':>8} {'mae':>8} {'ms/window':>10}")
    for mode, (rmse, mae, ms) in results.items():
        print(f"{mode:<22} {rmse:8.4f} {mae:8.4f} {ms:10.1f}")
    print(f"{'persistence baseline':<22} {persistence:8.4f}")


if __name__ == "__main__":
    main()

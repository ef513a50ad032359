#!/usr/bin/env python3
"""Compare the solver variants on one synthetic dataset.

Runs the full mixed-graph solver against the three ablations (no l1 term,
no l2 temporal term, undirected temporal graph) and the unsplit direct solve,
reporting test RMSE for each.

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
        t0 = time.time()
        rep = pipeline.evaluate(splits.test, ctx, max_samples=args.max_samples)
        results[mode] = (rep["rmse"], rep["mae"], time.time() - t0)
        persistence = rep["persistence_rmse"]

    print(f"{'variant':<22} {'rmse':>8} {'mae':>8} {'time':>6}")
    for mode, (rmse, mae, dt) in results.items():
        print(f"{mode:<22} {rmse:8.4f} {mae:8.4f} {dt:5.0f}s")
    print(f"{'persistence baseline':<22} {persistence:8.4f}")


if __name__ == "__main__":
    main()

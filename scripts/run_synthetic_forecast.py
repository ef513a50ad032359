#!/usr/bin/env python3
"""End-to-end experiment on seeded synthetic data.

Generates a dataset, runs the default pipeline on the test split, compares
against the hold-last baseline, and optionally tunes with SPSA first.

    python scripts/run_synthetic_forecast.py --stations 20 --steps 2000
    python scripts/run_synthetic_forecast.py --tune-iterations 40
"""

import argparse
import time

import numpy as np

from stforecast import data, pipeline, tuning
from stforecast.config import PipelineConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stations", type=int, default=20)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-samples", type=int, default=12)
    ap.add_argument("--tune-iterations", type=int, default=0)
    args = ap.parse_args()

    table, pg = data.generate_synthetic(args.stations, args.steps, args.seed)
    samples = data.cut_windows(table, 12, 6, 3)
    splits = data.split_windows(samples, (0.6, 0.2, 0.2))
    train_end = int(np.searchsorted(table.timestamps, splits.train[-1].timestamps[-1])) + 1
    std = pipeline.Standardizer.fit(table.values[:train_end])
    print(f"{len(samples)} windows -> {len(splits.train)}/{len(splits.val)}/{len(splits.test)}")

    cfg = PipelineConfig()
    if args.tune_iterations > 0:
        t0 = time.time()
        cfg, trace = tuning.tune_spsa(
            cfg, pg, splits.val, standardizer=std,
            iterations=args.tune_iterations,
        )
        print(
            f"SPSA: val huber {trace.best_losses[0]:.4f} -> {trace.best_losses[-1]:.4f} "
            f"in {time.time() - t0:.0f}s"
        )

    ctx = pipeline.PipelineContext.build(pg, cfg, standardizer=std)
    t0 = time.time()
    rep = pipeline.evaluate(splits.test, ctx, max_samples=args.max_samples)
    print(f"evaluated {rep['n_samples']} test windows in {time.time() - t0:.0f}s")
    print(f"pipeline     rmse {rep['rmse']:.4f}  mae {rep['mae']:.4f}  mape {rep['mape']:.2f}%")
    print(
        f"persistence  rmse {rep['persistence_rmse']:.4f}  mae {rep['persistence_mae']:.4f}  "
        f"mape {rep['persistence_mape']:.2f}%"
    )
    print(f"improvement over persistence: {100 * (1 - rep['rmse'] / rep['persistence_rmse']):.1f}%")


if __name__ == "__main__":
    main()

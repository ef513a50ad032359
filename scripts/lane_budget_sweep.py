#!/usr/bin/env python3
"""Forward time per window against windows stacked per call.

For each scale (stations and heads) the script cuts seeded synthetic
windows, then runs the same windows through the forward pass in chunks of W
windows each, one stacked system per chunk, for every W in ``--windows``.
The W values take turns within each repeat, so drift of the host's speed
falls on all of them alike. It prints the median and the best (least)
milliseconds per window over the repeats, each with its speed-up over the
first W; ``solver.LANE_NODE_BUDGET`` is set from the lane nodes per call
(W x heads x stations x instants) at which stacking stops paying. Which
systems run as their unrolled polynomial Q(A) does not depend on W (the
rule in ``solver.block_folds`` reads no node count), so every W runs each
window on the solver path it takes alone.

    python scripts/lane_budget_sweep.py
    python scripts/lane_budget_sweep.py --scales 20:4 --windows 1 2 4 --repeats 3
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as in perfbench; set before numpy loads

import argparse
import statistics
import time

from stforecast import data, pipeline
from stforecast.config import HeadSettings, LayerSettings, PipelineConfig


def parse_scale(text: str) -> tuple[int, int]:
    stations, heads = text.split(":")
    return int(stations), int(heads)


def sweep(stations: int, heads: int, windows_per_call: list[int], args) -> list[tuple]:
    cfg = PipelineConfig()
    cfg.layers = LayerSettings(blocks=args.blocks, layers=args.layers)
    cfg.heads = HeadSettings(count=heads)
    d = cfg.data
    total = max(windows_per_call)
    table, pg = data.generate_synthetic(stations, d.n_instants + d.stride * (total - 1), args.seed)
    windows = data.cut_windows(table, d.history, d.horizon, d.stride)[:total]
    ctx = pipeline.PipelineContext.build(
        pg, cfg, standardizer=pipeline.Standardizer.fit(table.values)
    )
    pipeline._forward(windows[:1], ctx)  # warm-up
    per_window = {w: [] for w in windows_per_call}
    for _ in range(args.repeats):
        for w in windows_per_call:
            t0 = time.perf_counter()
            for first in range(0, total, w):
                # one stacked system per chunk, whatever the budget
                pipeline._forward(windows[first : first + w], ctx)
            per_window[w].append(1e3 * (time.perf_counter() - t0) / total)
    nodes = heads * stations * d.n_instants
    median = {w: statistics.median(ms) for w, ms in per_window.items()}
    best = {w: min(ms) for w, ms in per_window.items()}
    first = windows_per_call[0]
    return [
        (stations, heads, w, w * nodes,
         median[w], median[first] / median[w], best[w], best[first] / best[w])
        for w in windows_per_call
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--scales", nargs="+", type=parse_scale, default=[(20, 4), (200, 1), (1000, 1)],
                    metavar="STATIONS:HEADS", help="default: 20:4 200:1 1000:1")
    ap.add_argument("--windows", nargs="+", type=int, default=[1, 2, 4, 8],
                    help="windows per call; the first is the baseline (default: 1 2 4 8)")
    ap.add_argument("--blocks", type=int, default=2)
    ap.add_argument("--layers", type=int, default=25)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if min(args.windows) < 1 or args.repeats < 1:
        ap.error("--windows and --repeats must be at least 1")

    print(f"{'stations':>8} {'heads':>5} {'windows':>7} {'lane nodes':>10} "
          f"{'median ms':>9} {'speed-up':>8} {'best ms':>8} {'speed-up':>8}")
    for stations, heads in args.scales:
        for row in sweep(stations, heads, args.windows, args):
            print("{:>8} {:>5} {:>7} {:>10} {:>9.2f} {:>7.2f}x {:>8.2f} {:>7.2f}x".format(*row),
                  flush=True)


if __name__ == "__main__":
    main()

"""Command-line surface.

Subcommands: synth (emit a synthetic dataset), forecast (run the pipeline and
write predictions + metrics), solve (single-sample solve with per-layer
trace), tune (SPSA over validation loss), verify (self-check table), and
graph-dump (assembled operators plus centrality as CSV).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import data, pipeline, solver, tuning, verify
from .attention import MetricBank
from .config import PipelineConfig
from .graphs import EdgeListError


def _load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return PipelineConfig.load(path)


def _load(args):
    cfg = _load_config(args.config)
    spec = data.DatasetSpec(
        signal_path=args.signals,
        edges_path=args.edges,
        stride=cfg.data.stride,
        ratios=cfg.data.ratios,
        horizon=cfg.data.horizon,
        history=cfg.data.history,
    )
    splits, pg, standardizer = data.load_dataset(spec)
    return cfg, splits, pg, standardizer, _interval(splits)


def _interval(splits) -> float:
    """Sampling interval in seconds, from the first window's (uniform) timestamps."""
    for part in (splits.train, splits.val, splits.test):
        if part:
            stamps = part[0].timestamps
            return float(stamps[1] - stamps[0])
    return 1.0


def _check_range(flag: str, value: int, count: int) -> None:
    if not 0 <= value < count:
        raise ValueError(f"{flag} {value} is out of range [0, {count})")


def _head_bank(bank, head: int):
    """The metric bank of one head, so ``multi_head_graphs`` builds that head's graph alone."""
    return MetricBank([bank.undirected[head]], [bank.directed[head]])


def cmd_synth(args) -> int:
    table, pg = data.generate_synthetic(
        args.stations, args.steps, args.seed, noise=args.noise, period=args.period
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data.write_signal_csv(table, out / "signals.csv")
    data.write_edges_csv(pg, out / "edges.csv")
    print(f"wrote {out / 'signals.csv'} ({args.steps} steps x {args.stations} stations)")
    print(f"wrote {out / 'edges.csv'} ({len(pg.edges)} edges)")
    return 0


def cmd_forecast(args) -> int:
    cfg, splits, pg, standardizer, interval = _load(args)
    samples = getattr(splits, args.split)
    if not samples:
        print(f"error: no {args.split} samples", file=sys.stderr)
        return 1
    ctx = pipeline.PipelineContext.build(pg, cfg, standardizer=standardizer, interval=interval)
    report = pipeline.evaluate(samples, ctx, max_samples=args.max_samples)
    chosen = pipeline.evenly_spaced_subset(samples, args.max_samples)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "predictions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station", "instant", "predicted", "actual"])
        for si, (sample, pred) in enumerate(zip(chosen, report["predictions"])):
            t_obs = sample.observed.shape[1]
            for s in range(sample.n_stations):
                for h in range(sample.target.shape[1]):
                    writer.writerow(
                        [s, int(sample.timestamps[t_obs + h]), repr(pred[s, h]),
                         repr(float(sample.target[s, h]))]
                    )
    metrics_rows = {
        k: report[k]
        for k in ("n_samples", "rmse", "mae", "mape", "huber",
                  "persistence_rmse", "persistence_mae", "persistence_mape")
    }
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(metrics_rows))
        writer.writerow([metrics_rows[k] for k in metrics_rows])
    for k, v in metrics_rows.items():
        print(f"{k}: {v}")
    return 0


def cmd_solve(args) -> int:
    cfg, splits, pg, standardizer, interval = _load(args)
    samples = getattr(splits, args.split)
    _check_range("--index", args.index, len(samples))
    _check_range("--head", args.head, cfg.heads.count)
    sample = samples[args.index]
    ctx = pipeline.PipelineContext.build(pg, cfg, standardizer=standardizer, interval=interval)
    # single-graph single-block solve with a per-layer trace
    x0, y, t_steps = pipeline.initial_signal(sample, ctx)
    graph = pipeline.block_graph(
        ctx, x0, t_steps, sample.observed.shape[1], bank=_head_bank(ctx.bank, args.head),
        with_undirected_temporal=solver.TERMS[cfg.solver.mode].temporal == "l_n",
    )
    params = cfg.layers.layer_params(0, cfg.default_rho(sample.n_stations))
    trace: list = []
    try:
        solver.admm_block(x0, y, graph, params, cfg.solver.schedule(), cfg.solver.mode, trace)
    except solver.NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "objective", "res_phi", "res_zu", "res_zd"])
            for rec in trace:
                writer.writerow(
                    [rec["layer"], repr(rec["objective"]), repr(rec["res_phi"]),
                     repr(rec["res_zu"]), repr(rec["res_zd"])]
                )
        print(f"wrote {args.trace} ({len(trace)} layers)")
    last = trace[-1]
    print(
        f"final objective {last['objective']:.6g}; residuals "
        f"phi {last['res_phi']:.3e}, z_u {last['res_zu']:.3e}, z_d {last['res_zd']:.3e}"
    )
    return 0


def cmd_tune(args) -> int:
    cfg, splits, pg, standardizer, interval = _load(args)
    if not splits.val:
        print("error: no validation samples", file=sys.stderr)
        return 1
    best, trace = tuning.tune_spsa(
        cfg, pg, splits.val, standardizer=standardizer,
        iterations=args.iterations, eval_samples=args.eval_samples, interval=interval,
    )
    best.save(args.out)
    start, end = trace.best_losses[0], trace.best_losses[-1]
    print(f"validation huber: {start:.6g} -> {end:.6g} "
          f"({100.0 * (start - end) / start:.1f}% better)")
    print(f"wrote {args.out}")
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "loss_plus", "loss_minus", "best", "rejected"])
            for rec, best_loss in zip(trace.iterations, trace.best_losses[1:]):
                writer.writerow([rec["iter"], rec["loss_plus"], rec["loss_minus"],
                                 best_loss, rec["rejected"]])
        print(f"wrote {args.trace}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def cmd_graph_dump(args) -> int:
    cfg, splits, pg, standardizer, interval = _load(args)
    samples = splits.train or splits.test
    if not samples:
        print("error: dataset produced no samples", file=sys.stderr)
        return 1
    _check_range("--head", args.head, cfg.heads.count)
    sample = samples[0]
    ctx = pipeline.PipelineContext.build(pg, cfg, standardizer=standardizer, interval=interval)
    x0, _, t_steps = pipeline.initial_signal(sample, ctx)
    graph = pipeline.block_graph(
        ctx, x0, t_steps, sample.observed.shape[1], bank=_head_bank(ctx.bank, args.head)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("l_u", "w_rd", "l_rd", "call_rd"):
        mat = getattr(graph, name).tocoo()
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "value"])
            for r, c, v in zip(mat.row, mat.col, mat.data):
                writer.writerow([int(r), int(c), repr(float(v))])
    n = pg.n_stations
    w_slice = graph.l_u[:n, :n].toarray()
    np.fill_diagonal(w_slice, 0.0)
    centrality = pipeline.perron_centrality(-w_slice)
    with open(out / "perron.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station", "centrality"])
        for s, v in enumerate(centrality):
            writer.writerow([s, repr(float(v))])
    print(f"wrote operators and perron.csv to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stforecast", description="mixed-graph spatio-temporal forecasting"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--stations", type=int, default=20)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=2.5)
    p.add_argument("--period", type=int, default=288)
    p.set_defaults(fn=cmd_synth)

    def add_data_args(p):
        p.add_argument("--signals", required=True)
        p.add_argument("--edges", required=True)
        p.add_argument("--config", default=None)

    p = sub.add_parser("forecast", help="run the pipeline and write predictions")
    add_data_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--max-samples", type=int, default=None)
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("solve", help="single-sample solve with per-layer trace")
    add_data_args(p)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("tune", help="SPSA over validation loss")
    add_data_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--eval-samples", type=int, default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("verify", help="run the self-check table")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("graph-dump", help="dump assembled operators as CSV")
    add_data_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--head", type=int, default=0)
    p.set_defaults(fn=cmd_graph_dump)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (data.ParseError, EdgeListError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except solver.NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(cli_main())

"""Command-line surface.

Subcommands: synth (emit a synthetic dataset), forecast (run the pipeline and
write predictions + metrics), solve (single-sample solve with per-layer
trace), tune (SPSA over validation loss), verify (self-check table), and
graph-dump (assembled operators plus centrality as CSV).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data, pipeline, solver, tuning, verify
from .config import PipelineConfig


def _load(args):
    cfg = PipelineConfig() if args.config is None else PipelineConfig.load(args.config)
    spec = data.DatasetSpec(args.signals, args.edges, cfg.data)
    splits, pg, standardizer = data.load_dataset(spec)
    return cfg, splits, pg, standardizer


def _check_range(flag: str, value: int, count: int) -> None:
    if not 0 <= value < count:
        raise ValueError(f"{flag} {value} is out of range [0, {count})")


def _check_at_least(flag: str, value: int | None, low: int) -> None:
    if value is not None and value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _make_parents(*paths) -> None:
    """Create the directory of each output file given (None: no output), before any work."""
    for path in paths:
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)


def _head_graph(args, cfg, pg, standardizer, interval, sample):
    """Head ``args.head``'s block-0 graph for ``sample``, with the start signal and observations."""
    _check_range("--head", args.head, cfg.heads.count)
    ctx = pipeline.PipelineContext.build(pg, cfg, standardizer, interval)
    x0, y, t_steps = pipeline.initial_signal(sample, ctx)
    graph = pipeline.block_graph(ctx, [x0], [t_steps], bank=ctx.bank.head(args.head))
    return x0, y, graph


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
    _check_at_least("--max-samples", args.max_samples, 1)
    cfg, splits, pg, standardizer = _load(args)
    samples = getattr(splits, args.split)
    if not samples:
        print(f"error: no {args.split} samples", file=sys.stderr)
        return 1
    ctx = pipeline.PipelineContext.build(pg, cfg, standardizer, splits.interval)
    chosen = pipeline.evenly_spaced_subset(samples, args.max_samples)
    report = pipeline.evaluate(chosen, ctx)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = (
        [s, int(stamp), repr(float(pred[s, h])), repr(float(sample.target[s, h]))]
        for sample, pred in zip(chosen, report["predictions"])
        for s in range(sample.n_stations)
        for h, stamp in enumerate(sample.timestamps[sample.observed.shape[1]:])
    )
    data.write_csv(out / "predictions.csv", ["station", "instant", "predicted", "actual"], rows)
    metrics_rows = {
        k: report[k]
        for k in ("n_samples", "rmse", "mae", "mape", "huber",
                  "persistence_rmse", "persistence_mae", "persistence_mape")
    }
    data.write_csv(out / "metrics.csv", list(metrics_rows), [list(metrics_rows.values())])
    for k, v in metrics_rows.items():
        print(f"{k}: {v}")
    return 0


def cmd_solve(args) -> int:
    cfg, splits, pg, standardizer = _load(args)
    if cfg.layers.blocks < 1:
        raise ValueError(f"solve runs block 0: layers.blocks must be at least 1, "
                         f"got {cfg.layers.blocks}")
    samples = getattr(splits, args.split)
    _check_range("--index", args.index, len(samples))
    sample = samples[args.index]
    _make_parents(args.trace)
    # single-graph single-block solve with a per-layer trace
    x0, y, graph = _head_graph(args, cfg, pg, standardizer, splits.interval, sample)
    params = cfg.layers.layer_params(0, cfg.default_rho(sample.n_stations))
    trace: list = []
    try:
        solver.admm_block(x0, y, graph, params, cfg.solver.schedule(), cfg.solver.mode, trace)
    except solver.NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        columns = ["layer", "objective", "res_phi", "res_zu", "res_zd", "phi_kept"]
        rows = ([rec["layer"], *(repr(rec[k]) for k in columns[1:])] for rec in trace)
        data.write_csv(args.trace, columns, rows)
        print(f"wrote {args.trace} ({len(trace)} layers)")
    last = trace[-1]
    print(
        f"final objective {last['objective']:.6g}; residuals "
        f"phi {last['res_phi']:.3e}, z_u {last['res_zu']:.3e}, z_d {last['res_zd']:.3e}"
    )
    return 0


def cmd_tune(args) -> int:
    _check_at_least("--iterations", args.iterations, 0)
    _check_at_least("--eval-samples", args.eval_samples, 1)
    cfg, splits, pg, standardizer = _load(args)
    if not splits.val:
        print("error: no validation samples", file=sys.stderr)
        return 1
    _make_parents(args.out, args.trace)
    best, trace = tuning.tune_spsa(
        cfg, pg, splits.val, standardizer=standardizer,
        iterations=args.iterations, eval_samples=args.eval_samples, interval=splits.interval,
    )
    best.save(args.out)
    if trace.best_losses:  # empty when no iteration ran
        start, end = trace.best_losses[0], trace.best_losses[-1]
        print(f"validation huber: {start:.6g} -> {end:.6g} "
              f"({100.0 * (start - end) / start:.1f}% better)")
    print(f"wrote {args.out}")
    if args.trace:
        rows = ([rec["iter"], rec["loss_plus"], rec["loss_minus"], best_loss, rec["rejected"]]
                for rec, best_loss in zip(trace.iterations, trace.best_losses[1:]))
        data.write_csv(args.trace, ["iter", "loss_plus", "loss_minus", "best", "rejected"], rows)
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
    cfg, splits, pg, standardizer = _load(args)
    samples = splits.train or splits.val or splits.test
    if not samples:
        print("error: dataset produced no samples", file=sys.stderr)
        return 1
    _, _, graph = _head_graph(args, cfg, pg, standardizer, splits.interval, samples[0])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("l_u", "w_rd", "l_rd", "call_rd"):
        mat = getattr(graph, name).tocoo()
        rows = zip(mat.row.tolist(), mat.col.tolist(), mat.data.tolist())
        data.write_csv(out / f"{name}.csv", ["row", "col", "value"], rows)
    n = pg.n_stations
    w_slice = graph.l_u[:n, :n].toarray()
    w_slice[np.diag_indices(n)] = 0.0
    centrality = pipeline.component_centrality(-w_slice)
    data.write_csv(out / "perron.csv", ["station", "centrality"], enumerate(centrality.tolist()))
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
    except (ValueError, OSError) as exc:  # OSError: a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except solver.NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(cli_main())

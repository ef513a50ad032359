"""End-to-end forecasting: standardize, extrapolate, iterate graph-learning
and ADMM blocks, merge heads, and score.

The running signal is the stacked vector over stations x instants; each block
relearns the mixed graph from the current signal, refines the signal with one
ADMM block that runs every head as a lane of a block-diagonal system, merges
the heads, and applies a residual step. Several windows run together as
further lanes of the same system, window-major, head-minor.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import attention, solver
from .config import PipelineConfig
from .graphs import MixedGraph, PhysicalGraph, build_spatial_skeleton, build_temporal_skeleton


@dataclass(eq=False)
class Sample:
    """One forecasting window: observed history plus the target block."""

    observed: np.ndarray  # (N, T+1)
    target: np.ndarray  # (N, S)
    timestamps: np.ndarray  # (T+1+S,) seconds, uniformly spaced

    @property
    def n_stations(self) -> int:
        return self.observed.shape[0]

    def full_truth(self) -> np.ndarray:
        return np.concatenate([self.observed, self.target], axis=1)


@dataclass(eq=False)
class Standardizer:
    """Per-station affine normalization fitted on the training split."""

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray  # stations whose training series had zero variance

    @classmethod
    def fit(cls, values_tn: np.ndarray) -> "Standardizer":
        mean = values_tn.mean(axis=0)
        std = values_tn.std(axis=0)
        constant = std == 0
        std = np.where(constant, 1.0, std)
        return cls(mean, std, constant)

    @classmethod
    def identity(cls, n_stations: int) -> "Standardizer":
        return cls(np.zeros(n_stations), np.ones(n_stations), np.zeros(n_stations, dtype=bool))

    def transform(self, mat_ns: np.ndarray) -> np.ndarray:
        return (mat_ns - self.mean[:, None]) / self.std[:, None]

    def inverse(self, mat_ns: np.ndarray) -> np.ndarray:
        return mat_ns * self.std[:, None] + self.mean[:, None]


def initial_extrapolation(
    observed: np.ndarray,
    horizon: int,
    method: str = "linear-trend",
    trend_window: int = 6,
    seasonal_period: int = 288,
) -> np.ndarray:
    """First guess for the future block, shape (N, horizon).

    seasonal-naive repeats the value one period back (falling back to
    hold-last while the history is shorter than the period); linear-trend
    fits a least-squares line over the last ``trend_window`` observations.
    """
    n, t_obs = observed.shape
    if method == "hold-last":
        return np.repeat(observed[:, -1:], horizon, axis=1)
    if method == "linear-trend":
        w = min(trend_window, t_obs)
        ts = np.arange(w, dtype=np.float64)
        design = np.vstack([ts, np.ones(w)]).T
        coef, *_ = np.linalg.lstsq(design, observed[:, -w:].T, rcond=None)
        future_t = np.arange(w, w + horizon, dtype=np.float64)
        return (coef[0][:, None] * future_t[None, :]) + coef[1][:, None]
    if method == "seasonal-naive":
        series = observed.copy()
        for h in range(horizon):
            idx = series.shape[1] - seasonal_period
            col = series[:, idx] if idx >= 0 else series[:, -1]
            series = np.concatenate([series, col[:, None]], axis=1)
        return series[:, t_obs:]
    raise ValueError(f"unknown extrapolation method {method!r}")


def flatten_time_major(mat_ns: np.ndarray) -> np.ndarray:
    """(N, T) station-major matrix -> flat vector with time-major blocks."""
    return mat_ns.T.reshape(-1)


def unflatten_time_major(x: np.ndarray, n_stations: int) -> np.ndarray:
    return x.reshape(-1, n_stations).T


@dataclass(eq=False)
class PipelineContext:
    """Shared immutable pieces reused across samples."""

    pg: PhysicalGraph
    config: PipelineConfig
    bank: attention.MetricBank
    standardizer: Standardizer
    sskel: object
    tskel: object
    eigmap: np.ndarray
    feature_map: attention.FeatureMap
    interval: float

    @classmethod
    def build(
        cls,
        pg: PhysicalGraph,
        config: PipelineConfig,
        bank: attention.MetricBank | None = None,
        standardizer: Standardizer | None = None,
        interval: float = 300.0,
    ) -> "PipelineContext":
        g = config.graph
        sskel = build_spatial_skeleton(pg, g.k)
        tskel = build_temporal_skeleton(pg.n_stations, config.data.n_instants, g.window)
        eigmap = attention.spatial_eigenmap(pg, g.spatial_dim)
        if bank is None:
            bank = config.heads.build_bank(config.data.n_instants, g.window, g.feature_dim)
        if standardizer is None:
            standardizer = Standardizer.identity(pg.n_stations)
        projection = g.projection
        if projection is None:
            projection = attention.seeded_projection(
                1 + g.spatial_dim + attention.TEMPORAL_DIM, g.feature_dim, g.feature_seed
            )
        feature_map = attention.FeatureMap(
            projection,
            bias=g.projection_bias,
            aggregate_neighbors=g.aggregate_neighbors,
            swish_beta=g.swish_beta,
        )
        return cls(pg, config, bank, standardizer, sskel, tskel, eigmap, feature_map, interval)


def initial_signal(
    sample: Sample, ctx: PipelineContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A window's starting point: (x, y, t_steps).

    ``x`` is the standardized history with the extrapolated future appended,
    flattened time-major; ``y`` is its observed part; ``t_steps`` are the
    timestamps in sampling intervals.
    """
    data = ctx.config.data
    obs_std = ctx.standardizer.transform(sample.observed)
    extrap = initial_extrapolation(
        obs_std,
        sample.target.shape[1],
        method=data.extrapolation,
        trend_window=data.trend_window,
        seasonal_period=data.seasonal_period,
    )
    x = flatten_time_major(np.concatenate([obs_std, extrap], axis=1))
    y = x[: sample.observed.size].copy()
    t_steps = np.asarray(sample.timestamps, dtype=np.float64) / ctx.interval
    return x, y, t_steps


def block_graph(
    ctx: PipelineContext,
    xs: Sequence[np.ndarray],
    t_steps: Sequence[np.ndarray],
    n_observed: int,
    bank: attention.MetricBank | None = None,
    with_undirected_temporal: bool = False,
) -> MixedGraph:
    """The mixed graph a block learns from the signals ``xs`` of one or more
    windows, with their ``t_steps``: embed and feature map each window, then
    one lane per head of ``bank`` (the context's bank by default) for each
    window, window-major."""
    bank = ctx.bank if bank is None else bank
    feats = np.stack([
        ctx.feature_map(attention.embed(x, ctx.pg, t, ctx.eigmap), ctx.sskel)
        for x, t in zip(xs, t_steps)
    ])
    return attention.multi_head_graphs(
        np.repeat(feats, bank.heads, axis=0), ctx.sskel, ctx.tskel, bank,
        n_observed=n_observed, with_undirected_temporal=with_undirected_temporal,
    )


def _forward(samples: list[Sample], ctx: PipelineContext) -> list[np.ndarray]:
    """Full reconstructions in raw units, (N, T+1+S) each, of windows run together.

    Each block learns one graph over every head of every window and runs one
    ADMM block on it, lanes window-major, head-minor. In unrolled CG each
    window's result is bitwise the one it gets alone; exact CG runs one CG
    on the whole stack. A failure names the window by its position in
    ``samples``.
    """
    cfg = ctx.config
    for s in samples:
        if s.observed.shape[1] != cfg.data.history or s.target.shape[1] != cfg.data.horizon:
            raise ValueError("sample window does not match the configured history/horizon")

    starts = [initial_signal(s, ctx) for s in samples]
    x = np.stack([x0 for x0, _, _ in starts])  # (windows, nodes)
    t_steps = [t for _, _, t in starts]
    heads = ctx.bank.heads
    y = np.concatenate([np.tile(y0, heads) for _, y0, _ in starts])
    sched = cfg.solver.schedule()
    mode = cfg.solver.mode
    rho0 = cfg.default_rho(ctx.pg.n_stations)
    needs_ln = solver.TERMS[mode].temporal == "l_n"
    for b in range(cfg.layers.blocks):
        try:
            graph = block_graph(
                ctx, x, t_steps, cfg.data.history, with_undirected_temporal=needs_ln
            )
        except attention.DegenerateWeightError as exc:
            exc.block = b
            exc.window, exc.head = divmod(exc.head, heads)  # the lane it names
            raise
        params = cfg.layers.layer_params(b, rho0)
        try:
            out = solver.admm_block(
                np.repeat(x, heads, axis=0).ravel(), y, graph, params, sched, mode
            )
        except solver.NumericFailure as exc:
            lane = graph.lane_of(exc.entry)
            exc.block = b
            exc.window, exc.head = (None, None) if lane is None else divmod(lane, heads)
            raise
        del graph  # so that two blocks' graphs are never held at once
        out = out.reshape(len(samples), heads, -1)
        x_new = sum(w * out[:, h] for h, w in enumerate(cfg.heads.merge))
        x = cfg.layers.residual[b] * x_new + (1.0 - cfg.layers.residual[b]) * x

    n = ctx.pg.n_stations
    return [ctx.standardizer.inverse(unflatten_time_major(x_w, n)) for x_w in x]


def reconstruct_batch(samples: list[Sample], ctx: PipelineContext) -> list[np.ndarray]:
    """Full reconstructions in raw units of many windows, stacked in chunks.

    Windows join a chunk while its lane nodes, windows x heads x stations x
    instants, stay within ``solver.LANE_NODE_BUDGET``; a window over the
    budget on its own runs alone. A failure names the window by its position
    in ``samples``.
    """
    per_call = max(1, solver.LANE_NODE_BUDGET // (ctx.bank.heads * ctx.tskel.n_nodes))
    recons = []
    for first in range(0, len(samples), per_call):
        try:
            recons += _forward(samples[first : first + per_call], ctx)
        except (solver.NumericFailure, attention.DegenerateWeightError) as exc:
            if exc.window is not None:
                exc.window += first
            raise
    return recons


def run_forecast(sample: Sample, ctx: PipelineContext) -> np.ndarray:
    """Predicted future block in raw units, shape (N, S)."""
    return reconstruct(sample, ctx)[:, sample.observed.shape[1] :]


def reconstruct(sample: Sample, ctx: PipelineContext) -> np.ndarray:
    """Full reconstructed sequence (observed span included), raw units."""
    return _forward([sample], ctx)[0]


def persistence_forecast(sample: Sample) -> np.ndarray:
    """Hold-last baseline."""
    return np.repeat(sample.observed[:, -1:], sample.target.shape[1], axis=1)


def forecast_metrics(pred: np.ndarray, target: np.ndarray, mape_floor: float = 1.0):
    """(rmse, mae, mape_percent); MAPE skips targets at or below the floor."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("prediction and target shapes differ")
    if pred.size == 0:
        raise ValueError("empty input")
    err = pred - target
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    keep = np.abs(target) > mape_floor
    mape = float(100.0 * np.mean(np.abs(err[keep]) / np.abs(target[keep]))) if keep.any() else float("nan")
    return rmse, mae, mape


def huber_loss(pred: np.ndarray, target: np.ndarray, delta: float = 1.0) -> float:
    err = np.abs(np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64))
    quad = 0.5 * err**2
    lin = delta * (err - 0.5 * delta)
    return float(np.mean(np.where(err <= delta, quad, lin)))


def evaluate(
    samples: list[Sample],
    ctx: PipelineContext,
    max_samples: int | None = None,
) -> dict:
    """Forecast a batch of windows and aggregate metrics.

    The windows run as lanes of stacked systems (``reconstruct_batch``), and
    each forecast is bitwise the one the window gets alone in unrolled CG.
    The persistence baseline is scored on the same windows; ``max_samples``
    picks an evenly spaced subset, and a failure names the window by its
    position in that subset.
    """
    if not samples:
        raise ValueError("no samples to evaluate")
    chosen = evenly_spaced_subset(samples, max_samples)
    recons = reconstruct_batch(chosen, ctx)
    preds, targets, base = [], [], []
    hubers = []
    for s, recon in zip(chosen, recons):
        t_obs = s.observed.shape[1]
        preds.append(recon[:, t_obs:])
        targets.append(s.target)
        base.append(persistence_forecast(s))
        hubers.append(huber_loss(recon, s.full_truth()))
    pred = np.concatenate(preds, axis=1)
    target = np.concatenate(targets, axis=1)
    floor = ctx.config.data.mape_floor
    rmse, mae, mape = forecast_metrics(pred, target, floor)
    p_rmse, p_mae, p_mape = forecast_metrics(np.concatenate(base, axis=1), target, floor)
    return {
        "n_samples": len(chosen),
        "rmse": rmse,
        "mae": mae,
        "mape": mape,
        "huber": float(np.mean(hubers)),
        "persistence_rmse": p_rmse,
        "persistence_mae": p_mae,
        "persistence_mape": p_mape,
        "predictions": preds,
    }


def evenly_spaced_subset(samples: list, max_samples: int | None) -> list:
    """At most ``max_samples`` evenly spaced items of ``samples``; all of them for None."""
    if max_samples is not None and max_samples < 1:
        raise ValueError(f"max_samples must be at least 1, got {max_samples}")
    if max_samples is None or max_samples >= len(samples):
        return list(samples)
    idx = np.linspace(0, len(samples) - 1, max_samples).round().astype(int)
    return [samples[i] for i in np.unique(idx)]


def perron_centrality(w_slice) -> np.ndarray:
    """Perron vector of a connected nonnegative symmetric slice, 1-norm normalized.

    By Perron-Frobenius the eigenvector of the largest eigenvalue of such a
    matrix is unique and positive, so it is read off one dense symmetric
    eigensolve.
    """
    w = w_slice.toarray() if sp.issparse(w_slice) else np.asarray(w_slice, dtype=np.float64)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError("expected a square matrix")
    if np.any(w < 0):
        raise ValueError("matrix must be nonnegative")
    if not np.array_equal(w, w.T):
        raise ValueError("matrix must be symmetric")
    n_components = connected_components(w, directed=False, return_labels=False)
    if n_components > 1:
        raise ValueError(f"slice is not connected ({n_components} components)")
    v = np.abs(np.linalg.eigh(w)[1][:, -1])
    if np.any(v <= 0):
        raise ValueError("Perron vector has non-positive entries")
    return v / v.sum()

"""End-to-end forecasting: standardize, hold the last observation as the
first guess, iterate graph-learning and ADMM blocks, merge heads, and score.

``PipelineContext.build`` derives what every window shares from the road
network and the config alone. The running signal is the stacked vector over
stations x instants; each block relearns the mixed graph from the current
signal, refines it with one ADMM block that runs every head as a lane of a
block-diagonal system, merges the heads, and applies a residual step.
Several windows run together as further lanes of the same system,
window-major, head-minor, and a batch's chunks of such windows run side by
side on the host's spare cores. A failing lane, in graph learning or in the
solve, is reported as one ``NumericFailure`` naming block, window and head.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import attention, solver
from .config import PipelineConfig
from .graphs import (MixedGraph, PhysicalGraph, build_spatial_skeleton, build_temporal_skeleton,
                     components_by_size)

_PLAN_LOCK = threading.Lock()  # guards every context's ``plans``
_POOL_LOCK = threading.Lock()
_pool: concurrent.futures.ThreadPoolExecutor | None = None  # see ``_chunk_pool``


@dataclass(eq=False)
class Sample:
    """One forecasting window: observed history plus the target block.

    ``data.cut_windows`` gives read-only views of its signal table: the
    arrays are shared, not copied, and station-major views of time-major
    rows. Nothing here writes to a sample's arrays.
    """

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
    std: np.ndarray  # 1 for a station whose training series is constant

    @classmethod
    def fit(cls, values_tn: np.ndarray) -> "Standardizer":
        std = values_tn.std(axis=0)
        return cls(values_tn.mean(axis=0), np.where(std == 0, 1.0, std))

    @classmethod
    def identity(cls, n_stations: int) -> "Standardizer":
        return cls(np.zeros(n_stations), np.ones(n_stations))

    def transform(self, mat_ns: np.ndarray) -> np.ndarray:
        return (mat_ns - self.mean[:, None]) / self.std[:, None]

    def inverse(self, mat_ns: np.ndarray) -> np.ndarray:
        return mat_ns * self.std[:, None] + self.mean[:, None]


def flatten_time_major(mat_ns: np.ndarray) -> np.ndarray:
    """(N, T) station-major matrix -> flat vector with time-major blocks."""
    return mat_ns.T.reshape(-1)


def unflatten_time_major(x: np.ndarray, n_stations: int) -> np.ndarray:
    return x.reshape(-1, n_stations).T


@dataclass(eq=False)
class PipelineContext:
    """Shared immutable pieces reused across samples.

    The skeletons, eigenmap and feature map come from the road network and
    the ``graph`` and ``data`` sections of ``config``; ``bank`` comes from
    ``config`` on first read, cached here. ``dataclasses.replace`` with a
    ``config`` that agrees on those sections derives a new bank and shares
    ``plans``, the operator plans ``block_graph`` makes, one per lane count.
    """

    pg: PhysicalGraph
    config: PipelineConfig
    standardizer: Standardizer
    sskel: object
    tskel: object
    eigmap: np.ndarray
    feature_map: attention.FeatureMap
    interval: float
    plans: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        pg: PhysicalGraph,
        config: PipelineConfig,
        standardizer: Standardizer | None = None,
        interval: float = 300.0,
    ) -> "PipelineContext":
        g = config.graph
        sskel = build_spatial_skeleton(pg, g.k)
        tskel = build_temporal_skeleton(pg.n_stations, config.data.n_instants, g.window)
        eigmap = attention.spatial_eigenmap(pg, g.spatial_dim)
        if standardizer is None:
            standardizer = Standardizer.identity(pg.n_stations)
        feature_map = attention.FeatureMap(
            attention.seeded_projection(
                1 + g.spatial_dim + attention.TEMPORAL_DIM, g.feature_dim, g.feature_seed
            ),
            bias=g.projection_bias,
            skeleton=sskel if g.aggregate_neighbors else None,
            swish_beta=g.swish_beta,
        )
        ctx = cls(pg, config, standardizer, sskel, tskel, eigmap, feature_map, interval)
        ctx.bank  # a heads section its rules reject fails the build
        return ctx

    @cached_property
    def bank(self) -> attention.MetricBank:
        c = self.config
        return c.heads.build_bank(c.data.n_instants, c.graph.window, c.graph.feature_dim)


def initial_signal(
    sample: Sample, ctx: PipelineContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A window's starting point: (x, y, t_steps).

    ``x`` is the standardized history with its last observation held over
    the future, flattened time-major; ``y`` is its observed part;
    ``t_steps`` are the timestamps in sampling intervals. A window whose
    timestamps are not ``ctx.interval`` apart is refused: its time codes
    would be off by their ratio.
    """
    stamps = np.asarray(sample.timestamps, dtype=np.float64)
    if len(stamps) > 1 and stamps[1] - stamps[0] != ctx.interval:
        raise ValueError(
            f"the window's timestamps are {stamps[1] - stamps[0]:g} s apart, but the "
            f"context's sampling interval is {ctx.interval:g} s: build the context "
            "with the data's interval"
        )
    obs_std = ctx.standardizer.transform(sample.observed)
    future = np.repeat(obs_std[:, -1:], sample.target.shape[1], axis=1)
    x = flatten_time_major(np.concatenate([obs_std, future], axis=1))
    y = x[: sample.observed.size].copy()
    return x, y, stamps / ctx.interval


def block_graph(
    ctx: PipelineContext,
    xs: Sequence[np.ndarray],
    t_steps: Sequence[np.ndarray],
    bank: attention.MetricBank | None = None,
) -> MixedGraph:
    """The mixed graph a block learns from the signals ``xs`` of one or more
    windows, with their ``t_steps``: embed and feature map each window, then
    one lane per head of ``bank`` (the context's bank by default) for each
    window, window-major, every head reading its window's features. The
    configured history is the observed span. The graph holds ``l_n`` when
    the configured solver mode needs it. Its operators fill the context's
    plan for their lane count, made here on first use under a lock, so
    chunks that run at once share one plan."""
    bank = ctx.bank if bank is None else bank
    feats = np.stack([
        ctx.feature_map(attention.embed(x, t, ctx.eigmap)) for x, t in zip(xs, t_steps)
    ])
    # everything the plan depends on, so a replaced context never reads a stale one
    key = (ctx.sskel, ctx.tskel, len(xs) * bank.heads, ctx.config.data.history,
           solver.TERMS[ctx.config.solver.mode].temporal == "l_n")
    with _PLAN_LOCK:
        plan = ctx.plans.get(key)
        if plan is None:
            plan = ctx.plans[key] = attention.plan_mixed_graph(*key)
    return attention.multi_head_graphs(feats, plan, bank)


def _forward(samples: list[Sample], ctx: PipelineContext) -> list[np.ndarray]:
    """Full reconstructions in raw units, (N, T+1+S) each, of windows run together.

    Each block learns one graph over every head of every window and runs one
    ADMM block on it, lanes window-major, head-minor. In unrolled CG each
    window's result is bitwise the one it gets alone; exact CG runs one CG
    on the whole stack. A failure names the window by its position in
    ``samples``. The blocks share one ``solver.Workspace``, which lives for
    this call: block 0 makes the Q(A) buffers, every later block refills
    them in place. Of the context it changes only ``plans``, under
    ``block_graph``'s lock, so calls on several threads may share one
    context.
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
    rho0 = cfg.default_rho(ctx.pg.n_stations)
    workspace = solver.Workspace()
    for b in range(cfg.layers.blocks):
        try:
            graph = block_graph(ctx, x, t_steps)
            params = cfg.layers.layer_params(b, rho0)
            out = solver.admm_block(
                np.repeat(x, heads, axis=0).ravel(), y, graph, params, sched, cfg.solver.mode,
                workspace=workspace,
            )
        except solver.NumericFailure as exc:
            exc.block = b
            exc.window, exc.head = (None, None) if exc.lane is None else divmod(exc.lane, heads)
            raise
        del graph  # so that two blocks' graphs are never held at once
        out = out.reshape(len(samples), heads, -1)
        x_new = sum(w * out[:, h] for h, w in enumerate(cfg.heads.merge))
        x = cfg.layers.residual[b] * x_new + (1.0 - cfg.layers.residual[b]) * x

    n = ctx.pg.n_stations
    return [ctx.standardizer.inverse(unflatten_time_major(x_w, n)) for x_w in x]


def reconstruct_batch(samples: list[Sample], ctx: PipelineContext) -> list[np.ndarray]:
    """Full reconstructions in raw units of many windows, stacked in chunks.

    The batch is cut into as few chunks as keep each chunk's lane nodes,
    windows x heads x stations x instants, within ``solver.LANE_NODE_BUDGET``,
    and the windows are shared out evenly among them, the earlier chunks
    taking one more where they do not divide; a window over the budget on
    its own runs alone. Each chunk is one ``_forward``, so its results do
    not depend on where it runs, and the chunks run side by side
    (``side_by_side``). Results come back in window order. On a failure
    the call raises the earliest failing chunk's error, naming the window
    by its position in ``samples``.
    """
    per_call = max(1, solver.LANE_NODE_BUDGET // (ctx.bank.heads * ctx.tskel.n_nodes))
    count = -(-len(samples) // per_call)  # as few chunks as the budget allows
    size, extra = divmod(len(samples), max(count, 1))
    bounds = [i * size + min(i, extra) for i in range(count + 1)]

    def chunk(first: int, stop: int) -> list[np.ndarray]:
        try:
            return _forward(samples[first:stop], ctx)
        except solver.NumericFailure as exc:
            if exc.window is not None:
                exc.window += first
            raise

    parts = side_by_side([partial(chunk, *span) for span in zip(bounds, bounds[1:])])
    return [recon for part in parts for recon in part]


def side_by_side(tasks: Sequence[Callable[[], object]]) -> list:
    """The results of calling each of ``tasks``, in order, the calls run side by side.

    The calling thread runs the first task while the others are submitted
    to the process-wide chunk pool (``_chunk_pool``); once free, it runs
    each task the pool has not started yet, so a busy pool, a task that
    itself calls this on a pool thread included, never stalls a call. With
    one task or one usable CPU no thread starts, and the tasks run one after
    another on the calling thread. Tasks may run on several threads at once.
    On a failure the call waits for every task it started, then raises the
    earliest failing task's error, as one task after another would.
    """
    pool = _chunk_pool() if len(tasks) > 1 else None
    if pool is None:
        return [task() for task in tasks]
    later = [pool.submit(task) for task in tasks[1:]]
    try:
        results = [tasks[0]()]
        done = [_run_here(task) if future.cancel() else future
                for future, task in zip(later, tasks[1:])]
        results += [future.result() for future in done]
    finally:
        # a cancelled task's future is done only once a pool thread drops it,
        # and every pool thread may be waiting here: wait for the started ones
        concurrent.futures.wait([future for future in later if not future.cancel()])
    return results


def _run_here(fn) -> concurrent.futures.Future:
    """``fn()`` run on the calling thread, its result or error held as a pool's would be."""
    out = concurrent.futures.Future()
    try:
        out.set_result(fn())
    except Exception as exc:
        out.set_exception(exc)
    return out


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_pool() -> concurrent.futures.ThreadPoolExecutor | None:
    """The one pool of usable CPUs - 1 threads behind ``side_by_side``,
    started on first need and reused; None on one CPU, where tasks run one
    after another on the calling thread. It runs a batch's later chunks
    (``reconstruct_batch``) and each SPSA iteration's minus candidate
    (``tuning.spsa_minimize``). The hot kernels (the sparse products, the
    stacked Q(A) ``matmul`` and numpy's ufuncs) release the GIL, so two
    forward passes keep two cores busy."""
    global _pool
    cpus = usable_cpus()
    if cpus < 2:
        return None
    with _POOL_LOCK:
        if _pool is None:
            _pool = concurrent.futures.ThreadPoolExecutor(
                cpus - 1, thread_name_prefix="stforecast-chunk")
        return _pool


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


def huber_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean Huber loss with threshold 1: quadratic within 1 of the target, linear beyond."""
    err = np.abs(np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64))
    return float(np.mean(np.where(err <= 1.0, 0.5 * err**2, err - 0.5)))


def evaluate(
    samples: list[Sample],
    ctx: PipelineContext,
    max_samples: int | None = None,
) -> dict:
    """Forecast a batch of windows and aggregate metrics.

    The windows run as lanes of stacked systems, in chunks that run side
    by side on the spare cores (``reconstruct_batch``), and each forecast
    is bitwise the one the window gets alone in unrolled CG.
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


def component_centrality(w_slice) -> np.ndarray:
    """The Perron vector of each connected component of a nonnegative
    symmetric slice, each normalized to sum 1 over its own stations.

    By Perron-Frobenius the eigenvector of the largest eigenvalue of a
    connected such matrix is unique and positive, so each is read off one
    dense symmetric eigensolve: one stacked ``eigh`` per component size
    (``components_by_size``), which gives each block the bits it gets alone.
    """
    w = w_slice.toarray() if sp.issparse(w_slice) else np.asarray(w_slice, dtype=np.float64)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError("expected a square matrix")
    if np.any(w < 0):
        raise ValueError("matrix must be nonnegative")
    if not np.array_equal(w, w.T):
        raise ValueError("matrix must be symmetric")
    out = np.empty(n)
    for m in components_by_size(connected_components(w, directed=False)[1]):
        v = np.abs(np.linalg.eigh(w[m[:, :, None], m[:, None, :]])[1][:, :, -1])
        if np.any(v <= 0):
            raise ValueError("Perron vector has non-positive entries")
        out[m] = v / v.sum(axis=1, keepdims=True)
    return out

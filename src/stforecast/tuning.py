"""Derivative-free tuning of the pipeline's scalar parameters.

Simultaneous-perturbation stochastic approximation over the validation Huber
loss: each iteration evaluates the loss at two random mirror points and takes
a gradient-like step. Parameters are tuned per block (shared across the
layers inside a block), which keeps the search space small.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import pipeline
from .config import PipelineConfig

DEFAULT_TUNABLES = (
    "mu_u",
    "mu_d2",
    "mu_d1",
    "rho",
    "rho_u",
    "rho_d",
    "residual",
    "merge",
    "metric_scale_u",
    "metric_scale_d",
    "cg_alpha",
    "cg_beta",
)

PARAM_FLOOR = 1e-6
SCALE_FLOOR = 1e-3
CG_ALPHA_MAX = 0.8


@dataclass
class SpsaTrace:
    iterations: list
    best_losses: list

    def best_is_monotone(self) -> bool:
        b = self.best_losses
        return all(b[i + 1] <= b[i] for i in range(len(b) - 1))


def spsa_minimize(
    loss_fn,
    theta0: np.ndarray,
    iterations: int,
    *,
    seed: int = 0,
    step: float = 0.2,
    perturb: float = 0.15,
    decay_exponent: float = 0.602,
    perturb_exponent: float = 0.101,
    project=None,
) -> tuple[np.ndarray, float, SpsaTrace]:
    """Minimize a noisy scalar loss; returns (best theta, best loss, trace).

    Steps are taken in coordinates normalized by |theta0| so heterogeneous
    parameter scales perturb proportionally. A non-finite loss rejects the
    candidate pair and halves the perturbation size from then on. Each
    iteration evaluates the loss at its two mirror candidates in turn, the
    plus side first.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    if project is None:
        project = lambda t: t
    scale = np.maximum(np.abs(theta0), 0.1)
    rng = np.random.default_rng(seed)
    stab = max(1.0, 0.1 * iterations)

    theta = theta0.copy()
    best_theta = project(theta0.copy())
    best_loss = loss_fn(best_theta)
    if not np.isfinite(best_loss):
        raise ValueError("loss is non-finite at the starting point")
    trace = SpsaTrace(iterations=[], best_losses=[best_loss])
    c_factor = 1.0
    for k in range(iterations):
        a_k = step / (k + 1 + stab) ** decay_exponent
        c_k = c_factor * perturb / (k + 1) ** perturb_exponent
        delta = rng.choice([-1.0, 1.0], size=len(theta))
        cand_plus = project(theta + c_k * scale * delta)
        cand_minus = project(theta - c_k * scale * delta)
        loss_plus = loss_fn(cand_plus)
        loss_minus = loss_fn(cand_minus)
        if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
            c_factor *= 0.5
            trace.iterations.append(
                {"iter": k, "loss_plus": loss_plus, "loss_minus": loss_minus, "rejected": True}
            )
            trace.best_losses.append(best_loss)
            continue
        for cand, loss in ((cand_plus, loss_plus), (cand_minus, loss_minus)):
            if loss < best_loss:
                best_loss = loss
                best_theta = cand.copy()
        ghat = (loss_plus - loss_minus) / (2.0 * c_k) * delta
        theta = project(theta - a_k * scale * ghat)
        trace.iterations.append(
            {"iter": k, "loss_plus": loss_plus, "loss_minus": loss_minus, "rejected": False}
        )
        trace.best_losses.append(best_loss)
    return best_theta, best_loss, trace


def _tunable_layout(config: PipelineConfig, tunables) -> list[tuple[str, int]]:
    b = config.layers.blocks
    h = config.heads.count
    sizes = {
        "mu_u": b, "mu_d2": b, "mu_d1": b, "rho": b, "rho_u": b, "rho_d": b,
        "residual": b, "merge": h, "metric_scale_u": h, "metric_scale_d": h,
        "cg_alpha": 1, "cg_beta": 1,
    }
    layout = []
    for name in tunables:
        if name not in sizes:
            raise ValueError(f"unknown tunable {name!r}")
        layout.append((name, sizes[name]))
    total = sum(s for _, s in layout)
    if total > 100:
        raise ValueError(f"tunable vector has dimension {total} > 100")
    return layout


def pack_config(config: PipelineConfig, tunables, n_stations: int) -> np.ndarray:
    """Flatten the tunable subset of a config into a vector."""
    rho0 = config.default_rho(n_stations)
    parts = []
    for name, size in _tunable_layout(config, tunables):
        if name in ("mu_u", "mu_d2", "mu_d1", "rho", "rho_u", "rho_d"):
            tab = getattr(config.layers, name)
            parts.append(np.full(size, rho0) if tab is None else tab.mean(axis=1))
        elif name == "residual":
            parts.append(np.asarray(config.layers.residual))
        elif name == "merge":
            parts.append(np.asarray(config.heads.merge))
        elif name == "metric_scale_u":
            parts.append(np.asarray(config.heads.metric_scale_u))
        elif name == "metric_scale_d":
            parts.append(np.asarray(config.heads.metric_scale_d))
        elif name == "cg_alpha":
            parts.append(np.atleast_1d(np.mean(config.solver.cg_alpha)))
        elif name == "cg_beta":
            parts.append(np.atleast_1d(np.mean(config.solver.cg_beta)))
    return np.concatenate(parts)


def unpack_config(config: PipelineConfig, tunables, theta: np.ndarray) -> PipelineConfig:
    """Rebuild a config with the tunable subset replaced by ``theta``."""
    layers = replace(config.layers)
    heads = replace(config.heads)
    solv = replace(config.solver)
    pos = 0
    m = config.layers.layers
    for name, size in _tunable_layout(config, tunables):
        vals = theta[pos : pos + size]
        pos += size
        if name in ("mu_u", "mu_d2", "mu_d1", "rho", "rho_u", "rho_d"):
            setattr(layers, name, np.repeat(vals[:, None], m, axis=1))
        elif name == "residual":
            layers.residual = vals.copy()
        elif name == "merge":
            heads.merge = vals.copy()
        elif name == "metric_scale_u":
            heads.metric_scale_u = vals.copy()
        elif name == "metric_scale_d":
            heads.metric_scale_d = vals.copy()
        elif name == "cg_alpha":
            solv.cg_alpha = float(vals[0])
        elif name == "cg_beta":
            solv.cg_beta = float(vals[0])
    return replace(config, layers=layers, heads=heads, solver=solv)


def make_projection(config: PipelineConfig, tunables):
    """Coordinate-wise feasibility projection for the packed vector."""
    segments = []
    for name, size in _tunable_layout(config, tunables):
        segments.extend([name] * size)
    names = np.asarray(segments)
    positive = np.isin(names, ("mu_u", "mu_d2", "mu_d1", "rho", "rho_u", "rho_d"))
    unit = names == "residual"
    scales = np.isin(names, ("metric_scale_u", "metric_scale_d"))
    alpha = names == "cg_alpha"
    beta = names == "cg_beta"

    def project(theta: np.ndarray) -> np.ndarray:
        out = theta.copy()
        out[positive] = np.maximum(out[positive], PARAM_FLOOR)
        out[unit] = np.clip(out[unit], 0.0, 1.0)
        out[scales] = np.maximum(out[scales], SCALE_FLOOR)
        out[alpha] = np.clip(out[alpha], 0.0, CG_ALPHA_MAX)
        out[beta] = np.maximum(out[beta], 0.0)
        return out

    return project


def tune_spsa(
    config: PipelineConfig,
    pg,
    val_samples: list,
    standardizer=None,
    tunables=DEFAULT_TUNABLES,
    iterations: int | None = None,
    eval_samples: int | None = None,
    seed: int | None = None,
    interval: float = 300.0,
) -> tuple[PipelineConfig, SpsaTrace]:
    """Tune the compressed parameter set against validation Huber loss."""
    tcfg = config.tuner
    iterations = tcfg.iterations if iterations is None else iterations
    eval_samples = tcfg.eval_samples if eval_samples is None else eval_samples
    seed = tcfg.seed if seed is None else seed
    if iterations == 0:
        return config, SpsaTrace(iterations=[], best_losses=[])
    subset = pipeline.evenly_spaced_subset(val_samples, eval_samples)
    if not subset:
        raise ValueError("no validation samples to tune against")
    base_ctx = pipeline.PipelineContext.build(
        pg, config, standardizer=standardizer, interval=interval
    )

    def loss_fn(theta: np.ndarray) -> float:
        cand = unpack_config(config, tunables, theta)
        ctx = _context_for(base_ctx, cand)
        try:
            losses = [
                pipeline.huber_loss(pipeline.reconstruct(s, ctx), s.full_truth())
                for s in subset
            ]
        except (ValueError, RuntimeError):
            return float("nan")
        return float(np.mean(losses))

    theta0 = pack_config(config, tunables, pg.n_stations)
    best_theta, _best, trace = spsa_minimize(
        loss_fn,
        theta0,
        iterations,
        seed=seed,
        step=tcfg.step,
        perturb=tcfg.perturb,
        decay_exponent=tcfg.decay_exponent,
        perturb_exponent=tcfg.perturb_exponent,
        project=make_projection(config, tunables),
    )
    return unpack_config(config, tunables, best_theta), trace


def _context_for(base_ctx: pipeline.PipelineContext, cand: PipelineConfig):
    """Candidate context reusing the skeletons/eigenmap of the base context."""
    bank = cand.heads.build_bank(
        cand.data.n_instants, cand.graph.window, cand.graph.feature_dim
    )
    return pipeline.PipelineContext(
        base_ctx.pg,
        cand,
        bank,
        base_ctx.standardizer,
        base_ctx.sskel,
        base_ctx.tskel,
        base_ctx.eigmap,
        base_ctx.feature_map,
        base_ctx.interval,
    )

"""Derivative-free tuning of the pipeline's scalar parameters.

Simultaneous-perturbation stochastic approximation over the validation Huber
loss: each iteration evaluates the loss at two random mirror points and takes
a gradient-like step. Parameters are tuned per block (shared across the
layers inside a block), which keeps the search space small. The gains decay
as a_k = step / (k + 1 + A)^0.602 and c_k = perturb / (k + 1)^0.101, the
exponents Spall recommends (IEEE Trans. Aerospace and Electronic Systems
34(3), 1998).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import pipeline
from .config import PipelineConfig
from .solver import CG_ALPHA_MAX, NumericFailure

PARAM_FLOOR = 1e-6
SCALE_FLOOR = 1e-3
DECAY_EXPONENT = 0.602
PERTURB_EXPONENT = 0.101


class Tunable(NamedTuple):
    """The config section holding the field, what sets its length in the
    packed vector (``"blocks"``, ``"heads"`` or ``"1"``), and its bounds."""

    section: str
    size: str
    lower: float
    upper: float


TUNABLES = {
    "mu_u": Tunable("layers", "blocks", PARAM_FLOOR, np.inf),
    "mu_d2": Tunable("layers", "blocks", PARAM_FLOOR, np.inf),
    "mu_d1": Tunable("layers", "blocks", PARAM_FLOOR, np.inf),
    "rho": Tunable("layers", "blocks", PARAM_FLOOR, np.inf),
    "rho_u": Tunable("layers", "blocks", PARAM_FLOOR, np.inf),
    "rho_d": Tunable("layers", "blocks", PARAM_FLOOR, np.inf),
    "residual": Tunable("layers", "blocks", 0.0, 1.0),
    "merge": Tunable("heads", "heads", -np.inf, np.inf),
    "metric_scale_u": Tunable("heads", "heads", SCALE_FLOOR, np.inf),
    "metric_scale_d": Tunable("heads", "heads", SCALE_FLOOR, np.inf),
    "cg_alpha": Tunable("solver", "1", 0.0, CG_ALPHA_MAX),
    "cg_beta": Tunable("solver", "1", 0.0, np.inf),
}


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
        a_k = step / (k + 1 + stab) ** DECAY_EXPONENT
        c_k = c_factor * perturb / (k + 1) ** PERTURB_EXPONENT
        delta = rng.choice([-1.0, 1.0], size=len(theta))
        cand_plus = project(theta + c_k * scale * delta)
        cand_minus = project(theta - c_k * scale * delta)
        loss_plus = loss_fn(cand_plus)
        loss_minus = loss_fn(cand_minus)
        rejected = not (np.isfinite(loss_plus) and np.isfinite(loss_minus))
        if rejected:
            c_factor *= 0.5
        else:
            for cand, loss in ((cand_plus, loss_plus), (cand_minus, loss_minus)):
                if loss < best_loss:
                    best_loss = loss
                    best_theta = cand.copy()
            ghat = (loss_plus - loss_minus) / (2.0 * c_k) * delta
            theta = project(theta - a_k * scale * ghat)
        trace.iterations.append(
            {"iter": k, "loss_plus": loss_plus, "loss_minus": loss_minus, "rejected": rejected}
        )
        trace.best_losses.append(best_loss)
    return best_theta, best_loss, trace


def _tunable_layout(config: PipelineConfig) -> list[tuple[str, int]]:
    counts = {"blocks": config.layers.blocks, "heads": config.heads.count, "1": 1}
    layout = [(name, counts[spec.size]) for name, spec in TUNABLES.items()]
    total = sum(s for _, s in layout)
    if total > 100:
        raise ValueError(f"tunable vector has dimension {total} > 100")
    return layout


def pack_config(config: PipelineConfig, n_stations: int) -> np.ndarray:
    """Flatten the tunables of a config into a vector, in ``TUNABLES`` order.

    Each entry is the mean of what it controls: a block's row of a per-layer
    table, or the whole CG schedule. A null rho packs as its run-time default.
    """
    rho0 = config.default_rho(n_stations)
    parts = []
    for name, size in _tunable_layout(config):
        value = getattr(getattr(config, TUNABLES[name].section), name)
        value = np.full(size, rho0) if value is None else np.asarray(value, dtype=np.float64)
        # a config of no blocks gives each per-block tunable an empty slot
        parts.append(value.reshape(size, -1).mean(axis=1) if size else np.zeros(0))
    return np.concatenate(parts)


def unpack_config(config: PipelineConfig, theta: np.ndarray) -> PipelineConfig:
    """Rebuild a config with its tunables replaced by ``theta``; a
    per-block value fills every layer of its block. A tunable with an empty
    slot (a per-block one of a model of no blocks) keeps the config's value,
    so a saved config still loads with more blocks."""
    updates = {spec.section: {} for spec in TUNABLES.values()}
    pos = 0
    for name, size in _tunable_layout(config):
        if not size:
            continue
        vals = theta[pos : pos + size].copy()
        pos += size
        spec = TUNABLES[name]
        updates[spec.section][name] = float(vals[0]) if spec.size == "1" else vals
    return replace(
        config, **{sec: replace(getattr(config, sec), **vals) for sec, vals in updates.items()}
    )


def make_projection(config: PipelineConfig):
    """Coordinate-wise feasibility projection for the packed vector: clip to ``TUNABLES`` bounds."""
    layout = _tunable_layout(config)
    sizes = [size for _, size in layout]
    lower = np.repeat([TUNABLES[name].lower for name, _ in layout], sizes)
    upper = np.repeat([TUNABLES[name].upper for name, _ in layout], sizes)
    return lambda theta: np.clip(theta, lower, upper)


def tune_spsa(
    config: PipelineConfig,
    pg,
    val_samples: list,
    standardizer=None,
    iterations: int | None = None,
    eval_samples: int | None = None,
    interval: float = 300.0,
) -> tuple[PipelineConfig, SpsaTrace]:
    """Tune the compressed parameter set against validation Huber loss.

    The search is seeded by ``config.tuner.seed``. Each loss evaluation runs
    the ``eval_samples`` validation windows as lanes of stacked systems
    (``pipeline.reconstruct_batch``). A candidate the config's rules reject
    (a ``ValueError`` from ``unpack_config`` or ``build_bank``), or whose
    forward pass raises a ``NumericFailure``, scores NaN; other errors, and
    the starting point's failure, are raised. A ``NumericFailure`` names the
    window by its position in the evaluated subset.
    """
    tcfg = config.tuner
    iterations = tcfg.iterations if iterations is None else iterations
    eval_samples = tcfg.eval_samples if eval_samples is None else eval_samples
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    if eval_samples is not None and eval_samples < 1:
        raise ValueError(f"eval_samples must be at least 1, got {eval_samples}")
    if iterations == 0:
        return config, SpsaTrace(iterations=[], best_losses=[])
    subset = pipeline.evenly_spaced_subset(val_samples, eval_samples)
    if not subset:
        raise ValueError("no validation samples to tune against")
    base_ctx = pipeline.PipelineContext.build(pg, config, standardizer, interval)

    failure = [None]  # why the latest evaluation scored NaN

    def loss_fn(theta: np.ndarray) -> float:
        failure[0] = None
        try:
            # the candidate reuses the base context's skeletons, eigenmap and feature map
            ctx = replace(base_ctx, config=unpack_config(config, theta))
            ctx.bank  # built here, where a rejected candidate scores NaN
        except ValueError as exc:  # the config's rules reject the candidate
            failure[0] = exc
            return float("nan")
        try:
            recons = pipeline.reconstruct_batch(subset, ctx)
        except NumericFailure as exc:
            failure[0] = exc
            return float("nan")
        losses = [pipeline.huber_loss(r, s.full_truth()) for s, r in zip(subset, recons)]
        return float(np.mean(losses))

    theta0 = pack_config(config, pg.n_stations)
    try:
        best_theta, _best, trace = spsa_minimize(
            loss_fn,
            theta0,
            iterations,
            seed=tcfg.seed,
            project=make_projection(config),
        )
    except ValueError:
        # a NaN score stops the search only at the starting point, right after
        # its evaluation: raise what made it NaN
        if failure[0] is not None:
            raise failure[0] from None
        raise
    return unpack_config(config, best_theta), trace


"""Unrolled ADMM for the mixed-graph reconstruction objective.

Each layer runs four sub-steps: three conjugate-gradient solves (the signal
update and the two l2-split auxiliaries) and one entrywise soft-threshold for
the l1 auxiliary, followed by the multiplier updates. The l2 terms are split
out of the signal system so each solve stays cheap and well conditioned; the
unsplit system is kept as the ``direct_unsplit`` variant for fixed-point
checks, alongside the three ablation variants. The heads of a block run
together as lanes of one block-diagonal system (``MixedGraph.stack``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import priors
from .graphs import MixedGraph

VARIANTS = ("full", "no_dgtv", "no_dglr", "undirected_temporal", "direct_unsplit")

CG_ALPHA_MAX = 0.8  # step-size clamp for the unrolled schedule
DEFAULT_CG_ITERS = 8
DEFAULT_CG_INIT = 0.08
DEFAULT_EXACT_TOL = 1e-10


class NumericFailure(RuntimeError):
    """A solve produced non-finite values; carries where it happened.

    Each caller on the way out fills in the fields it knows (CG iteration,
    then layer and step, then block and head) on the same exception and
    re-raises it, so the message names each place once. ``entry`` is the
    flat position of the first non-finite value, when one was seen; under
    lanes it tells which lane failed.
    """

    def __init__(self, message, *, block=None, head=None, layer=None, step=None,
                 iteration=None, entry=None):
        super().__init__(message)
        self.message = message
        self.block = block
        self.head = head
        self.layer = layer
        self.step = step
        self.iteration = iteration
        self.entry = entry

    def __str__(self):
        where = [
            f"{label} {value}"
            for label, value in (
                ("block", self.block),
                ("head", self.head),
                ("layer", self.layer),
                ("step", self.step),
                ("cg iteration", self.iteration),
            )
            if value is not None
        ]
        return self.message + (f" ({', '.join(where)})" if where else "")


def _first_nonfinite(vec: np.ndarray) -> int | None:
    bad = np.flatnonzero(~np.isfinite(vec))
    return int(bad[0]) if len(bad) else None


@dataclass(frozen=True)
class LayerParams:
    """Per-layer scalars: prior weights and ADMM penalties."""

    mu_u: float
    mu_d2: float
    mu_d1: float
    rho: float
    rho_u: float
    rho_d: float

    def __post_init__(self):
        if min(self.mu_u, self.mu_d2, self.mu_d1) < 0:
            raise ValueError("mu parameters must be nonnegative")
        if min(self.rho, self.rho_u, self.rho_d) <= 0:
            raise ValueError("rho parameters must be positive")


@dataclass(frozen=True, eq=False)
class CgSchedule:
    """Exact CG (classical alpha/beta until tolerance) or a fixed unrolled run."""

    mode: str
    iters: int | None = None
    alphas: np.ndarray | None = None
    betas: np.ndarray | None = None
    tol: float = DEFAULT_EXACT_TOL

    def __post_init__(self):
        if self.mode not in ("exact", "unrolled"):
            raise ValueError(f"unknown CG mode {self.mode!r}")
        if self.mode == "unrolled":
            if self.iters is None or self.iters < 1:
                raise ValueError("unrolled mode needs a positive iteration count")
            if self.alphas is None or self.betas is None:
                raise ValueError("unrolled mode needs alpha/beta schedules")
            if len(self.alphas) != self.iters or len(self.betas) != self.iters:
                raise ValueError("schedule lengths must equal the iteration count")

    @classmethod
    def exact(cls, tol: float = DEFAULT_EXACT_TOL, iters: int | None = None) -> "CgSchedule":
        return cls(mode="exact", iters=iters, tol=tol)

    @classmethod
    def unrolled(
        cls,
        iters: int = DEFAULT_CG_ITERS,
        alphas=DEFAULT_CG_INIT,
        betas=DEFAULT_CG_INIT,
    ) -> "CgSchedule":
        """Fixed-step schedule; alphas clamped to [0, 0.8], betas to >= 0."""
        alphas = np.clip(np.broadcast_to(np.asarray(alphas, dtype=float), (iters,)), 0.0, CG_ALPHA_MAX)
        betas = np.maximum(np.broadcast_to(np.asarray(betas, dtype=float), (iters,)), 0.0)
        return cls(mode="unrolled", iters=iters, alphas=alphas, betas=betas)


def cg_solve(apply_a, b: np.ndarray, x0: np.ndarray, sched: CgSchedule) -> np.ndarray:
    """Conjugate gradient on A x = b for an SPD operator.

    Exact mode iterates until ||A x - b|| <= tol (or the iteration cap);
    unrolled mode runs exactly ``sched.iters`` steps with the stored
    alpha/beta coefficients instead of the classical formulas. Unrolled mode
    takes no dot products, so on a block-diagonal A (lanes) every lane
    follows the path it would follow alone, bit for bit; exact mode runs one
    CG on the whole system, whose stopping test bounds every lane's residual.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    if x.shape != b.shape:
        raise ValueError("x0 and b must have the same shape")
    r = b - apply_a(x)
    p = r.copy()
    rr = float(r @ r)
    if sched.mode == "exact":
        cap = sched.iters if sched.iters is not None else 2 * len(b) + 10
        for k in range(cap):
            if np.sqrt(rr) <= sched.tol:
                break
            ap = apply_a(p)
            pap = float(p @ ap)
            if not np.isfinite(pap) or pap <= 0:
                raise NumericFailure(
                    "CG curvature is not positive", iteration=k, entry=_first_nonfinite(ap)
                )
            alpha = rr / pap
            x += alpha * p
            r -= alpha * ap
            rr_new = float(r @ r)
            if not np.isfinite(rr_new):
                raise NumericFailure(
                    "CG residual diverged", iteration=k, entry=_first_nonfinite(r)
                )
            p = r + (rr_new / rr) * p
            rr = rr_new
        return x
    for k in range(sched.iters):
        ap = apply_a(p)
        x = x + sched.alphas[k] * p
        r = r - sched.alphas[k] * ap
        if not np.all(np.isfinite(x)):
            raise NumericFailure("unrolled CG diverged", iteration=k, entry=_first_nonfinite(x))
        p = r + sched.betas[k] * p
    return x


@dataclass(eq=False)
class AdmmState:
    """One solver iterate; vectors all have length lanes * N * (T+S+1)."""

    x: np.ndarray
    z_u: np.ndarray
    z_d: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray
    gamma_u: np.ndarray
    gamma_d: np.ndarray

    @classmethod
    def initial(cls, x0: np.ndarray, graph: MixedGraph) -> "AdmmState":
        """Block entry: phi from the current signal, multipliers zeroed."""
        x0 = np.asarray(x0, dtype=np.float64)
        zeros = np.zeros_like(x0)
        return cls(
            x=x0.copy(),
            z_u=x0.copy(),
            z_d=x0.copy(),
            phi=graph.apply("l_rd", x0),
            gamma=zeros.copy(),
            gamma_u=zeros.copy(),
            gamma_d=zeros.copy(),
        )

    def residuals(self, graph: MixedGraph) -> dict[str, float]:
        return {
            "res_phi": float(np.linalg.norm(self.phi - graph.apply("l_rd", self.x))),
            "res_zu": float(np.linalg.norm(self.x - self.z_u)),
            "res_zd": float(np.linalg.norm(self.x - self.z_d)),
        }


def update_x(
    state: AdmmState,
    graph: MixedGraph,
    p: LayerParams,
    y: np.ndarray,
    sched: CgSchedule,
) -> np.ndarray:
    """Signal solve with the l2 terms split out (mask + temporal operator + identity)."""
    mask = graph.h_mask
    shift = 0.5 * (p.rho_u + p.rho_d)

    def apply_a(v):
        out = 0.5 * p.rho * graph.apply("call_rd", v)
        out += shift * v
        out[mask] += v[mask]
        return out

    rhs = graph.apply("l_rd_t", 0.5 * state.gamma + 0.5 * p.rho * state.phi)
    rhs += -0.5 * state.gamma_u + 0.5 * p.rho_u * state.z_u
    rhs += -0.5 * state.gamma_d + 0.5 * p.rho_d * state.z_d
    rhs += graph.lift_observed(y)
    return cg_solve(apply_a, rhs, state.x, sched)


def update_zu(state: AdmmState, graph: MixedGraph, p: LayerParams, sched: CgSchedule) -> np.ndarray:
    """Low-pass solve against the spatial Laplacian."""

    def apply_a(v):
        return p.mu_u * graph.apply("l_u", v) + 0.5 * p.rho_u * v

    rhs = 0.5 * state.gamma_u + 0.5 * p.rho_u * state.x
    return cg_solve(apply_a, rhs, state.z_u, sched)


def update_zd(state: AdmmState, graph: MixedGraph, p: LayerParams, sched: CgSchedule) -> np.ndarray:
    """Low-pass solve against the symmetrized temporal operator."""

    def apply_a(v):
        return p.mu_d2 * graph.apply("call_rd", v) + 0.5 * p.rho_d * v

    rhs = 0.5 * state.gamma_d + 0.5 * p.rho_d * state.x
    return cg_solve(apply_a, rhs, state.z_d, sched)


def update_phi(x: np.ndarray, gamma: np.ndarray, graph: MixedGraph, p: LayerParams) -> np.ndarray:
    """Entrywise soft threshold of L_r x - gamma/rho at level mu_d1/rho."""
    delta = graph.apply("l_rd", x) - gamma / p.rho
    return np.sign(delta) * np.maximum(np.abs(delta) - p.mu_d1 / p.rho, 0.0)


def update_multipliers(
    state: AdmmState,
    x_new: np.ndarray,
    phi_new: np.ndarray,
    z_u_new: np.ndarray,
    z_d_new: np.ndarray,
    graph: MixedGraph,
    p: LayerParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gamma = state.gamma + p.rho * (phi_new - graph.apply("l_rd", x_new))
    gamma_u = state.gamma_u + p.rho_u * (x_new - z_u_new)
    gamma_d = state.gamma_d + p.rho_d * (x_new - z_d_new)
    return gamma, gamma_u, gamma_d


def _check_finite(vec: np.ndarray, layer: int, step: str):
    if not np.all(np.isfinite(vec)):
        raise NumericFailure(
            "non-finite values", layer=layer, step=step, entry=_first_nonfinite(vec)
        )


def _cg_wrap(layer, step, fn, *args):
    try:
        return fn(*args)
    except NumericFailure as exc:
        exc.layer, exc.step = layer, step
        raise


def _layer_full(state, graph, p, y, sched, layer):
    state.x = _cg_wrap(layer, "x", update_x, state, graph, p, y, sched)
    _check_finite(state.x, layer, "x")
    state.z_u = _cg_wrap(layer, "z_u", update_zu, state, graph, p, sched)
    _check_finite(state.z_u, layer, "z_u")
    state.z_d = _cg_wrap(layer, "z_d", update_zd, state, graph, p, sched)
    _check_finite(state.z_d, layer, "z_d")
    state.phi = update_phi(state.x, state.gamma, graph, p)
    _check_finite(state.phi, layer, "phi")
    state.gamma, state.gamma_u, state.gamma_d = update_multipliers(
        state, state.x, state.phi, state.z_u, state.z_d, graph, p
    )


def _layer_no_dgtv(state, graph, p, y, sched, layer):
    # No l1 auxiliary: the signal system is mask + identity only.
    mask = graph.h_mask
    shift = 0.5 * (p.rho_u + p.rho_d)

    def apply_a(v):
        out = shift * v
        out[mask] += v[mask]
        return out

    rhs = graph.lift_observed(y)
    rhs -= 0.5 * (state.gamma_u + state.gamma_d)
    rhs += 0.5 * p.rho_u * state.z_u + 0.5 * p.rho_d * state.z_d
    state.x = _cg_wrap(layer, "x", cg_solve, apply_a, rhs, state.x, sched)
    _check_finite(state.x, layer, "x")
    state.z_u = _cg_wrap(layer, "z_u", update_zu, state, graph, p, sched)
    _check_finite(state.z_u, layer, "z_u")
    state.z_d = _cg_wrap(layer, "z_d", update_zd, state, graph, p, sched)
    _check_finite(state.z_d, layer, "z_d")
    state.gamma_u = state.gamma_u + p.rho_u * (state.x - state.z_u)
    state.gamma_d = state.gamma_d + p.rho_d * (state.x - state.z_d)


def _layer_no_dglr(state, graph, p, y, sched, layer):
    # No l2 temporal auxiliary; the l1 split and the spatial split remain.
    mask = graph.h_mask

    def apply_a(v):
        out = 0.5 * p.rho * graph.apply("call_rd", v)
        out += 0.5 * p.rho_u * v
        out[mask] += v[mask]
        return out

    rhs = graph.lift_observed(y)
    rhs += graph.apply("l_rd_t", 0.5 * state.gamma + 0.5 * p.rho * state.phi)
    rhs += -0.5 * state.gamma_u + 0.5 * p.rho_u * state.z_u
    state.x = _cg_wrap(layer, "x", cg_solve, apply_a, rhs, state.x, sched)
    _check_finite(state.x, layer, "x")
    state.z_u = _cg_wrap(layer, "z_u", update_zu, state, graph, p, sched)
    _check_finite(state.z_u, layer, "z_u")
    state.phi = update_phi(state.x, state.gamma, graph, p)
    _check_finite(state.phi, layer, "phi")
    state.gamma = state.gamma + p.rho * (state.phi - graph.apply("l_rd", state.x))
    state.gamma_u = state.gamma_u + p.rho_u * (state.x - state.z_u)


def _layer_undirected_temporal(state, graph, p, y, sched, layer):
    # Temporal DAG replaced by its symmetrized normalized Laplacian; the z_d
    # slot carries the temporal auxiliary z_n and gamma_d its multiplier.
    if graph.l_n is None:
        raise ValueError("graph has no undirected temporal Laplacian (l_n)")
    mask = graph.h_mask
    shift = 0.5 * (p.rho_u + p.rho_d)

    def apply_a(v):
        out = shift * v
        out[mask] += v[mask]
        return out

    rhs = graph.lift_observed(y)
    rhs -= 0.5 * (state.gamma_u + state.gamma_d)
    rhs += 0.5 * p.rho_u * state.z_u + 0.5 * p.rho_d * state.z_d
    state.x = _cg_wrap(layer, "x", cg_solve, apply_a, rhs, state.x, sched)
    _check_finite(state.x, layer, "x")
    state.z_u = _cg_wrap(layer, "z_u", update_zu, state, graph, p, sched)
    _check_finite(state.z_u, layer, "z_u")

    def apply_an(v):
        return p.mu_d2 * (graph.l_n @ v) + 0.5 * p.rho_d * v

    rhs_n = 0.5 * state.gamma_d + 0.5 * p.rho_d * state.x
    state.z_d = _cg_wrap(layer, "z_n", cg_solve, apply_an, rhs_n, state.z_d, sched)
    _check_finite(state.z_d, layer, "z_n")
    state.gamma_u = state.gamma_u + p.rho_u * (state.x - state.z_u)
    state.gamma_d = state.gamma_d + p.rho_d * (state.x - state.z_d)


def _layer_direct_unsplit(state, graph, p, y, sched, layer):
    # Solve the original coupled system each layer instead of splitting.
    mask = graph.h_mask

    def apply_a(v):
        out = p.mu_u * graph.apply("l_u", v)
        out += (p.mu_d2 + 0.5 * p.rho) * graph.apply("call_rd", v)
        out[mask] += v[mask]
        return out

    rhs = graph.apply("l_rd_t", 0.5 * p.rho * state.phi + 0.5 * state.gamma)
    rhs += graph.lift_observed(y)
    state.x = _cg_wrap(layer, "x", cg_solve, apply_a, rhs, state.x, sched)
    _check_finite(state.x, layer, "x")
    state.phi = update_phi(state.x, state.gamma, graph, p)
    _check_finite(state.phi, layer, "phi")
    state.gamma = state.gamma + p.rho * (state.phi - graph.apply("l_rd", state.x))


_LAYER_FNS = {
    "full": _layer_full,
    "no_dgtv": _layer_no_dgtv,
    "no_dglr": _layer_no_dglr,
    "undirected_temporal": _layer_undirected_temporal,
    "direct_unsplit": _layer_direct_unsplit,
}


def admm_block(
    x0: np.ndarray,
    y: np.ndarray,
    graph: MixedGraph,
    params: list[LayerParams],
    sched: CgSchedule,
    mode: str = "full",
    trace: list | None = None,
) -> np.ndarray:
    """Run one block of ADMM layers and return the final signal.

    The block re-derives phi from the incoming signal and zeroes all
    multipliers; phi and the multipliers are then carried across layers.
    When ``trace`` is a list, a per-layer record with the objective and the
    three split residual norms is appended.

    On a stacked graph (``graph.lanes`` > 1) ``x0``, ``y`` and the result
    hold one lane after another, and a trace record covers all lanes at once.
    """
    if mode not in VARIANTS:
        raise ValueError(f"unknown solver variant {mode!r}")
    if not params:
        raise ValueError("need at least one layer")
    state = AdmmState.initial(x0, graph)
    layer_fn = _LAYER_FNS[mode]
    for layer, p in enumerate(params):
        layer_fn(state, graph, p, y, sched, layer)
        if trace is not None:
            trace.append(_trace_record(layer, state, graph, p, y, mode))
    return state.x


def _trace_record(layer, state, graph, p, y, mode):
    rec = {"layer": layer}
    rec.update(state.residuals(graph))
    if mode in ("no_dgtv", "undirected_temporal"):
        rec["res_phi"] = float("nan")
    if mode in ("no_dglr", "direct_unsplit"):
        rec["res_zd"] = float("nan")
    if mode == "direct_unsplit":
        rec["res_zu"] = float("nan")
    if mode == "undirected_temporal":
        resid = y - graph.project_observed(state.x)
        rec["objective"] = (
            float(resid @ resid)
            + p.mu_u * priors.glr(state.x, graph.l_u)
            + p.mu_d2 * priors.glr(state.x, graph.l_n)
        )
    else:
        mu_d1 = 0.0 if mode == "no_dgtv" else p.mu_d1
        mu_d2 = 0.0 if mode == "no_dglr" else p.mu_d2
        weights = priors.PriorWeights(p.mu_u, mu_d2, mu_d1)
        rec["objective"] = priors.objective(state.x, y, graph, weights)
    return rec

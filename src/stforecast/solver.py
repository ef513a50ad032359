"""Unrolled ADMM for the mixed-graph reconstruction objective.

One layer function serves every solver variant. ``TERMS`` records, per
variant, which terms of the objective it keeps (the directed l1 term, a
directed or undirected temporal l2 term) and whether the l2 terms are split
out into auxiliaries. A layer runs the signal solve (CG), one CG low-pass
solve per l2 auxiliary (z_u spatial, z_d temporal), the entrywise
soft-threshold for the l1 auxiliary phi, and dual ascent on the multipliers
of the splits it has (Boyd et al., *Distributed Optimization and Statistical
Learning via ADMM*, FnT ML 2011, section 3). ``full`` splits everything, so
each solve stays cheap and well conditioned; ``direct_unsplit`` keeps the l2
terms in the signal system, for fixed-point checks; the other three are the
ablations. The heads of a block run together as lanes of one block-diagonal
system (``MixedGraph.stack``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import priors
from .graphs import MixedGraph

CG_ALPHA_MAX = 0.8  # step-size clamp for the unrolled schedule
DEFAULT_CG_ITERS = 8
DEFAULT_CG_INIT = 0.08
DEFAULT_EXACT_TOL = 1e-10


@dataclass(frozen=True)
class Terms:
    """Which parts of the objective a variant keeps, and how it solves them.

    ``l1``: the directed l1 term (DGTV), split out as phi = L_r x.
    ``temporal``: the temporal l2 operator: ``"call_rd"`` for the directed
    L_r'L_r (DGLR), ``"l_n"`` for the undirected normalized Laplacian, None
    to drop the term.
    ``split``: the l2 terms (spatial GLR and temporal) get auxiliaries z_u
    and z_d; unsplit, they stay in the signal system.
    """

    l1: bool
    temporal: str | None
    split: bool

    def __post_init__(self):
        if not self.split and self.temporal == "l_n":
            raise ValueError("the unsplit signal system takes only the directed temporal term")


TERMS = {
    "full": Terms(l1=True, temporal="call_rd", split=True),
    "no_dgtv": Terms(l1=False, temporal="call_rd", split=True),
    "no_dglr": Terms(l1=True, temporal=None, split=True),
    "undirected_temporal": Terms(l1=False, temporal="l_n", split=True),
    "direct_unsplit": Terms(l1=True, temporal="call_rd", split=False),
}
VARIANTS = tuple(TERMS)


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
    terms: Terms = TERMS["full"],
) -> np.ndarray:
    """Signal solve: the mask plus one system term and one rhs part per active term.

    The l1 split adds 0.5 rho L_r'L_r; a split l2 term adds its penalty times
    the identity, an unsplit one its prior (the temporal prior then joins the
    L_r'L_r coefficient). The rhs sums the l1, spatial and temporal parts and
    H'y in that order.
    """
    mask = graph.h_mask
    c_rd = 0.5 * p.rho if terms.l1 else 0.0
    if terms.split:
        shift = 0.5 * (p.rho_u + p.rho_d) if terms.temporal else 0.5 * p.rho_u
    elif terms.temporal:
        c_rd += p.mu_d2

    def apply_a(v):
        out = shift * v if terms.split else p.mu_u * graph.apply("l_u", v)
        if c_rd:
            out += c_rd * graph.apply("call_rd", v)
        out[mask] += v[mask]
        return out

    parts = []
    if terms.l1:
        parts.append(graph.apply("l_rd_t", 0.5 * state.gamma + 0.5 * p.rho * state.phi))
    if terms.split:
        parts.append(-0.5 * state.gamma_u + 0.5 * p.rho_u * state.z_u)
        if terms.temporal:
            parts.append(-0.5 * state.gamma_d + 0.5 * p.rho_d * state.z_d)
    parts.append(graph.lift_observed(y))
    return cg_solve(apply_a, sum(parts[1:], parts[0]), state.x, sched)


def update_zu(state: AdmmState, graph: MixedGraph, p: LayerParams, sched: CgSchedule) -> np.ndarray:
    """Low-pass solve against the spatial Laplacian."""

    def apply_a(v):
        return p.mu_u * graph.apply("l_u", v) + 0.5 * p.rho_u * v

    rhs = 0.5 * state.gamma_u + 0.5 * p.rho_u * state.x
    return cg_solve(apply_a, rhs, state.z_u, sched)


def update_zd(
    state: AdmmState, graph: MixedGraph, p: LayerParams, sched: CgSchedule, temporal: str = "call_rd"
) -> np.ndarray:
    """Low-pass solve against the temporal operator: L_r'L_r, or ``l_n`` when undirected."""

    def apply_a(v):
        tv = graph.l_n @ v if temporal == "l_n" else graph.apply(temporal, v)
        return p.mu_d2 * tv + 0.5 * p.rho_d * v

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
    terms: Terms = TERMS["full"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual ascent on each split the variant has; the others keep their multiplier."""
    gamma, gamma_u, gamma_d = state.gamma, state.gamma_u, state.gamma_d
    if terms.l1:
        gamma = gamma + p.rho * (phi_new - graph.apply("l_rd", x_new))
    if terms.split:
        gamma_u = gamma_u + p.rho_u * (x_new - z_u_new)
        if terms.temporal:
            gamma_d = gamma_d + p.rho_d * (x_new - z_d_new)
    return gamma, gamma_u, gamma_d


def _step(layer: int, name: str, fn, *args) -> np.ndarray:
    """Run one sub-step; a failure in it, or a non-finite result, names layer and step."""
    try:
        out = fn(*args)
    except NumericFailure as exc:
        exc.layer, exc.step = layer, name
        raise
    if not np.all(np.isfinite(out)):
        raise NumericFailure("non-finite values", layer=layer, step=name, entry=_first_nonfinite(out))
    return out


def _layer(state: AdmmState, graph: MixedGraph, p: LayerParams, y, sched, layer: int, terms: Terms):
    state.x = _step(layer, "x", update_x, state, graph, p, y, sched, terms)
    if terms.split:
        state.z_u = _step(layer, "z_u", update_zu, state, graph, p, sched)
        if terms.temporal:
            name = "z_n" if terms.temporal == "l_n" else "z_d"
            state.z_d = _step(layer, name, update_zd, state, graph, p, sched, terms.temporal)
    if terms.l1:
        state.phi = _step(layer, "phi", update_phi, state.x, state.gamma, graph, p)
    state.gamma, state.gamma_u, state.gamma_d = update_multipliers(
        state, state.x, state.phi, state.z_u, state.z_d, graph, p, terms
    )


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
    terms = TERMS.get(mode)
    if terms is None:
        raise ValueError(f"unknown solver variant {mode!r}")
    if terms.temporal == "l_n" and graph.l_n is None:
        raise ValueError("graph has no undirected temporal Laplacian (l_n)")
    if not params:
        raise ValueError("need at least one layer")
    state = AdmmState.initial(x0, graph)
    for layer, p in enumerate(params):
        _layer(state, graph, p, y, sched, layer, terms)
        if trace is not None:
            trace.append(_trace_record(layer, state, graph, p, y, terms))
    return state.x


def _trace_record(layer, state, graph, p, y, terms):
    """Objective and split residuals after one layer; NaN for the splits the variant drops."""
    rec = {"layer": layer}
    rec.update(state.residuals(graph))
    if not terms.l1:
        rec["res_phi"] = float("nan")
    if not (terms.split and terms.temporal):
        rec["res_zd"] = float("nan")
    if not terms.split:
        rec["res_zu"] = float("nan")
    weights = priors.PriorWeights(
        p.mu_u, p.mu_d2 if terms.temporal == "call_rd" else 0.0, p.mu_d1 if terms.l1 else 0.0
    )
    rec["objective"] = priors.objective(state.x, y, graph, weights)
    if terms.temporal == "l_n":
        rec["objective"] += p.mu_d2 * priors.glr(state.x, graph.l_n)
    return rec

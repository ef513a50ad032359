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
ablations. The heads of a block, of one window or of several, run together
as lanes of one block-diagonal system (a lane-stacked ``MixedGraph``). Each
CG solve applies one folded matrix, coef * operator + diag(shift [+ H'H]),
built once per distinct set of layer scalars in a block.

Unrolled CG with a fixed schedule is a fixed polynomial Q(A) of its system:
x0 + Q(A)(b - A x0) (Monga, Li and Eldar, *Algorithm Unrolling*, IEEE SPM
2021). A fold that enough of a block's layers share gets Q(A) as one sparse
matrix, found by column probing over its connected components (Curtis,
Powell and Reid, IMA J. Appl. Math. 1974) with the steps run backwards, so
each of its solves takes two sparse products instead of the recurrence's
``iters`` (one for the starting residual, one for every step but the last).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import priors
from .graphs import MixedGraph

CG_ALPHA_MAX = 0.8  # step-size clamp for the unrolled schedule
DEFAULT_CG_ITERS = 8
DEFAULT_CG_INIT = 0.08
DEFAULT_EXACT_TOL = 1e-10

# Windows run as lanes of one system while windows x heads x stations x
# instants stays within this many nodes (``pipeline.reconstruct_batch``), and
# only a folded system of at most this many nodes may be applied as its
# unrolled polynomial (``block_folds``). One bound for both keeps a stacked
# window on the path it takes alone, so its result stays bitwise the same.
# Sized by ``scripts/lane_budget_sweep.py`` (table in README) for stacking;
# the polynomial measured no slower than the recurrence up to 46 080 desk
# nodes, so the bound is not where it stops paying (README, Layout).
LANE_NODE_BUDGET = 12000


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
    then layer and step, then block, window and head) on the same exception
    and re-raises it, so the message names each place once. ``entry`` is the
    flat position of the first non-finite value, when one was seen; under
    lanes it tells which lane failed.
    """

    def __init__(self, message, *, block=None, window=None, head=None, layer=None, step=None,
                 iteration=None, entry=None):
        super().__init__(message)
        self.message = message
        self.block = block
        self.window = window
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
                ("window", self.window),
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
        if iters < 1:
            raise ValueError("unrolled mode needs a positive iteration count")
        alphas = np.clip(np.broadcast_to(np.asarray(alphas, dtype=float), (iters,)), 0.0, CG_ALPHA_MAX)
        betas = np.maximum(np.broadcast_to(np.asarray(betas, dtype=float), (iters,)), 0.0)
        return cls(mode="unrolled", iters=iters, alphas=alphas, betas=betas)


def cg_solve(apply_a, b: np.ndarray, x0: np.ndarray, sched: CgSchedule,
             apply_g=None) -> np.ndarray:
    """Conjugate gradient on A x = b for an SPD operator.

    Exact mode iterates until ||A x - b|| <= tol (or the iteration cap);
    unrolled mode runs exactly ``sched.iters`` steps with the stored
    alpha/beta coefficients instead of the classical formulas, ``sched.iters``
    products by A in all: the starting residual, then every step but the
    last, which moves only x. Unrolled mode takes no dot products, so on a
    block-diagonal A (lanes) every lane follows the path it would follow
    alone, bit for bit; exact mode runs one CG on the whole system, whose
    stopping test bounds every lane's residual.

    ``apply_g``, in unrolled mode, applies the schedule's polynomial Q(A)
    (``polynomial_operator``): the result is then x0 + Q(A)(b - A x0), two
    products in all. It agrees with the step-by-step recurrence to rounding,
    and can stay finite where the recurrence's own iterates overflow; when it
    is not finite, the recurrence runs with a check per step, names the
    failing iteration and entry, and its result is returned if it finds no
    failure.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    if x.shape != b.shape:
        raise ValueError("x0 and b must have the same shape")
    r = b - apply_a(x)
    if sched.mode == "unrolled":
        if apply_g is not None:
            out = x + apply_g(r)
            if np.all(np.isfinite(out)):
                return out
            return _unrolled_steps(apply_a, x, r, sched, check=True)
        out = _unrolled_steps(apply_a, x, r, sched, check=False)
        # a non-finite entry of x stays non-finite through x + alpha p, so one
        # check at the end sees every failure; the checked re-run names its step
        if not np.all(np.isfinite(out)):
            _unrolled_steps(apply_a, x, r, sched, check=True)
        return out
    p = r.copy()
    rr = float(r @ r)
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


def _unrolled_steps(apply_a, x0: np.ndarray, r0: np.ndarray, sched: CgSchedule,
                    check: bool) -> np.ndarray:
    """The fixed-step CG iterations from x0 and its residual r0, which stay unchanged.

    Every step but the last takes one product by A; the last only moves x,
    so a run of ``iters`` steps takes ``iters`` - 1 products. With
    ``check``, a non-finite iterate raises ``NumericFailure`` naming the
    iteration and the first non-finite entry.
    """
    x, r, p = x0.copy(), r0.copy(), r0.copy()
    scaled = np.empty_like(x)
    last = sched.iters - 1
    for k, (alpha, beta) in enumerate(zip(sched.alphas.tolist(), sched.betas.tolist())):
        x += np.multiply(alpha, p, out=scaled)
        if check and not np.all(np.isfinite(x)):
            raise NumericFailure("unrolled CG diverged", iteration=k, entry=_first_nonfinite(x))
        if k == last:  # the residual would only feed a next direction
            break
        r -= np.multiply(alpha, apply_a(p), out=scaled)
        p *= beta
        p += r
    return x


def polynomial_operator(apply_a, labels: np.ndarray, sched: CgSchedule) -> sp.csr_matrix:
    """Q(A) of an unrolled schedule, x_K = x0 + Q(A) r0, as a CSR matrix.

    ``labels`` gives the connected component of each node of A (as from
    ``scipy.sparse.csgraph.connected_components``). Q(A) couples only nodes
    of one component, so Q(A) applied to an (n x m) probe finds it, m being
    the largest component's size: column j of the probe holds a 1 at the
    j-th node (in index order) of every component. Each row of the result
    stores its whole component, in ascending column order, with an int32
    pattern.

    The forward steps give Q(A) = sum_k alpha_k P_k(A), P_k(A) r0 being the
    k-th search direction. The probe runs that sum in reverse, which needs
    no x and no r: from s = v = alpha_{K-1} I, each k = K-2 .. 0 sets
    v <- alpha_k (I - A s) + beta_k v and then s <- s + v, ending at
    s = Q(A). That is ``iters`` - 1 products by A, as many as the forward
    steps take, but four passes over the probe per step where they take six;
    the identity is added at the probe's n ones. Both orders agree to rounding.
    """
    labels = np.asarray(labels)
    n = len(labels)
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")  # by component, then by index
    rank = np.empty(n, dtype=np.intp)
    rank[members] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    ones = (np.arange(n), rank)
    alphas, betas = sched.alphas.tolist(), sched.betas.tolist()
    s = np.zeros((n, sizes.max()))
    s[ones] = alphas[-1]
    v = s.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # cg_solve checks what it applies
        for alpha, beta in zip(alphas[-2::-1], betas[-2::-1]):
            step = apply_a(s)
            step *= -alpha
            v *= beta
            v += step
            v[ones] += alpha
            s += v
    # row i keeps columns 0 .. size - 1 of its probe row: its component's nodes by rank
    by_rank = np.zeros((len(sizes), s.shape[1]), dtype=np.int32)
    by_rank[labels, rank] = np.arange(n)
    row_len = sizes[labels]
    keep = np.arange(s.shape[1]) < row_len[:, None]
    indptr = np.concatenate([[0], np.cumsum(row_len)]).astype(np.int32)
    return sp.csr_matrix((s[keep], by_rank[labels][keep], indptr), shape=(n, n))


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


def folded_system(
    graph: MixedGraph,
    ops: tuple[tuple[str, float], ...],
    shift: float,
    observed: bool = False,
    memo: dict | None = None,
) -> sp.csr_matrix:
    """The CG matrix sum(coef * op) + shift I (+ H'H when ``observed``) as one CSR matrix.

    ``ops`` pairs operator names of ``graph`` with coefficients. One operator
    that stores every diagonal entry gives a new ``data`` array on its own
    ``indices`` and ``indptr``; otherwise the terms are added by scipy (its
    sparse products drop exact zeros, so even ``call_rd`` may lack a diagonal
    entry). ``memo``, a dict kept for one graph, returns the matrix it
    already folded for the same scalars.
    """
    return _system(graph, (ops, shift, observed), memo)[0]


def _system(graph: MixedGraph, key: tuple, memo: dict | None):
    """(fold, Q(A) or None) of the system ``key`` = (ops, shift, observed), kept in ``memo``."""
    if memo is None:
        memo = {}
    if key not in memo:
        memo[key] = (_fold(graph, *key), None)
    return memo[key]


def block_folds(graph: MixedGraph, params: list[LayerParams], terms: Terms,
                sched: CgSchedule) -> dict:
    """The memo of every CG system a block solves: its fold, and Q(A) where reuse pays.

    A system gets its polynomial (``polynomial_operator``) when the schedule
    is unrolled, the system has at most ``LANE_NODE_BUDGET`` nodes, and at
    least m of the block's layers solve it, m being the size of its largest
    connected component: the probe costs ``iters`` - 1 products on m
    columns, and each solve then takes 2 products instead of ``iters``,
    saving ``iters`` - 2. The rule was the break-even while the recurrence
    took ``iters`` + 1, so it now admits a system a few solves early.
    """
    uses = Counter(key for p in params for key in _layer_systems(terms, p))
    folds = {}
    for key, count in uses.items():
        a, g = _fold(graph, *key), None
        if sched.mode == "unrolled" and graph.n_nodes <= LANE_NODE_BUDGET:
            labels = connected_components(a, directed=False)[1]
            if np.bincount(labels).max() <= count:
                g = polynomial_operator(a.dot, labels, sched)
        folds[key] = (a, g)
    return folds


def _sub_solve(graph, key, rhs, x0, sched, folds):
    a, g = _system(graph, key, folds)
    return cg_solve(a.dot, rhs, x0, sched, None if g is None else g.dot)


def _fold(graph: MixedGraph, ops, shift: float, observed: bool) -> sp.csr_matrix:
    diag = np.full(graph.n_nodes, shift)
    if observed:
        diag[graph.h_mask] += 1.0
    if len(ops) == 1:
        name, coef = ops[0]
        op = getattr(graph, name)
        rows = np.repeat(np.arange(graph.n_nodes), np.diff(op.indptr))
        on_diag = np.flatnonzero(op.indices == rows)
        if np.array_equal(rows[on_diag], np.arange(graph.n_nodes)):  # one per row
            data = coef * op.data
            data[on_diag] += diag
            return sp.csr_matrix((data, op.indices, op.indptr), shape=op.shape)
    folded = sp.diags(diag, format="csr")
    for name, coef in ops:
        folded = folded + coef * getattr(graph, name)
    return folded.tocsr()


def signal_system(terms: Terms, p: LayerParams) -> tuple[tuple[tuple[str, float], ...], float]:
    """Operators with coefficients, and the identity shift, of the signal system less H'H.

    The l1 split adds 0.5 rho L_r'L_r; a split l2 term adds its penalty times
    the identity, an unsplit one its prior (the temporal prior then joins the
    L_r'L_r coefficient).
    """
    c_rd = 0.5 * p.rho if terms.l1 else 0.0
    ops = ()
    shift = 0.0
    if terms.split:
        shift = 0.5 * (p.rho_u + p.rho_d) if terms.temporal else 0.5 * p.rho_u
    else:
        ops = (("l_u", p.mu_u),)
        if terms.temporal:
            c_rd += p.mu_d2
    if c_rd:
        ops += (("call_rd", c_rd),)
    return ops, shift


def _zu_system(p: LayerParams) -> tuple:
    return (("l_u", p.mu_u),), 0.5 * p.rho_u, False


def _zd_system(p: LayerParams, temporal: str) -> tuple:
    return ((temporal, p.mu_d2),), 0.5 * p.rho_d, False


def _layer_systems(terms: Terms, p: LayerParams) -> list[tuple]:
    """The (ops, shift, observed) of each CG system one layer solves: x, then z_u and z_d."""
    systems = [(*signal_system(terms, p), True)]
    if terms.split:
        systems.append(_zu_system(p))
        if terms.temporal:
            systems.append(_zd_system(p, terms.temporal))
    return systems


def update_x(
    state: AdmmState,
    graph: MixedGraph,
    p: LayerParams,
    hty: np.ndarray,
    sched: CgSchedule,
    terms: Terms = TERMS["full"],
    folds: dict | None = None,
) -> np.ndarray:
    """Signal solve: the mask plus one system term and one rhs part per active term.

    The system is H'H plus ``signal_system``. The rhs sums the l1, spatial
    and temporal parts and ``hty``, the observations lifted to full length
    (H'y), in that order. ``folds`` memoises the folded system and its
    polynomial (see ``folded_system`` and ``block_folds``).
    """
    parts = []
    if terms.l1:
        parts.append(graph.apply("l_rd_t", 0.5 * state.gamma + 0.5 * p.rho * state.phi))
    if terms.split:
        parts.append(-0.5 * state.gamma_u + 0.5 * p.rho_u * state.z_u)
        if terms.temporal:
            parts.append(-0.5 * state.gamma_d + 0.5 * p.rho_d * state.z_d)
    parts.append(hty)
    key = (*signal_system(terms, p), True)
    return _sub_solve(graph, key, sum(parts[1:], parts[0]), state.x, sched, folds)


def update_zu(
    state: AdmmState,
    graph: MixedGraph,
    p: LayerParams,
    sched: CgSchedule,
    folds: dict | None = None,
) -> np.ndarray:
    """Low-pass solve against the spatial Laplacian."""
    rhs = 0.5 * state.gamma_u + 0.5 * p.rho_u * state.x
    return _sub_solve(graph, _zu_system(p), rhs, state.z_u, sched, folds)


def update_zd(
    state: AdmmState,
    graph: MixedGraph,
    p: LayerParams,
    sched: CgSchedule,
    temporal: str = "call_rd",
    folds: dict | None = None,
) -> np.ndarray:
    """Low-pass solve against the temporal operator: L_r'L_r, or ``l_n`` when undirected."""
    rhs = 0.5 * state.gamma_d + 0.5 * p.rho_d * state.x
    return _sub_solve(graph, _zd_system(p, temporal), rhs, state.z_d, sched, folds)


def update_phi(l_rd_x: np.ndarray, gamma: np.ndarray, p: LayerParams) -> np.ndarray:
    """Entrywise soft threshold of L_r x - gamma/rho at level mu_d1/rho; ``l_rd_x`` is L_r x."""
    delta = l_rd_x - gamma / p.rho
    return np.sign(delta) * np.maximum(np.abs(delta) - p.mu_d1 / p.rho, 0.0)


def update_multipliers(
    state: AdmmState,
    x_new: np.ndarray,
    phi_new: np.ndarray,
    z_u_new: np.ndarray,
    z_d_new: np.ndarray,
    l_rd_x: np.ndarray | None,
    p: LayerParams,
    terms: Terms = TERMS["full"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual ascent on each split the variant has; the others keep their multiplier.

    ``l_rd_x`` is L_r ``x_new``, needed only with the l1 term.
    """
    gamma, gamma_u, gamma_d = state.gamma, state.gamma_u, state.gamma_d
    if terms.l1:
        gamma = gamma + p.rho * (phi_new - l_rd_x)
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


def _layer(state: AdmmState, graph: MixedGraph, p: LayerParams, hty, sched, layer: int,
           terms: Terms, folds: dict):
    state.x = _step(layer, "x", update_x, state, graph, p, hty, sched, terms, folds)
    if terms.split:
        state.z_u = _step(layer, "z_u", update_zu, state, graph, p, sched, folds)
        if terms.temporal:
            name = "z_n" if terms.temporal == "l_n" else "z_d"
            state.z_d = _step(layer, name, update_zd, state, graph, p, sched, terms.temporal, folds)
    l_rd_x = None
    if terms.l1:
        l_rd_x = graph.apply("l_rd", state.x)
        state.phi = _step(layer, "phi", update_phi, l_rd_x, state.gamma, p)
    state.gamma, state.gamma_u, state.gamma_d = update_multipliers(
        state, state.x, state.phi, state.z_u, state.z_d, l_rd_x, p, terms
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
    hty = graph.lift_observed(y)
    folds = block_folds(graph, params, terms, sched)
    for layer, p in enumerate(params):
        _layer(state, graph, p, hty, sched, layer, terms, folds)
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

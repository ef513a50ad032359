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
2021). A fold that enough of a block's layers share gets Q(A) built once,
as dense blocks over its connected components with the steps run backwards,
so each of its solves takes one sparse product and one batched dense product
instead of the recurrence's ``iters`` sparse products (one for the starting
residual, one for every step but the last).

A fold (``Fold``) is a ``graphs.Pattern`` and a ``data`` array. A fold of
one operator fills a new ``data`` array on that operator's pattern, whose
diagonal positions, components, block map and band the graph's plan worked
out once; a block only fills values. A fold applies itself by calling one
of scipy's matrix-vector kernels directly: no ``csr_matrix`` is built and
no dispatch is paid per product; ``Fold.matrix`` is its CSR view. The
temporal systems (x and z_d, or z_n) that the recurrence applies are bands
of 2W + 1 diagonals on a planned graph, and hold their values as diagonals
for scipy's DIA kernel, which reads no column index per value (Saad,
*Iterative Methods for Sparse Linear Systems*, 2003, section 3.4). Every
other fold runs the CSR kernel that ``A @ v`` runs. On a finite vector both
give the CSR product bit for bit (``Fold.dot``). ``MixedGraph.apply`` (L_r x
and L_r' v, once per layer) stays on scipy's ``@``, the product the
benchmark's tracer counts; once that tracer hooks one product function,
both can run on the kernels.

A solve returns a finite result or raises ``NumericFailure`` (from
``graphs``, importable here), naming its CG iteration when it has one; the
layer adds the sub-step and the block the lane.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
# the kernels of scipy's CSR and DIA ``A @ v``
from scipy.sparse._sparsetools import csr_matvec, dia_matvec

from . import priors
from .graphs import ComponentBlocks, MixedGraph, NumericFailure, Pattern

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
# it also bounds a polynomial's memory, n x m values for n nodes and a
# largest component of m (README, Layout).
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


def _first_nonfinite(vec: np.ndarray) -> int | None:
    bad = np.flatnonzero(~np.isfinite(vec))
    return int(bad[0]) if len(bad) else None


def _finite(vec: np.ndarray) -> np.ndarray:
    """``vec``, or a ``NumericFailure`` naming its first non-finite entry."""
    if not np.isfinite(vec).all():
        raise NumericFailure("non-finite values", entry=_first_nonfinite(vec))
    return vec


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
    and can stay finite where the recurrence's own iterates overflow.

    The result is finite, or the solve raises ``NumericFailure``. An
    unrolled result is checked once, at the end: a non-finite entry of x
    stays non-finite through x + alpha p, so the recurrence cannot fail
    unseen. When the result is not finite, the recurrence runs again with a
    check per step, names the failing iteration and entry, and its result is
    returned if it finds no failure. Exact mode checks its curvature and
    residual at every step, and the x it returns.
    """
    b = np.asarray(b, dtype=np.float64)
    unrolled = sched.mode == "unrolled"
    # only exact mode moves x in place; unrolled mode reads x0 as given when
    # it is a contiguous float64 array
    x = np.ascontiguousarray(x0, dtype=np.float64) if unrolled else np.array(x0, dtype=np.float64)
    if x.shape != b.shape:
        raise ValueError("x0 and b must have the same shape")
    r = b - apply_a(x)
    if unrolled:
        if apply_g is None:
            out = _unrolled_steps(apply_a, x, r, sched, check=False)
        else:
            out = x + apply_g(r)
        if np.isfinite(out).all():
            return out
        return _unrolled_steps(apply_a, x, r, sched, check=True)
    p = r.copy()
    rr = float(r @ r)
    cap = sched.iters if sched.iters is not None else 2 * len(b) + 10
    for k in range(cap):
        if np.sqrt(rr) <= sched.tol:
            break
        ap = apply_a(p)
        pap = float(p @ ap)
        if not np.isfinite(pap) or pap <= 0:
            # a non-finite direction names its own entry, not one of A p,
            # which a banded fold's padding can move into the lane before
            bad = _first_nonfinite(p)
            raise NumericFailure(
                "CG curvature is not positive", iteration=k,
                entry=_first_nonfinite(ap) if bad is None else bad,
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
    return _finite(x)


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


def polynomial_operator(blocks: ComponentBlocks, sched: CgSchedule) -> ComponentBlocks:
    """Q(A) of an unrolled schedule, x_K = x0 + Q(A) r0, as dense component blocks.

    ``blocks`` holds A over its connected components (``graphs.ComponentBlocks``).
    Q(A) couples only nodes of one component, so it is kept the same way:
    one (C, k, k) stack per component size k, sum(k^2) values in all.

    The forward steps give Q(A) = sum_k alpha_k P_k(A), P_k(A) r0 being the
    k-th search direction. The build runs that sum in reverse, which needs
    no x and no r: from s = v = alpha_{K-1} I, each k = K-2 .. 0 sets
    v <- alpha_k (I - A s) + beta_k v and then s <- s + v, ending at
    s = Q(A): ``iters`` - 1 steps of one batched matmul per stack. Both
    orders agree to rounding.
    """
    alphas, betas = sched.alphas.tolist(), sched.betas.tolist()
    q = []
    with np.errstate(over="ignore", invalid="ignore"):  # cg_solve checks what it applies
        for blk in blocks.blocks:
            c, k, _ = blk.shape
            s = np.zeros_like(blk)
            s.reshape(c, k * k)[:, :: k + 1] = alphas[-1]  # each diagonal, as a strided view
            v, step = s.copy(), np.empty_like(blk)
            for alpha, beta in zip(alphas[-2::-1], betas[-2::-1]):
                np.matmul(blk, s, out=step)
                step *= -alpha
                v *= beta
                v += step
                v.reshape(c, k * k)[:, :: k + 1] += alpha
                s += v
            q.append(s)
    return replace(blocks, blocks=tuple(q))


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


@dataclass(frozen=True, eq=False)
class Fold:
    """A folded CG system: the values ``data`` in ``pattern``, applied by one of scipy's kernels.

    ``data`` holds one value per stored entry, in the pattern's order, and
    ``dot`` runs the CSR kernel that ``pattern.matrix(data) @ v`` runs; or,
    on a pattern with a ``band``, the band's diagonals, a (len(offsets), n)
    array, and ``dot`` runs scipy's DIA kernel. Either way it builds no
    matrix and pays no dispatch per product; ``matrix`` is the CSR view.
    """

    pattern: Pattern
    data: np.ndarray

    def __post_init__(self):
        band = self.pattern.band
        if self.data.ndim == 2 and band is not None:
            shape = (len(band.offsets), self.pattern.n)
            what = f"{shape[0]} diagonals of {shape[1]}"
        else:
            shape = (self.pattern.nnz,)
            what = f"{shape[0]} entries"
        if self.data.dtype != np.float64 or self.data.shape != shape:
            raise ValueError(f"a fold of {what} needs as many float64 values, "
                             f"got {self.data.dtype} {self.data.shape}")

    def matrix(self) -> sp.csr_matrix:
        data = self.data
        if data.ndim == 2:  # the band's diagonals, gathered into entry order
            data = data[self.pattern.band.which, self.pattern.indices]
        return self.pattern.matrix(data)

    def dot(self, v: np.ndarray) -> np.ndarray:
        """``matrix() @ v``, bit for bit when ``v`` is finite.

        The CSR kernel is the one scipy's product runs. The DIA kernel adds
        each row's terms diagonal by diagonal, and the offsets ascend, so in
        the CSR kernel's column order, from the same +0.0. Its padding adds
        0.0 * v[j], a signed zero, to a partial sum that is never -0.0 (a
        sum from +0.0 is -0.0 only if both terms are), which changes no bit.

        A non-finite v[j] is another matter: 0.0 * inf is NaN, and the
        padding carries it into rows that store nothing in column j, at a
        lane boundary into the lane before. A failure still names the lane
        that failed, because ``cg_solve`` never takes the place of a failure
        from the product of such a vector: x0 is finite by its contract; the
        recurrence checks x, which a non-finite direction makes non-finite,
        before it applies the direction; exact CG checks each residual, and
        a direction that fails its curvature check names its own first
        non-finite entry; and the recurrence's unchecked first pass only
        decides finite or not, where both kernels agree.

        The kernels check no bounds, so the vector, and the index dtypes the
        CSR kernel dispatches on, are checked first.
        """
        indptr, indices = self.pattern.indptr, self.pattern.indices
        n = len(indptr) - 1
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == (n,)
                and v.flags.c_contiguous):
            raise ValueError(f"a fold of {n} nodes applies a C-contiguous float64 vector of "
                             f"length {n}, got {getattr(v, 'dtype', type(v))} {np.shape(v)}")
        out = np.zeros(n)
        if self.data.ndim == 2:
            offsets = self.pattern.band.offsets
            dia_matvec(n, n, len(offsets), n, offsets, self.data, v, out)
            return out
        if indptr.dtype != indices.dtype:
            raise ValueError(f"fold index arrays differ in dtype: {indptr.dtype}, {indices.dtype}")
        csr_matvec(n, n, indptr, indices, self.data, v, out)
        return out


def folded_system(graph: MixedGraph, ops: tuple[tuple[str, float], ...], shift: float,
                  observed: bool, on_band: bool = False) -> Fold:
    """The CG matrix sum(coef * op) + shift I (+ H'H when ``observed``) as one ``Fold``.

    ``ops`` pairs operator names of ``graph`` with coefficients. One operator
    whose pattern stores every diagonal entry gives a new ``data`` array on
    that operator's pattern, coef times its values plus the diagonal;
    otherwise the terms are added by scipy (its sparse products drop exact
    zeros, so even ``call_rd`` may lack a diagonal entry). ``Fold.matrix``
    is its CSR view.

    With ``on_band``, a fold on a pattern with a ``band`` holds the band's
    diagonals: the operator's values are scattered into them
    (``Pattern.band_values``), scaled in place and given the diagonal on the
    main diagonal's row, the same operations as in entry order, and no
    entry-order copy is made.
    """
    diag = np.full(graph.n_nodes, shift)
    if observed:
        diag[graph.h_mask] += 1.0
    if len(ops) == 1:
        name, coef = ops[0]
        pattern = graph.patterns[name]
        if pattern.diagonal is not None:
            values = getattr(graph, name).data
            if on_band and pattern.band is not None:
                data = pattern.band_values(values)
                data *= coef
                data[pattern.band.zero] += diag
            else:
                data = coef * values
                data[pattern.diagonal] += diag
            return Fold(pattern, data)
    folded = sp.diags(diag, format="csr")
    for name, coef in ops:
        folded = folded + coef * getattr(graph, name)
    folded = folded.tocsr()
    return Fold(Pattern.of(folded), folded.data)


def block_folds(graph: MixedGraph, params: list[LayerParams], terms: Terms,
                sched: CgSchedule) -> dict:
    """The plan of every CG system a block solves: its fold, and Q(A) where reuse pays.

    Keys are the (ops, shift, observed) of ``_layer_systems``, values
    (``Fold``, Q(A) or None). A fold that the recurrence applies, on a
    pattern with a band (a planned temporal one), holds its band's
    diagonals and runs the DIA kernel; a fold applied as Q(A) takes one
    product per solve, which would not repay the scatter, and keeps its
    values in entry order, which the polynomial's fill reads.

    A system gets its polynomial (``polynomial_operator``) when the schedule
    is unrolled, the system has at most ``LANE_NODE_BUDGET`` nodes, and at
    least m of the block's layers solve it, m being the size of its largest
    connected component. Each solve then takes 2 products instead of
    ``iters``; the build takes ``iters`` - 1 batched matmuls of the
    component blocks, cheaper than the m columns of products by A that the
    rule was first sized for. The components and the blocks' scatter map are
    the fold pattern's (``graphs.Pattern``), worked out once per pattern: a
    fold of one operator of a planned graph shares its plan's; a sum of
    operators (the unsplit signal system) works out its own.
    """
    uses = Counter(key for p in params for key in _layer_systems(terms, p))

    def polynomial(pattern: Pattern, count: int) -> bool:
        return (sched.mode == "unrolled" and graph.n_nodes <= LANE_NODE_BUDGET
                and np.bincount(pattern.labels).max() <= count)

    folds = {}
    for key, count in uses.items():
        ops = key[0]
        # a fold of one operator takes that operator's pattern
        on_band = len(ops) == 1 and not polynomial(graph.patterns[ops[0][0]], count)
        fold, g = folded_system(graph, *key, on_band=on_band), None
        if polynomial(fold.pattern, count):
            g = polynomial_operator(fold.pattern.components.fill(fold.data), sched)
        folds[key] = (fold, g)
    return folds


def _sub_solve(graph, key, rhs, x0, sched, folds):
    """One CG solve of the system ``key`` = (ops, shift, observed): from the
    block's plan ``folds`` (``block_folds``), or folded here without one."""
    fold, g = (folded_system(graph, *key), None) if folds is None else folds[key]
    return cg_solve(fold.dot, rhs, x0, sched, None if g is None else g.dot)


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


def _weighted_sum(a: float, x: np.ndarray, b: float, y: np.ndarray) -> np.ndarray:
    """a x + b y, in that order, as one new array."""
    out = np.multiply(a, x)
    out += np.multiply(b, y)
    return out


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
    (H'y), in that order. ``folds`` is the block's plan (``block_folds``);
    without one the system is folded here.
    """
    parts = []
    if terms.l1:
        parts.append(graph.apply("l_rd_t", _weighted_sum(0.5, state.gamma, 0.5 * p.rho, state.phi)))
    if terms.split:
        parts.append(_weighted_sum(-0.5, state.gamma_u, 0.5 * p.rho_u, state.z_u))
        if terms.temporal:
            parts.append(_weighted_sum(-0.5, state.gamma_d, 0.5 * p.rho_d, state.z_d))
    parts.append(hty)
    rhs = parts[0]  # made here whenever a part follows it
    for part in parts[1:]:
        rhs += part
    key = (*signal_system(terms, p), True)
    return _sub_solve(graph, key, rhs, state.x, sched, folds)


def update_zu(
    state: AdmmState,
    graph: MixedGraph,
    p: LayerParams,
    sched: CgSchedule,
    folds: dict | None = None,
) -> np.ndarray:
    """Low-pass solve against the spatial Laplacian."""
    rhs = _weighted_sum(0.5, state.gamma_u, 0.5 * p.rho_u, state.x)
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
    rhs = _weighted_sum(0.5, state.gamma_d, 0.5 * p.rho_d, state.x)
    return _sub_solve(graph, _zd_system(p, temporal), rhs, state.z_d, sched, folds)


def update_phi(l_rd_x: np.ndarray, gamma: np.ndarray, p: LayerParams) -> np.ndarray:
    """Entrywise soft threshold of L_r x - gamma/rho at level mu_d1/rho; ``l_rd_x`` is L_r x.

    sign(delta) * max(|delta| - mu_d1/rho, 0), in three new arrays.
    """
    delta = np.divide(gamma, p.rho)
    np.subtract(l_rd_x, delta, out=delta)
    shrunk = np.abs(delta)
    shrunk -= p.mu_d1 / p.rho
    np.maximum(shrunk, 0.0, out=shrunk)
    out = np.sign(delta)  # a new array: numpy's sign in place runs several times slower
    out *= shrunk
    return out


def _ascent(gamma: np.ndarray, rho: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gamma + rho (a - b), as one new array."""
    out = np.subtract(a, b)
    out *= rho
    return np.add(gamma, out, out=out)


def update_multipliers(
    state: AdmmState,
    l_rd_x: np.ndarray | None,
    p: LayerParams,
    terms: Terms = TERMS["full"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual ascent on each split the variant has; the others keep their multiplier.

    Reads the layer's updated x, phi, z_u and z_d from ``state``; ``l_rd_x``
    is L_r x, needed only with the l1 term.
    """
    gamma, gamma_u, gamma_d = state.gamma, state.gamma_u, state.gamma_d
    if terms.l1:
        gamma = _ascent(gamma, p.rho, state.phi, l_rd_x)
    if terms.split:
        gamma_u = _ascent(gamma_u, p.rho_u, state.x, state.z_u)
        if terms.temporal:
            gamma_d = _ascent(gamma_d, p.rho_d, state.x, state.z_d)
    return gamma, gamma_u, gamma_d


def _layer(state: AdmmState, graph: MixedGraph, p: LayerParams, hty, sched, layer: int,
           terms: Terms, folds: dict):
    """One ADMM layer; a failure in a sub-step names the layer and the step.

    Each CG solve returns a finite result or raises (``cg_solve``), so only
    phi, which no solve makes, is checked here.
    """
    step = "x"
    try:
        state.x = update_x(state, graph, p, hty, sched, terms, folds)
        if terms.split:
            step = "z_u"
            state.z_u = update_zu(state, graph, p, sched, folds)
            if terms.temporal:
                step = "z_n" if terms.temporal == "l_n" else "z_d"
                state.z_d = update_zd(state, graph, p, sched, terms.temporal, folds)
        l_rd_x = None
        if terms.l1:
            step = "phi"
            l_rd_x = graph.apply("l_rd", state.x)
            state.phi = _finite(update_phi(l_rd_x, state.gamma, p))
    except NumericFailure as exc:
        exc.layer, exc.step = layer, step
        raise
    state.gamma, state.gamma_u, state.gamma_d = update_multipliers(state, l_rd_x, p, terms)


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
    A ``NumericFailure`` leaves with its ``lane`` set from its ``entry``.
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
        try:
            _layer(state, graph, p, hty, sched, layer, terms, folds)
        except NumericFailure as exc:
            exc.lane = graph.lane_of(exc.entry)
            raise
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

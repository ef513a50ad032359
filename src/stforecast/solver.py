"""Unrolled ADMM for the mixed-graph reconstruction objective.

One layer function serves every solver variant. ``TERMS`` records, per
variant, which terms of the objective it keeps (the directed l1 term, a
directed or undirected temporal l2 term) and whether the l2 terms are split
out into auxiliaries. A layer runs the signal solve (CG), one CG low-pass
solve per l2 auxiliary (z_u spatial, z_d temporal), the entrywise
soft-threshold for the l1 auxiliary phi, and dual ascent on the multipliers
of the splits it has (Boyd et al., *Distributed Optimization and Statistical
Learning via ADMM*, FnT ML 2011, section 3). The soft threshold is delta -
clip(delta, -t, t), and the l1 multiplier's ascent is then -rho times that
clip in closed form (section 6.4), so phi's residual is never formed.
``full`` splits everything, so each solve stays cheap and well conditioned;
``direct_unsplit`` keeps the l2 terms in the signal system, for fixed-point
checks; the other three are the ablations. The heads of a block, of one
window or of several, run together as lanes of one block-diagonal system (a
lane-stacked ``MixedGraph``). Each CG solve applies one folded matrix,
coef * operator + diag(shift [+ H'H]), built once per distinct set of layer
scalars in a block.

Unrolled CG with a fixed schedule is a fixed polynomial Q(A) of its system:
x0 + Q(A)(b - A x0) (Monga, Li and Eldar, *Algorithm Unrolling*, IEEE SPM
2021). A fold that enough of a block's layers share gets Q(A) built once,
with the steps run backwards in three-term form, s_{j+1} = B s_j -
beta s_{j-1} + alpha I with B = (1 + beta) I - alpha A, B formed anew only
where the schedule's (alpha, beta) changes (``polynomial_operator``), so
each of its solves takes one sparse product and one batched dense product
instead of the recurrence's ``iters`` sparse products (one for the starting
residual, one for every step but the last).
A lane is time-major, so which nodes a fold couples is known from the names
of its operators (``fold_slices``): a temporal fold couples one station's
instants, a spatial fold one instant's stations, the unsplit sum a whole
lane, the diagonal alone one node. Q(A) is a (size, size) block per slice,
filled from the fold's band or its entries, written over in place a chunk
of slices at a time, and applied by one ``np.matmul`` on the vector's slice
view (``SliceBlocks``).
The rule reads the slice size and no node count (``block_folds``), so it
holds at every station count. The stacks and the build's chunk scratch
belong to a ``Workspace``, which lives for one ``pipeline._forward`` call:
its first block makes them, and every later block, whose systems have the
same shapes, zero-fills and refills them in place, so that the heap the
blocks use is neither given back nor faulted in again between them. The
place of each entry of an entry-order fold in its stack is worked out once
and kept on the fold's pattern, which the plan shares with every block.

A fold is a ``graphs.Operator``: new values on a pattern the graph's plan
shares with every block, a band operator's own or the union of the fold's
operators' patterns and the diagonal (``fold_layout``). The plan's
patterns are final: a planned operator, and a fold, stores +0.0 where an
entry comes out exactly 0.0 and scipy's arithmetic would store none, which
adds nothing to a product of a finite vector (a sum from +0.0 is never
-0.0). A block only fills values, and each fold, like each operator of the
graph, applies itself by calling one of scipy's matrix-vector kernels
directly: no scipy matrix is built and no dispatch is paid per product. On
a planned graph L_r'L_r and ``l_n`` are held as their 2W + 1 diagonals, so
the temporal folds (x and z_d) are coef times them plus the diagonal, and
run scipy's DIA kernel, which reads no column index per value (Saad,
*Iterative Methods for Sparse Linear Systems*, 2003, section 3.4), for the
recurrence and for a polynomial solve's starting residual alike. Every
other fold runs the CSR kernel that ``A @ v`` runs. On a finite vector
both give the CSR product bit for bit (``Operator.dot``).
``MixedGraph.apply`` (L_r x and L_r' v, once per layer) runs the same
``dot``, on their bands.

Vector updates of the form y + a x (CG's x and r, the build's beta term,
the layer's weighted sums) run BLAS ``daxpy`` (Lawson, Hanson, Kincaid and
Krogh, *ACM TOMS* 1979): one pass, no temporary. It may round a x + y once
(FMA), as the CPU's kernel chooses, so its bits can differ from numpy's
two roundings; it works entry by entry, so a value's bits do not depend on
where it sits in the vector, and a stacked lane follows its path alone.

A solve returns a finite result or raises ``NumericFailure`` (from
``graphs``, importable here), naming its CG iteration when it has one; the
layer adds the sub-step and the block the lane.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy

from . import priors
from .graphs import MixedGraph, NumericFailure, Operator, Pattern, diagonal_union

CG_ALPHA_MAX = 0.8  # largest step size an unrolled schedule takes
DEFAULT_CG_ITERS = 8
DEFAULT_CG_INIT = 0.08
DEFAULT_EXACT_TOL = 1e-10

# Windows run as lanes of one system while windows x heads x stations x
# instants stays within this many nodes (``pipeline.reconstruct_batch``).
# Sized by ``scripts/lane_budget_sweep.py`` (table in README). Whether a
# system is applied as its unrolled polynomial does not read it
# (``block_folds``), so a stacked window stays on the path it takes alone.
LANE_NODE_BUDGET = 12000

# Slices per chunk of ``polynomial_operator``'s in-place build: its
# temporaries, one chunk's B and three s, are four chunks of its stack,
# held in the forward pass's ``Workspace`` scratch (sized for the largest
# chunk of any system: 1.33 MB at city-1000). Timed at 64, 96, 128 and 192
# slices a chunk, on 1000 slices of 18 nodes (city-1000) and 80 of 18
# (desk), one BLAS thread: 96 and 128 were the fastest at both (3.38 and
# 3.35 ms at city, 259 and 257 us at desk), 1.4x faster at city than the
# whole stack at once; 128 keeps a desk stack in one chunk (README, Layout).
POLYNOMIAL_CHUNK = 128


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
        """Fixed-step schedule; alphas in [0, 0.8] and finite betas >= 0, else a ValueError."""
        if iters < 1:
            raise ValueError("unrolled mode needs a positive iteration count")
        alphas = np.array(np.broadcast_to(alphas, (iters,)), dtype=float)
        betas = np.array(np.broadcast_to(betas, (iters,)), dtype=float)
        if not np.all((alphas >= 0) & (alphas <= CG_ALPHA_MAX)):
            raise ValueError(f"alphas must be in [0, {CG_ALPHA_MAX:g}], got {alphas.tolist()}")
        if not np.all((betas >= 0) & np.isfinite(betas)):
            raise ValueError(f"betas must be finite and >= 0, got {betas.tolist()}")
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
    and can stay finite where the recurrence's own iterates overflow. Both
    products are then written over in place (the residual into A x0, x0
    added to Q(A) r0), so ``apply_a`` and ``apply_g`` must return arrays of
    their own, as a fold's ``dot`` and ``SliceBlocks.dot`` do.

    The result is finite, or the solve raises ``NumericFailure``. An
    unrolled result is checked once, at the end: a non-finite entry of x
    stays non-finite through x + alpha p, so the recurrence cannot fail
    unseen. A zero alpha, which the schedule allows, adds nothing to x, as
    in exact arithmetic, even where the direction has overflowed: that step
    cannot fail, and a later step that applies the direction with a nonzero
    alpha makes x non-finite. When the result is not finite, the recurrence
    runs again with a check per step, names the failing iteration and
    entry, and its result is returned if it finds no failure. Exact mode
    checks its curvature and residual at every step, and the x it returns.
    """
    b = np.asarray(b, dtype=np.float64)
    unrolled = sched.mode == "unrolled"
    # only exact mode moves x in place; unrolled mode reads x0 as given when
    # it is a contiguous float64 array
    x = np.ascontiguousarray(x0, dtype=np.float64) if unrolled else np.array(x0, dtype=np.float64)
    if x.shape != b.shape:
        raise ValueError("x0 and b must have the same shape")
    if unrolled:
        if apply_g is None:
            r = b - apply_a(x)
            out = _unrolled_steps(apply_a, x, r, sched, check=False)
        else:
            r = apply_a(x)
            np.subtract(b, r, out=r)
            out = apply_g(r)
            out += x
        if np.isfinite(out).all():
            return out
        return _unrolled_steps(apply_a, x, r, sched, check=True)
    r = b - apply_a(x)
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
    so a run of ``iters`` steps takes ``iters`` - 1 products. x and r move
    by BLAS ``daxpy``, one pass that rounds alpha * p + x once, and leaves
    its target as it is for a zero alpha, even where p is not finite. With
    ``check``, a non-finite iterate raises ``NumericFailure`` naming the
    iteration and the first non-finite entry.
    """
    x, r, p = x0.copy(), r0.copy(), r0.copy()
    last = sched.iters - 1
    for k, (alpha, beta) in enumerate(zip(sched.alphas.tolist(), sched.betas.tolist())):
        daxpy(p, x, a=alpha)
        if check and not np.all(np.isfinite(x)):
            raise NumericFailure("unrolled CG diverged", iteration=k, entry=_first_nonfinite(x))
        if k == last:  # the residual would only feed a next direction
            break
        daxpy(apply_a(p), r, a=-alpha)
        p *= beta
        p += r
    return x


@dataclass(frozen=True)
class Slices:
    """The nodes a fold couples: each lane's nodes as ``count`` slices of ``size``.

    A lane is time-major (instants x stations), so the operators a fold
    sums say which nodes it can couple (``fold_slices``). ``strided``: a
    slice is one station's instants, ``count`` (the station count) apart;
    otherwise a slice is a run of ``size`` consecutive nodes: one instant's
    stations, a whole lane, or one node.
    """

    lanes: int
    count: int
    size: int
    strided: bool = False

    def view(self, v: np.ndarray) -> np.ndarray:
        """The (lanes, count, size) view of the node vector ``v``, slice by slice."""
        if self.strided:
            return v.reshape(self.lanes, self.size, self.count).transpose(0, 2, 1)
        return v.reshape(self.lanes, self.count, self.size)

    def blocks(self, fold: Operator, out: np.ndarray | None = None) -> np.ndarray:
        """The (lanes * count, size, size) stack of ``fold``'s entries among each slice's nodes.

        It is written into ``out``, a C-contiguous stack of that shape
        (``Workspace.stack``), zero-filled first, or into a new one. A band,
        which only a temporal fold has, is copied in one strided copy per
        diagonal: diagonal d N holds entry (t - d, t) of each station's
        block. Entries are added to their places in the stack in entry
        order (``np.add.at``), so a stored -0.0 reads 0.0 and duplicates
        add up, as in ``toarray``. The places are worked out
        once per pattern and kept on it (``Pattern.cache``): a fold's
        pattern, ``l_u``'s or a union of the plan's (``fold_layout``),
        serves every block. An entry that couples two slices raises
        ``ValueError``.
        """
        k = self.size
        shape = (self.lanes * self.count, k, k)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"slice blocks fill a C-contiguous float64 stack of {shape}, "
                             f"got {out.dtype} {out.shape}")
        out.fill(0.0)
        if fold.banded:
            flat = out.reshape(self.lanes, self.count, k * k)
            for row, offset in zip(fold.data, fold.pattern.band.offsets.tolist()):
                d, off_slice = divmod(offset, self.count)
                if not self.strided or off_slice or abs(d) >= k:
                    raise ValueError(f"a band diagonal at offset {offset} couples two slices")
                first = max(-d, 0) * k + max(d, 0)  # entry (t - d, t) at its first t
                cols = row.reshape(self.lanes, k, self.count)[:, max(d, 0) : k + min(d, 0)]
                flat[..., first : first + (k - abs(d) - 1) * (k + 1) + 1 : k + 1] = (
                    cols.transpose(0, 2, 1))
            return out
        np.add.at(out.reshape(-1), self._places(fold.pattern), fold.entries())
        return out

    def _places(self, pattern: Pattern) -> np.ndarray:
        """Each entry's place in the flattened stack of ``blocks``, kept on ``pattern``."""
        places = pattern.cache.get(self)
        if places is not None:
            return places
        k = self.size
        n = self.lanes * self.count * k
        # each entry's row and column as places in the slices' order
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        cols = pattern.indices
        if self.strided:
            slot = np.empty(n, dtype=np.intp)
            slot[self.view(np.arange(n)).ravel()] = np.arange(n)
            rows, cols = slot[rows], slot[cols]
        if np.any(rows // k != cols // k):
            raise ValueError(f"an operator entry couples two slices of {k} nodes")
        places = pattern.cache[self] = rows * k + cols % k
        return places


@dataclass(frozen=True, eq=False)
class SliceBlocks:
    """A matrix that couples only nodes of one slice, as a stack of dense blocks.

    ``blocks[i]`` is slice i's (size, size) block, in the order of
    ``slices.view``. ``dot`` applies it by one ``np.matmul`` on the
    vector's slice view, into the result's, with no gather or scatter:
    one BLAS matrix-vector product per slice.
    """

    slices: Slices
    blocks: np.ndarray

    def dot(self, v: np.ndarray) -> np.ndarray:
        s = self.slices
        out = np.empty_like(v)
        np.matmul(self.blocks.reshape(s.lanes, s.count, s.size, s.size), s.view(v)[..., None],
                  out=s.view(out)[..., None])
        return out


class Workspace:
    """The Q(A) buffers of a run of blocks: the first block that needs one
    makes it, and every later block zero-fills and refills it in place.

    Every block of one ``pipeline._forward`` call solves systems of the same
    shapes, and the call holds one workspace for its blocks; ``admm_block``
    makes its own when given none. ``stack`` gives each polynomial system
    its (lanes * count, size, size) stack, keyed by the system's position
    in ``block_folds`` and by its ``Slices``, so that two systems of one
    block (x and z_d, on the same slices) never share one. ``chunk`` gives
    ``polynomial_operator`` its temporaries, one flat scratch sized for the
    largest chunk and shared by every system, as one build ends before the
    next begins. A block reads its Q(A) only while it runs.
    """

    def __init__(self):
        self.stacks: dict = {}
        self.scratch = np.empty(0)

    def stack(self, position: int, slices: Slices) -> np.ndarray:
        """The stack of system ``position`` on ``slices``, as its last block left it."""
        key = (position, slices)
        if key not in self.stacks:
            self.stacks[key] = np.empty((slices.lanes * slices.count, slices.size, slices.size))
        return self.stacks[key]

    def chunk(self, size: int) -> np.ndarray:
        """``size`` values of scratch, their contents undefined."""
        if len(self.scratch) < size:
            self.scratch = np.empty(size)
        return self.scratch[:size]


def polynomial_operator(stack: np.ndarray, sched: CgSchedule,
                        workspace: Workspace | None = None) -> np.ndarray:
    """Q(A) of an unrolled schedule, x_K = x0 + Q(A) r0, over a (C, k, k) stack of A's blocks.

    ``stack`` holds A over independent slices (``Slices.blocks``). Q(A)
    couples only nodes of one slice, so it is kept the same way.

    The forward steps give Q(A) = sum_k alpha_k P_k(A), P_k(A) r0 being the
    k-th search direction. The build runs that sum in reverse, which needs
    no x and no r, in three-term form: from s_0 = alpha_{K-1} I and
    s_{-1} = 0, step j = 1 .. K-1 takes the schedule's k = K-1-j and sets
    s_j = B_k s_{j-1} - beta_k s_{j-2} + alpha_k I, with
    B_k = (1 + beta_k) I - alpha_k A, ending at s_{K-1} = Q(A). (It is the
    two-term v <- alpha_k (I - A s) + beta_k v, s <- s + v with v
    eliminated; both agree to rounding.) B_k is formed only when
    (alpha_k, beta_k) differs from the step before's, so a constant
    schedule forms it once, and where alpha_k is 0 it is (1 + beta_k) I,
    read from no entry of A. The first step is scalar, s_1 = alpha_{K-1} B
    + alpha_k I, and the second's beta s_0 is a diagonal, so a build takes
    ``iters`` - 2 batched matmuls, each followed by at most one ``daxpy``
    (none for a zero beta) and one add on the diagonal.

    Q(A) is written over A, in ``stack`` itself, which is returned: A stays
    there until the last step, which writes Q(A) straight into it. It is
    built ``POLYNOMIAL_CHUNK`` blocks at a time, so the build's temporaries
    are one chunk's B and three s, held in ``workspace``'s scratch
    (``Workspace.chunk``; a new workspace's without one): every block takes
    the same matmuls and elementwise steps whatever the chunk.
    """
    alphas, betas = sched.alphas.tolist(), sched.betas.tolist()
    steps = list(zip(alphas[-2::-1], betas[-2::-1]))
    k = stack.shape[1]
    workspace = Workspace() if workspace is None else workspace
    scratch = workspace.chunk(4 * min(len(stack), POLYNOMIAL_CHUNK) * k * k)
    with np.errstate(over="ignore", invalid="ignore"):  # cg_solve checks what it applies
        for first in range(0, len(stack), POLYNOMIAL_CHUNK):
            a = stack[first : first + POLYNOMIAL_CHUNK]  # A, then Q(A)
            c = len(a)
            b, *free = scratch[: 4 * c * k * k].reshape(4, c, k, k)
            s = prev = None  # s_{j-1} and s_{j-2}, None while it is s_0 or before it
            for j, (alpha, beta) in enumerate(steps, 1):
                if j == 1 or (alpha, beta) != steps[j - 2]:
                    if alpha:
                        np.multiply(a, -alpha, out=b)
                    else:
                        b.fill(0.0)
                    _diagonal(b)[...] += 1.0 + beta
                out = a if j == len(steps) else free.pop()
                shift = alpha
                if s is None:
                    np.multiply(b, alphas[-1], out=out)
                else:
                    np.matmul(b, s, out=out)
                    if prev is None:
                        shift -= beta * alphas[-1]
                    else:
                        if beta:
                            daxpy(prev.reshape(-1), out.reshape(-1), a=-beta)
                        free.append(prev)
                _diagonal(out)[...] += shift
                s, prev = out, s
            if s is None:  # a one-step schedule: Q(A) is alpha_0 I
                a.fill(0.0)
                _diagonal(a)[...] = alphas[-1]
    return stack


def _diagonal(blocks: np.ndarray) -> np.ndarray:
    """The (C, k) diagonals of a C-contiguous (C, k, k) stack, as a strided view."""
    c, k, _ = blocks.shape
    return blocks.reshape(c, k * k)[:, :: k + 1]


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


def folded_system(graph: MixedGraph, ops: tuple[tuple[str, float], ...], shift: float,
                  observed: bool) -> Operator:
    """The CG matrix sum(coef * op) + shift I (+ H'H when ``observed``) as one ``Operator``.

    ``ops`` pairs operator names of ``graph`` with coefficients. A fold of
    one band operator (``call_rd``, ``l_n``) is coef times its band's
    diagonals plus the diagonal on the main one's row. Every other fold
    (``l_u``, none, the unsplit sum) is values in entry order on the union
    of its operators' patterns and the diagonal (``fold_layout``): zeros,
    plus the diagonal, plus each term in ``ops`` order, the order of
    scipy's sum diag + coef * op + ..., so each value that sum stores is
    bitwise the same, and an entry it drops, exactly 0.0, is kept as +0.0.
    """
    diag = np.full(graph.n_nodes, shift)
    if observed:
        diag[graph.h_mask] += 1.0
    if len(ops) == 1 and graph.ops[ops[0][0]].banded:
        name, coef = ops[0]
        op = graph.ops[name]
        data = coef * op.data
        data[op.pattern.band.zero] += diag
        return Operator(op.pattern, data)
    pattern, places = fold_layout(graph, tuple(name for name, _ in ops))
    data = np.zeros(pattern.nnz)
    data[places[0]] += diag
    for (name, coef), at in zip(ops, places[1:]):
        data[at] += coef * graph.ops[name].entries()
    return Operator(pattern, data)


def fold_layout(graph: MixedGraph, names: tuple[str, ...]) -> tuple[Pattern, tuple]:
    """``graphs.diagonal_union`` of the operators ``names``, worked out once per
    plan: kept in the ``cache`` of the first one's pattern, keyed by the
    others' (of ``l_u``'s, which every graph has, for the diagonal alone).
    No cache holds its own pattern, so a dropped plan is freed at once."""
    patterns = tuple(graph.ops[name].pattern for name in names)
    host, key = (patterns[0], patterns[1:]) if patterns else (graph.ops["l_u"].pattern, "diagonal")
    if key not in host.cache:
        host.cache[key] = diagonal_union(graph.n_nodes, patterns)
    union, places = host.cache[key]
    return host if union is None else union, places


def fold_slices(graph: MixedGraph, ops: tuple[tuple[str, float], ...]) -> Slices:
    """The slices a fold of ``ops`` on ``graph`` couples, read from the operators' names.

    ``l_u`` couples one instant's stations, ``call_rd`` and ``l_n`` one
    station's instants, a sum of both a whole lane, and the diagonal alone
    (no operator) one node. A fold's places in them live on its pattern, as
    long as its plan (``fold_layout``).
    """
    n, t, lanes = graph.n_stations, graph.n_instants, graph.lanes
    names = {name for name, _ in ops}
    if not names:
        return Slices(lanes, n * t, 1)
    if names == {"l_u"}:
        return Slices(lanes, t, n)
    if names <= {"call_rd", "l_n"}:
        return Slices(lanes, n, t, strided=True)
    return Slices(lanes, 1, n * t)


def block_folds(graph: MixedGraph, params: list[LayerParams], terms: Terms,
                sched: CgSchedule, workspace: Workspace | None = None) -> dict:
    """The plan of every CG system a block solves: its fold, and Q(A) where reuse pays.

    Keys are the (ops, shift, observed) of ``_layer_systems``, values (the
    fold, an ``Operator``; Q(A), a ``SliceBlocks``, or None). A fold on a
    pattern with a band (a planned temporal one) holds its band's diagonals
    and runs the DIA kernel, for the recurrence's products and for the
    starting residual of a solve by Q(A) alike.

    A system gets its polynomial (``polynomial_operator``) when the schedule
    is unrolled and at least m of the block's layers solve it, m being the
    size of its slices (``fold_slices``): the station's instants of a
    temporal fold, the instant's stations of a spatial one. Each solve then
    takes 2 products instead of ``iters``; the build takes ``iters`` - 2
    batched matmuls of the slice blocks. Q(A) holds n m values for n nodes,
    so at most n times the block's layer count. The rule reads no node
    count, so a window stacked with others takes the path it takes alone.
    A slice can hold several connected
    components, of a road network in pieces: its block is still exact,
    since nothing couples them, but the rule reads the slice's size, not
    theirs. Systems are counted once per distinct set of layer scalars.

    Q(A) is filled, built and held in ``workspace``'s stacks (``Workspace``;
    a new workspace's without one), which the next call on the same
    workspace fills over: a plan is read only until then.
    """
    workspace = Workspace() if workspace is None else workspace
    systems = Counter()
    for p, layers in Counter(params).items():
        for key in _layer_systems(terms, p):
            systems[key] += layers
    folds = {}
    for position, (key, count) in enumerate(systems.items()):
        fold, g = folded_system(graph, *key), None
        slices = fold_slices(graph, key[0])
        if sched.mode == "unrolled" and slices.size <= count:
            stack = slices.blocks(fold, workspace.stack(position, slices))
            g = SliceBlocks(slices, polynomial_operator(stack, sched, workspace))
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
    """a x + b y, in that order, as one new array: b y is added by ``daxpy``."""
    return daxpy(y, np.multiply(a, x), a=b)


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


def update_phi(l_rd_x: np.ndarray, gamma: np.ndarray, p: LayerParams,
               clipped: np.ndarray | None = None) -> np.ndarray:
    """Entrywise soft threshold of delta = L_r x - gamma/rho at level t = mu_d1/rho; ``l_rd_x`` is L_r x.

    delta - clip(delta, -t, t) (Boyd et al., section 4.4.3), returned in
    delta's new array: the clip is what the threshold takes away. With
    ``clipped``, an array of delta's shape, which may be ``l_rd_x`` itself,
    the clip is written there, for the l1 multiplier
    (``update_multipliers``); without it, into a temporary.
    """
    delta = np.divide(gamma, p.rho)
    np.subtract(l_rd_x, delta, out=delta)
    t = p.mu_d1 / p.rho
    return np.subtract(delta, delta.clip(-t, t, out=clipped), out=delta)


def _ascent(gamma: np.ndarray, rho: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gamma + rho (a - b), as one new array."""
    out = np.subtract(a, b)
    out *= rho
    return np.add(gamma, out, out=out)


def update_multipliers(
    state: AdmmState,
    clipped: np.ndarray | None,
    p: LayerParams,
    terms: Terms = TERMS["full"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual ascent on each split the variant has; the others keep their multiplier.

    Reads the layer's updated x, z_u and z_d from ``state``. ``clipped``,
    needed only with the l1 term, is the clip ``update_phi`` wrote, c =
    clip(delta, -t, t) of delta = L_r x - gamma/rho, t = mu_d1/rho; the
    new l1 multiplier is written over it. With phi = delta - c, the ascent
    gamma + rho (phi - L_r x) is -rho c in closed form (Boyd et al.,
    section 6.4), which lies in [-mu_d1, mu_d1].
    """
    gamma, gamma_u, gamma_d = state.gamma, state.gamma_u, state.gamma_d
    if terms.l1:
        gamma = np.multiply(clipped, -p.rho, out=clipped)
    if terms.split:
        gamma_u = _ascent(gamma_u, p.rho_u, state.x, state.z_u)
        if terms.temporal:
            gamma_d = _ascent(gamma_d, p.rho_d, state.x, state.z_d)
    return gamma, gamma_u, gamma_d


def _layer(state: AdmmState, graph: MixedGraph, p: LayerParams, hty, sched, layer: int,
           terms: Terms, folds: dict, x_only: bool):
    """One ADMM layer; a failure in a sub-step names the layer and the step.

    ``x_only``: the layer updates x and nothing else, for a block's last
    layer, whose auxiliaries and multipliers nothing reads. Each CG solve
    returns a finite result or raises (``cg_solve``), so only phi, which no
    solve makes, is checked here.
    """
    step = "x"
    try:
        state.x = update_x(state, graph, p, hty, sched, terms, folds)
        if x_only:
            return
        if terms.split:
            step = "z_u"
            state.z_u = update_zu(state, graph, p, sched, folds)
            if terms.temporal:
                step = "z_n" if terms.temporal == "l_n" else "z_d"
                state.z_d = update_zd(state, graph, p, sched, terms.temporal, folds)
        clipped = None
        if terms.l1:
            step = "phi"
            clipped = graph.apply("l_rd", state.x)  # L_r x, written over with the clip
            state.phi = _finite(update_phi(clipped, state.gamma, p, clipped))
    except NumericFailure as exc:
        exc.layer, exc.step = layer, step
        raise
    state.gamma, state.gamma_u, state.gamma_d = update_multipliers(state, clipped, p, terms)


def admm_block(
    x0: np.ndarray,
    y: np.ndarray,
    graph: MixedGraph,
    params: list[LayerParams],
    sched: CgSchedule,
    mode: str = "full",
    trace: list | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Run one block of ADMM layers and return the final signal.

    The block re-derives phi from the incoming signal and zeroes all
    multipliers; phi and the multipliers are then carried across layers.
    The last layer updates x only, since nothing reads its auxiliaries or
    multipliers. When ``trace`` is a list, every layer runs every step, and
    a per-layer record with the objective and the three split residual
    norms is appended.

    On a stacked graph (``graph.lanes`` > 1) ``x0``, ``y`` and the result
    hold one lane after another, and a trace record covers all lanes at once.
    A ``NumericFailure`` leaves with its ``lane`` set from its ``entry``;
    numpy warns of no overflow or invalid value on the way.
    ``x0`` and ``y`` must be finite, as every product and solve of the
    block assumes: either raises ``NumericFailure`` otherwise, naming the
    node of its first non-finite value and that node's lane.

    The block's Q(A) are built in ``workspace`` (``block_folds``): the
    forward pass passes its own, so that its blocks refill one set of
    buffers; without one the block makes its own.
    """
    terms = TERMS.get(mode)
    if terms is None:
        raise ValueError(f"unknown solver variant {mode!r}")
    if terms.temporal == "l_n" and "l_n" not in graph.ops:
        raise ValueError("graph has no undirected temporal Laplacian (l_n)")
    if not params:
        raise ValueError("need at least one layer")
    x0 = np.asarray(x0, dtype=np.float64)
    if (bad := _first_nonfinite(x0)) is not None:
        raise NumericFailure("the block's start is not finite", entry=bad, lane=graph.lane_of(bad))
    hty = graph.lift_observed(y)
    if (bad := _first_nonfinite(hty)) is not None:
        raise NumericFailure("an observation is not finite", entry=bad, lane=graph.lane_of(bad))
    state = AdmmState.initial(x0, graph)
    # the solves and the layer report overflow and NaN, naming where
    with np.errstate(over="ignore", invalid="ignore"):
        folds = block_folds(graph, params, terms, sched, workspace)
        last = len(params) - 1 if trace is None else None
        for layer, p in enumerate(params):
            try:
                _layer(state, graph, p, hty, sched, layer, terms, folds, layer == last)
            except NumericFailure as exc:
                exc.lane = graph.lane_of(exc.entry)
                raise
            if trace is not None:
                trace.append(_trace_record(layer, state, graph, p, y, terms))
    return state.x


def _trace_record(layer, state, graph, p, y, terms):
    """Objective, split residuals (NaN for the splits the variant drops) and
    ``phi_kept``, the count of phi's nonzero entries (0 without the l1 term)."""
    rec = {"layer": layer}
    rec.update(state.residuals(graph))
    rec["phi_kept"] = int(np.count_nonzero(state.phi)) if terms.l1 else 0
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
        rec["objective"] += p.mu_d2 * float(state.x @ graph.ops["l_n"].dot(state.x))
    return rec

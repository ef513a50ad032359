"""Independent reference solvers used by tests, verification, and diagnostics.

Nothing here shares code with the iterative solver path or the planned
operator assembly: dense elimination, dense spectra and spectral filters,
scalar grid search, an accelerated proximal-gradient method, ``coo_operators``
(scipy COO and CSR arithmetic), and ``reference_forward``, a whole forecast
in dense numpy, which by design shares graph learning (embedding, feature map,
attention weights) with the model, to judge everything after it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import attention
from .graphs import MixedGraph, SpatialSkeleton, TemporalSkeleton
from .priors import PriorWeights
from .solver import TERMS, CgSchedule, LayerParams, Terms


def coo_operators(sskel: SpatialSkeleton, tskel: TemporalSkeleton, weights_u: np.ndarray,
                  weights_d: np.ndarray, with_l_n: bool) -> dict[str, sp.csr_matrix]:
    """Every operator of a lane-stacked mixed graph, each assembled on its own
    from COO triplets and scipy sparse arithmetic, as a dict by name.

    Weights take ``attention.build_mixed_graph``'s shapes, lanes in front.
    The planned assembly must equal this bit for bit on every entry this
    stores, index dtypes included. scipy's arithmetic stores no entry that
    comes out exactly 0.0, which a planned operator keeps as +0.0; where
    none does, the two agree in ``indptr``, ``indices`` and ``data``.
    """
    weights_u = np.asarray(weights_u, dtype=np.float64)
    lanes = int(np.prod(weights_u.shape[:-2]))
    w = weights_u.reshape(lanes * weights_u.shape[-2], sskel.n_edges)
    n_slices, n = len(w), sskel.n_stations
    dim = n * n_slices
    off = (np.arange(n_slices) * n)[:, None]
    ei, ej = off + sskel.edges[:, 0], off + sskel.edges[:, 1]
    deg = np.bincount(np.concatenate([ei, ej], axis=1).ravel(),
                      weights=np.concatenate([w, w], axis=1).ravel(), minlength=dim)
    diag = np.arange(dim)
    rows = np.concatenate([ei.ravel(), ej.ravel(), diag])
    cols = np.concatenate([ej.ravel(), ei.ravel(), diag])
    vals = np.concatenate([-w.ravel(), -w.ravel(), deg])
    l_u = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    l_u.sum_duplicates()

    # the temporal skeleton once per lane, lane h's nodes offset by h * n_nodes
    offsets = np.arange(lanes)[:, None] * tskel.n_nodes
    src, dst = (offsets + tskel.src).ravel(), (offsets + tskel.dst).ravel()
    sources = (offsets + tskel.sources).ravel()
    nodes = lanes * tskel.n_nodes
    wd = np.asarray(weights_d, dtype=np.float64).ravel()
    rows, cols = np.concatenate([dst, sources]), np.concatenate([src, sources])
    vals = np.concatenate([wd, np.ones(len(sources))])
    indeg = np.zeros(nodes)
    np.add.at(indeg, rows, vals)
    w_rd = sp.coo_matrix((vals / indeg[rows], (rows, cols)), shape=(nodes, nodes)).tocsr()
    w_rd.sum_duplicates()
    l_rd = (sp.identity(nodes, format="csr") - w_rd).tocsr()
    call_rd = (l_rd.T @ l_rd).tocsr()
    call_rd.sort_indices()
    ops = {"l_u": l_u, "w_rd": w_rd, "l_rd": l_rd, "l_rd_t": l_rd.T.tocsr(), "call_rd": call_rd}
    if with_l_n:
        half = 0.5 * wd
        adj = sp.coo_matrix(
            (np.concatenate([half, half]), (np.concatenate([src, dst]), np.concatenate([dst, src]))),
            shape=(nodes, nodes),
        ).tocsr()
        d = np.asarray(adj.sum(axis=1)).ravel()
        linked = d > 0
        inv_sqrt = np.zeros_like(d)
        inv_sqrt[linked] = 1.0 / np.sqrt(d[linked])
        scale = sp.diags(inv_sqrt)
        l_n = (sp.diags(linked.astype(np.float64)) - scale @ adj @ scale).tocsr()
        l_n.sort_indices()
        ops["l_n"] = l_n
    return ops


def dense_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct elimination solve of a dense system."""
    return np.linalg.solve(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


def smooth_system(graph: MixedGraph, w: PriorWeights) -> np.ndarray:
    """Dense H'H + mu_u L_u + mu_d2 calL_rd."""
    n = graph.n_nodes
    a = np.diag(graph.h_mask.astype(np.float64))
    a += w.mu_u * graph.l_u.toarray()
    a += w.mu_d2 * graph.call_rd.toarray()
    return a


def smooth_minimizer(graph: MixedGraph, y: np.ndarray, w: PriorWeights) -> np.ndarray:
    """Exact minimizer of the objective when the l1 weight is zero."""
    if w.mu_d1 != 0:
        raise ValueError("smooth oracle requires mu_d1 = 0")
    return dense_solve(smooth_system(graph, w), graph.lift_observed(y))


def undirected_temporal_minimizer(
    graph: MixedGraph, y: np.ndarray, mu_u: float, mu_n: float
) -> np.ndarray:
    """Exact minimizer of the all-undirected ablation objective."""
    if graph.l_n is None:
        raise ValueError("graph has no undirected temporal Laplacian")
    a = np.diag(graph.h_mask.astype(np.float64))
    a += mu_u * graph.l_u.toarray() + mu_n * graph.l_n.toarray()
    return dense_solve(a, graph.lift_observed(y))


def dense_spectrum(a, dense_limit: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns) of a
    small symmetric matrix, dense or sparse, by one dense ``eigh``."""
    mat = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=np.float64)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("expected a square matrix")
    if n > dense_limit:
        raise ValueError(f"matrix of size {n} exceeds dense limit {dense_limit}")
    if not np.allclose(mat, mat.T, rtol=0, atol=1e-10 * max(1.0, np.abs(mat).max())):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh(mat)


def spectral_lowpass(mat, c: float, v: np.ndarray) -> np.ndarray:
    """Apply V diag(1/(1 + c*lambda)) V' to v via a dense eigendecomposition."""
    vals, vecs = dense_spectrum(mat)
    coeffs = vecs.T @ v
    return vecs @ (coeffs / (1.0 + c * vals))


def soft_threshold_grid(
    shift: float,
    gamma: float,
    mu_d1: float,
    rho: float,
    lo: float = -5.0,
    hi: float = 5.0,
    step: float = 1e-4,
) -> float:
    """Grid-search argmin of the scalar l1 sub-objective.

    ``shift`` is the corresponding entry of L_r x; the objective is
    mu_d1 |p| + gamma (p - shift) + rho/2 (p - shift)^2.
    """
    grid = np.arange(lo, hi + step, step)
    vals = mu_d1 * np.abs(grid) + gamma * (grid - shift) + 0.5 * rho * (grid - shift) ** 2
    return float(grid[np.argmin(vals)])


def prox_l1_of_operator(v: np.ndarray, l_op: np.ndarray, reg: float, tol: float = 1e-13) -> np.ndarray:
    """prox of x -> reg * ||L x||_1 at v, by projected gradient on the dual.

    Returns v - L' u* with u* solving the box-constrained dual QP.
    """
    if reg == 0:
        return v.copy()
    lv = l_op @ v
    llt = l_op @ l_op.T
    lip = np.linalg.eigvalsh(llt)[-1]
    if lip <= 0:
        return v.copy()
    u = np.clip(lv / max(lip, 1.0), -reg, reg)
    step = 1.0 / lip
    for _ in range(20000):
        grad = llt @ u - lv
        u_new = np.clip(u - step * grad, -reg, reg)
        if np.max(np.abs(u_new - u)) <= tol * max(1.0, np.max(np.abs(u))):
            u = u_new
            break
        u = u_new
    return v - l_op.T @ u


def prox_grad_minimizer(
    graph: MixedGraph,
    y: np.ndarray,
    w: PriorWeights,
    step_tol: float = 1e-8,
    max_iter: int = 200000,
) -> np.ndarray:
    """FISTA (with restarts) on the full objective, dense at desk scale."""
    q = smooth_system(graph, w)
    hty = graph.lift_observed(y)
    lip = 2.0 * np.linalg.eigvalsh(q)[-1]
    step = 1.0 / lip
    l_dense = graph.l_rd.toarray()

    def smooth_grad(x):
        return 2.0 * (q @ x - hty)

    def full_obj(x):
        quad = x @ (q @ x) - 2.0 * (hty @ x) + y @ y
        return quad + w.mu_d1 * np.abs(l_dense @ x).sum()

    x = graph.lift_observed(y)
    momentum = x.copy()
    t_acc = 1.0
    prev_obj = full_obj(x)
    for _ in range(max_iter):
        x_new = prox_l1_of_operator(
            momentum - step * smooth_grad(momentum), l_dense, step * w.mu_d1
        )
        obj = full_obj(x_new)
        if obj > prev_obj:  # restart the momentum sequence
            t_acc = 1.0
            momentum = x.copy()
            x_new = prox_l1_of_operator(momentum - step * smooth_grad(momentum), l_dense,
                                        step * w.mu_d1)
            obj = full_obj(x_new)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
        momentum = x_new + ((t_acc - 1.0) / t_next) * (x_new - x)
        done = np.linalg.norm(x_new - x) <= step_tol
        x, t_acc, prev_obj = x_new, t_next, obj
        if done:
            break
    return x


def reference_forward(samples, ctx) -> list[np.ndarray]:
    """``pipeline._forward``'s reconstructions of ``samples`` under ``ctx``, from the
    paper's equations in dense numpy, one window and one head at a time.

    A window starts from its standardized history, the last observation
    held over the future. Each block weighs every head's edges with the
    model's ``attention`` functions, assembles its operators densely by
    ``coo_operators``, runs ``_dense_block`` on them, merges the heads and
    mixes them in by the block's residual weight. No plan, band, fold,
    lane, Q(A), chunk or workspace.
    """
    cfg = ctx.config
    terms, sched, n = TERMS[cfg.solver.mode], cfg.solver.schedule(), ctx.pg.n_stations
    out = []
    for sample in samples:
        obs = ctx.standardizer.transform(sample.observed)
        held = np.repeat(obs[:, -1:], sample.target.shape[1], axis=1)
        x = np.concatenate([obs, held], axis=1).T.ravel()  # time-major
        y, t_steps = x[: obs.size].copy(), np.asarray(sample.timestamps, float) / ctx.interval
        for b in range(cfg.layers.blocks):
            feats = ctx.feature_map(attention.embed(x, t_steps, ctx.eigmap))
            params = cfg.layers.layer_params(b, cfg.default_rho(n))
            heads = []
            for h in range(ctx.bank.heads):
                wu = attention.undirected_weights(feats, ctx.sskel, ctx.bank.undirected[h])
                wd = attention.directed_weights(feats, ctx.tskel, ctx.bank.directed[h])
                ops = coo_operators(ctx.sskel, ctx.tskel, wu, wd, terms.temporal == "l_n")
                dense = {name: op.toarray() for name, op in ops.items()}
                heads.append(_dense_block(x, y, dense, params, sched, terms))
            merged = sum(w * x_h for w, x_h in zip(cfg.heads.merge, heads))
            x = cfg.layers.residual[b] * merged + (1.0 - cfg.layers.residual[b]) * x
        out.append(ctx.standardizer.inverse(x.reshape(-1, n).T))
    return out


def _dense_block(x0, y, ops: dict, params: list[LayerParams], sched: CgSchedule,
                 terms: Terms) -> np.ndarray:
    """ADMM layers on ||y - Hx||^2 + mu_u x'L_u x + mu_d2 x'L_r'L_r x + mu_d1 ||L_r x||_1
    (``l_n`` for L_r'L_r when undirected), H observing the first ``len(y)``
    nodes, with phi = L_r x, z_u = x, z_d = x split out as ``terms`` says.
    From phi = L_r x0, z_u = z_d = x0 and zero multipliers, a layer solves
    (H'H + 0.5 rho L_r'L_r + 0.5 (rho_u + rho_d) I) x = H'y + L_r'(0.5 gamma
    + 0.5 rho phi) + 0.5 (rho_u z_u - gamma_u + rho_d z_d - gamma_d) (an
    unsplit l2 term joins the matrix instead), (mu_u L_u + 0.5 rho_u I) z_u =
    0.5 (gamma_u + rho_u x) and z_d likewise, sets phi = soft(L_r x - gamma
    / rho, mu_d1 / rho), and takes dual ascent on each split.
    """
    n, l_rd, l_u = len(x0), ops["l_rd"], ops["l_u"]
    temporal, eye = ops.get(terms.temporal), np.eye(n)
    hty = np.concatenate([y, np.zeros(n - len(y))])
    x = z_u = z_d = x0
    phi, gamma = l_rd @ x0, np.zeros(n)
    gamma_u = gamma_d = gamma
    systems = {}  # the x, z_u and z_d matrices of each distinct set of layer scalars
    for p in params:
        if p not in systems:
            a_x = np.diag((np.arange(n) < len(y)).astype(np.float64))  # H'H
            if terms.l1:
                a_x += 0.5 * p.rho * ops["call_rd"]
            a_u = a_d = None
            if not terms.split:
                a_x += p.mu_u * l_u + p.mu_d2 * temporal
            else:
                a_u = p.mu_u * l_u + 0.5 * p.rho_u * eye
                a_x += 0.5 * p.rho_u * eye
                if temporal is not None:
                    a_d = p.mu_d2 * temporal + 0.5 * p.rho_d * eye
                    a_x += 0.5 * p.rho_d * eye
            systems[p] = a_x, a_u, a_d
        a_x, a_u, a_d = systems[p]
        rhs = hty.copy()
        if terms.l1:
            rhs += l_rd.T @ (0.5 * gamma + 0.5 * p.rho * phi)
        if a_u is not None:
            rhs += 0.5 * (p.rho_u * z_u - gamma_u)
        if a_d is not None:
            rhs += 0.5 * (p.rho_d * z_d - gamma_d)
        x = _dense_cg(a_x, rhs, x, sched)
        if a_u is not None:
            z_u = _dense_cg(a_u, 0.5 * (gamma_u + p.rho_u * x), z_u, sched)
            gamma_u = gamma_u + p.rho_u * (x - z_u)
        if a_d is not None:
            z_d = _dense_cg(a_d, 0.5 * (gamma_d + p.rho_d * x), z_d, sched)
            gamma_d = gamma_d + p.rho_d * (x - z_d)
        if terms.l1:
            l_x = l_rd @ x
            delta = l_x - gamma / p.rho
            phi = np.sign(delta) * np.maximum(np.abs(delta) - p.mu_d1 / p.rho, 0.0)
            gamma = gamma + p.rho * (phi - l_x)
    return x


def _dense_cg(a: np.ndarray, b: np.ndarray, x: np.ndarray, sched: CgSchedule) -> np.ndarray:
    """Conjugate gradient on a x = b from x: the schedule's fixed alpha and beta
    for ``sched.iters`` steps, or, in exact mode, the classical ones until
    ||b - a x|| <= ``sched.tol`` (at most ``sched.iters`` steps when set)."""
    p = r = b - a @ x
    if sched.mode == "unrolled":
        for alpha, beta in zip(sched.alphas, sched.betas):
            x, r = x + alpha * p, r - alpha * (a @ p)
            p = r + beta * p
        return x
    rr = r @ r
    for _ in range(sched.iters if sched.iters is not None else 2 * len(b) + 10):
        if np.sqrt(rr) <= sched.tol:
            break
        ap = a @ p
        alpha = rr / (p @ ap)
        x, r = x + alpha * p, r - alpha * ap
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
    return x

"""Independent reference solvers used by tests, verification, and diagnostics.

Nothing here shares code with the iterative solver path: dense elimination,
dense spectra and spectral filters, scalar grid search, and an accelerated
proximal-gradient method provide second opinions at desk scale. Nor with the
planned operator assembly: ``coo_operators`` builds every operator directly
from scipy COO and CSR arithmetic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graphs import MixedGraph, SpatialSkeleton, TemporalSkeleton
from .priors import PriorWeights


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
    if sskel.n_edges == 0:
        l_u = sp.csr_matrix((dim, dim))
    else:
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

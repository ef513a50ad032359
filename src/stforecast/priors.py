"""Variational terms on the mixed graph and the full reconstruction objective.

Three priors drive the reconstruction: the quadratic form x'Lx on the
undirected spatial graph, and two terms built from the random-walk Laplacian
of the temporal DAG - the squared l2 norm of L_r x (each child measured
against the weighted mean of its parents) and its l1 counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import MixedGraph


@dataclass(frozen=True)
class PriorWeights:
    mu_u: float
    mu_d2: float
    mu_d1: float

    def __post_init__(self):
        if min(self.mu_u, self.mu_d2, self.mu_d1) < 0:
            raise ValueError("prior weights must be nonnegative")


def _check_shapes(x: np.ndarray, mat: sp.spmatrix):
    if mat.shape[1] != x.shape[0]:
        raise ValueError(f"signal length {x.shape[0]} != operator dimension {mat.shape[1]}")


def glr(x: np.ndarray, l_u: sp.spmatrix) -> float:
    """x' L x, the undirected smoothness prior."""
    x = np.asarray(x, dtype=np.float64)
    _check_shapes(x, l_u)
    return float(x @ (l_u @ x))


def dglr(x: np.ndarray, l_rd: sp.spmatrix) -> float:
    """||L_r x||_2^2: sum over children of the squared parent-mean mismatch."""
    x = np.asarray(x, dtype=np.float64)
    _check_shapes(x, l_rd)
    v = l_rd @ x
    return float(v @ v)


def dgtv(x: np.ndarray, l_rd: sp.spmatrix) -> float:
    """||L_r x||_1; source rows are zero and contribute nothing."""
    x = np.asarray(x, dtype=np.float64)
    _check_shapes(x, l_rd)
    return float(np.abs(l_rd @ x).sum())


def objective(x: np.ndarray, y: np.ndarray, graph: MixedGraph, w: PriorWeights) -> float:
    """Fidelity on observed entries plus the three weighted priors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (graph.n_nodes,):
        raise ValueError("signal length does not match graph")
    if y.shape != (int(graph.h_mask.sum()),):
        raise ValueError("observation length does not match mask")
    resid = y - graph.project_observed(x)
    value = float(resid @ resid)
    # the graph's own products, which are scipy's bit for bit: ``glr``,
    # ``dglr`` and ``dgtv`` without a CSR copy of the operators
    if w.mu_u:
        value += w.mu_u * float(x @ graph.apply("l_u", x))
    if w.mu_d2 or w.mu_d1:
        l_rd_x = graph.apply("l_rd", x)
        if w.mu_d2:
            value += w.mu_d2 * float(l_rd_x @ l_rd_x)
        if w.mu_d1:
            value += w.mu_d1 * float(np.abs(l_rd_x).sum())
    return value

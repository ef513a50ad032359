"""Data-dependent edge weights via Mahalanobis distances.

This is the self-attention analogue: node embeddings (signal value, spatial
eigenmap coordinates, sinusoidal time encoding) are projected to a small
feature space, compared under learned PSD metrics, and turned into normalized
edge weights. Spatial slices get one metric per instant, temporal edges one
metric per lag, and the whole construction is replicated per head.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from .graphs import (
    DirectedSkeleton,
    MixedGraph,
    PhysicalGraph,
    SpatialSkeleton,
    TemporalSkeleton,
    assemble_random_walk_digraph,
    assemble_undirected_laplacian,
    normalized_laplacian,
    symmetrized_dglr_matrix,
    unit_laplacian,
)

TEMPORAL_DIM = 10
DEFAULT_SPATIAL_DIM = 5
DEFAULT_FEATURE_DIM = 6
# Station count above which the eigenmap switches from dense ``eigh``, O(N^3)
# time and O(N^2) memory, to sparse shift-invert Lanczos per component.
DENSE_EIGENMAP_MAX_STATIONS = 200
EIGSH_SHIFT = -1e-2


class DegenerateWeightError(ValueError):
    """All attention weights in some neighborhood underflowed to zero.

    Raised with the instant; ``multi_head_graphs`` adds the head and the
    forward pass the block, on the same exception, so the message names each
    place once.
    """

    def __init__(self, message, *, block=None, head=None, instant=None):
        super().__init__(message)
        self.message = message
        self.block = block
        self.head = head
        self.instant = instant

    def __str__(self):
        where = [
            f"{label} {value}"
            for label, value in (
                ("block", self.block), ("head", self.head), ("instant", self.instant)
            )
            if value is not None
        ]
        return self.message + (f" ({', '.join(where)})" if where else "")


def temporal_embedding(t_stamps: np.ndarray) -> np.ndarray:
    """Interleaved sin/cos encodings: e[t, 2i] = sin(t/10000^i), e[t, 2i+1] = cos."""
    t = np.asarray(t_stamps, dtype=np.float64)
    out = np.empty((len(t), TEMPORAL_DIM))
    for i in range(TEMPORAL_DIM // 2):
        scale = 10000.0 ** i
        out[:, 2 * i] = np.sin(t / scale)
        out[:, 2 * i + 1] = np.cos(t / scale)
    return out


def spatial_eigenmap(pg: PhysicalGraph, dim: int = DEFAULT_SPATIAL_DIM) -> np.ndarray:
    """Smallest nontrivial eigenvectors of the unit-weight Laplacian of the road graph.

    Sign convention: first nonzero component of each eigenvector positive.
    Zero-padded if the graph has fewer than ``dim`` nontrivial modes. Graphs
    of up to ``DENSE_EIGENMAP_MAX_STATIONS`` stations use dense ``eigh``;
    larger ones the sparse solve, whose vectors span the same eigenspaces
    and, where the spectrum is simple, equal the dense ones up to rounding.
    """
    n = pg.n_stations
    lap = unit_laplacian(pg)
    n_components = connected_components(lap, directed=False, return_labels=False)
    if n_components > 1:
        warnings.warn(f"road graph has {n_components} connected components", stacklevel=2)
    avail = min(dim, n - 1)
    if n <= DENSE_EIGENMAP_MAX_STATIONS:
        vecs = smallest_eigenpairs_dense(lap, avail + 1)[1]
    else:
        vecs = smallest_eigenpairs_sparse(lap, avail + 1)[1]
    out = np.zeros((n, dim))
    out[:, :avail] = orient_columns(vecs[:, 1:])
    return out


def smallest_eigenpairs_dense(lap: sp.spmatrix, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` smallest eigenpairs of a symmetric matrix, by dense ``eigh``."""
    vals, vecs = np.linalg.eigh(lap.toarray())
    return vals[:count], vecs[:, :count]


def smallest_eigenpairs_sparse(lap: sp.spmatrix, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` smallest eigenpairs of a graph Laplacian, ascending.

    Each connected component is solved on its own: every component adds one
    copy of eigenvalue 0, and Lanczos from one start vector finds the copies
    of a multiple eigenvalue only through rounding and can miss some. A
    component is solved by
    shift-invert Lanczos about a small negative shift (``lap - shift I`` is
    positive definite and factorizes once), or by dense ``eigh`` when it has
    at most ``count + 1`` nodes. The fixed start vector makes repeated calls
    bitwise equal; it is not the all-ones vector, an exact eigenvector.
    """
    _n_components, labels = connected_components(lap, directed=False)
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    vals, vecs = [], []
    for idx in members:
        sub = lap[idx][:, idx]
        k = min(count, len(idx))
        if len(idx) <= k + 1:
            v, vec = smallest_eigenpairs_dense(sub, k)
        else:
            v0 = np.random.default_rng(0).standard_normal(len(idx))
            v, vec = eigsh(sub.tocsc(), k=k, sigma=EIGSH_SHIFT, which="LM", v0=v0)
            order = np.argsort(v, kind="stable")
            v, vec = v[order], vec[:, order]
        vals.append(v)
        vecs.append(vec)
    owner = np.repeat(np.arange(len(members)), [len(v) for v in vals])
    column = np.concatenate([np.arange(len(v)) for v in vals])
    pick = np.argsort(np.concatenate(vals), kind="stable")[:count]
    out = np.zeros((lap.shape[0], count))
    for c, p in enumerate(pick):
        out[members[owner[p]], c] = vecs[owner[p]][:, column[p]]
    return np.concatenate(vals)[pick], out


def orient_columns(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its first component above 1e-12 in magnitude is positive."""
    out = vecs.copy()
    for c in range(out.shape[1]):
        nz = np.flatnonzero(np.abs(out[:, c]) > 1e-12)
        if len(nz) and out[nz[0], c] < 0:
            out[:, c] = -out[:, c]
    return out


def embed(
    x: np.ndarray,
    pg: PhysicalGraph,
    t_stamps: np.ndarray,
    eigmap: np.ndarray | None = None,
) -> np.ndarray:
    """Per-node embedding [signal value; spatial eigenmap; time encoding].

    ``x`` is the full stacked signal (observations plus current prediction);
    rows follow the flat node ordering.
    """
    if eigmap is None:
        eigmap = spatial_eigenmap(pg)
    n = pg.n_stations
    n_instants = len(t_stamps)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n * n_instants,):
        raise ValueError("signal length does not match stations x instants")
    temb = temporal_embedding(t_stamps)
    out = np.empty((n * n_instants, 1 + eigmap.shape[1] + TEMPORAL_DIM))
    out[:, 0] = x
    out[:, 1 : 1 + eigmap.shape[1]] = np.tile(eigmap, (n_instants, 1))
    out[:, 1 + eigmap.shape[1] :] = np.repeat(temb, n, axis=0)
    return out


def _swish(v: np.ndarray, beta: float) -> np.ndarray:
    return v / (1.0 + np.exp(-beta * v))


@dataclass(eq=False)
class FeatureMap:
    """Fixed affine projection of embeddings to the feature space.

    Optionally averages each node's embedding with its one-hop spatial
    neighborhood first, and applies a swish nonlinearity after.
    """

    projection: np.ndarray  # (K, E)
    bias: np.ndarray | None = None
    aggregate_neighbors: bool = False
    swish_beta: float | None = None

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        if not np.all(np.isfinite(self.projection)):
            raise ValueError("projection must be finite")
        if self.projection.ndim != 2 or self.projection.shape[0] < 1:
            raise ValueError("projection must be a (K, E) matrix with K >= 1")

    @classmethod
    def default(cls, embed_dim: int, feature_dim: int = DEFAULT_FEATURE_DIM, seed: int = 0,
                aggregate_neighbors: bool = False, swish_beta: float | None = None) -> "FeatureMap":
        rng = np.random.default_rng(seed)
        proj = rng.standard_normal((feature_dim, embed_dim)) / np.sqrt(embed_dim)
        return cls(proj, aggregate_neighbors=aggregate_neighbors, swish_beta=swish_beta)

    def __call__(self, embeddings: np.ndarray, skel: SpatialSkeleton | None = None) -> np.ndarray:
        emb = embeddings
        if self.aggregate_neighbors:
            if skel is None:
                raise ValueError("neighbor aggregation needs the spatial skeleton")
            n = skel.n_stations
            n_instants = emb.shape[0] // n
            ei, ej = skel.edges[:, 0], skel.edges[:, 1]
            # CSR sorts each row, so neighbors are summed in ascending order
            adj = sp.csr_matrix(
                (np.ones(2 * len(ei)), (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
                shape=(n, n),
            )
            deg = np.diff(adj.indptr)
            has = deg > 0
            # stations as rows, (instant, feature) as columns: one product sums
            # every station's neighbors at every instant
            by_time = emb.reshape(n_instants, n, -1)
            nbr_sum = (adj @ by_time.transpose(1, 0, 2).reshape(n, -1)).reshape(n, n_instants, -1)
            agg = by_time.copy()
            agg[:, has] = 0.5 * (by_time[:, has] + nbr_sum[has].transpose(1, 0, 2) / deg[has, None])
            emb = agg.reshape(emb.shape)
        feats = emb @ self.projection.T
        if self.bias is not None:
            feats = feats + self.bias
        if self.swish_beta is not None:
            feats = _swish(feats, self.swish_beta)
        return feats


@dataclass(eq=False)
class MetricMatrix:
    """PSD metric M = M0' M0 learned through its square factor."""

    factor: np.ndarray  # (K, K)

    def __post_init__(self):
        self.factor = np.asarray(self.factor, dtype=np.float64)
        if self.factor.ndim != 2 or self.factor.shape[0] != self.factor.shape[1]:
            raise ValueError("metric factor must be square")

    @property
    def metric(self) -> np.ndarray:
        return self.factor.T @ self.factor


def mahalanobis(f_i: np.ndarray, f_j: np.ndarray, m: MetricMatrix) -> float:
    d = np.asarray(f_i, dtype=np.float64) - np.asarray(f_j, dtype=np.float64)
    if d.shape[0] != m.factor.shape[0]:
        raise ValueError("feature dimension does not match metric")
    md = m.factor @ d
    return float(md @ md)


def _pairwise_distances(diffs: np.ndarray, m: MetricMatrix) -> np.ndarray:
    """Mahalanobis distances for a batch of difference vectors (E, K)."""
    md = diffs @ m.factor.T
    return np.einsum("ek,ek->e", md, md)


@dataclass(eq=False)
class MetricBank:
    """Per-head metric sets: one per instant (spatial) and one per lag (temporal)."""

    undirected: list[list[MetricMatrix]]  # [head][instant]
    directed: list[list[MetricMatrix]]  # [head][lag-1]

    @property
    def heads(self) -> int:
        return len(self.undirected)

    @classmethod
    def default(
        cls,
        n_instants: int,
        window: int,
        feature_dim: int = DEFAULT_FEATURE_DIM,
        heads: int = 1,
        scale_u: np.ndarray | float = 1.0,
        scale_d: np.ndarray | float = 1.0,
    ) -> "MetricBank":
        """Diagonal initialization: 1.5 I per instant, (1 + 0.2 w/W) I per lag.

        Per-head scale factors multiply the diagonal fills so heads can be
        made distinct without loading explicit matrices.
        """
        su = np.broadcast_to(np.asarray(scale_u, dtype=float), (heads,))
        sd = np.broadcast_to(np.asarray(scale_d, dtype=float), (heads,))
        eye = np.eye(feature_dim)
        und = [
            [MetricMatrix(1.5 * su[h] * eye) for _ in range(n_instants)]
            for h in range(heads)
        ]
        dire = [
            [MetricMatrix((1.0 + 0.2 * w / window) * sd[h] * eye) for w in range(1, window + 1)]
            for h in range(heads)
        ]
        return cls(und, dire)


def undirected_weights(
    features: np.ndarray,
    skel: SpatialSkeleton,
    metrics: list[MetricMatrix],
) -> np.ndarray:
    """Per-instant spatial edge weights, shape (n_instants, n_edges).

    w_ij = exp(-d_ij) / sqrt(sum_l exp(-d_il) * sum_k exp(-d_jk)) with the
    sums running over the skeleton neighborhoods; symmetric by construction.
    """
    n = skel.n_stations
    n_instants = len(metrics)
    if features.shape[0] != n * n_instants:
        raise ValueError("feature rows must equal stations x instants")
    ei, ej = skel.edges[:, 0], skel.edges[:, 1]
    out = np.empty((n_instants, skel.n_edges))
    for t, metric in enumerate(metrics):
        feats = features[t * n : (t + 1) * n]
        d = _pairwise_distances(feats[ei] - feats[ej], metric)
        # shifting all distances cancels between numerator and denominator
        e = np.exp(-(d - d.min())) if len(d) else d
        sums = np.zeros(n)
        np.add.at(sums, ei, e)
        np.add.at(sums, ej, e)
        norm = np.sqrt(sums[ei] * sums[ej])
        if np.any(norm == 0):
            raise DegenerateWeightError("zero attention mass", instant=t)
        out[t] = e / norm
    return out


def directed_weights(
    features: np.ndarray,
    skel: DirectedSkeleton,
    metrics: list[MetricMatrix],
) -> np.ndarray:
    """Temporal edge weights: softmax over each child's predecessor set.

    The distance for an edge uses the metric of its lag; incoming weights of
    every non-source node sum to one.
    """
    if skel.n_edges == 0:
        return np.zeros(0)
    if skel.lag.max() > len(metrics):
        raise ValueError(f"need a metric for every lag up to {skel.lag.max()}")
    d = np.empty(skel.n_edges)
    for w in np.unique(skel.lag):
        sel = skel.lag == w
        metric = metrics[int(w) - 1]
        d[sel] = _pairwise_distances(features[skel.dst[sel]] - features[skel.src[sel]], metric)
    # per-child stable softmax
    dmin = np.full(skel.n_nodes, np.inf)
    np.minimum.at(dmin, skel.dst, d)
    e = np.exp(-(d - dmin[skel.dst]))
    denom = np.zeros(skel.n_nodes)
    np.add.at(denom, skel.dst, e)
    return e / denom[skel.dst]


def build_mixed_graph(
    weights_u: np.ndarray,
    weights_d: np.ndarray,
    sskel: SpatialSkeleton,
    tskel: TemporalSkeleton,
    n_observed: int,
    with_undirected_temporal: bool = True,
) -> MixedGraph:
    """Assemble all operators from skeletons and weight maps.

    Directed weights are already child-normalized, so the in-degree
    normalization inside the random-walk assembly leaves them unchanged.
    """
    if weights_u.shape[0] != tskel.n_instants:
        raise ValueError("spatial weight map and temporal skeleton disagree on instants")
    l_u = assemble_undirected_laplacian(sskel, weights_u)
    w_rd, l_rd = assemble_random_walk_digraph(tskel, weights_d)
    l_n = None
    if with_undirected_temporal:
        l_n = _undirected_temporal_laplacian(tskel, weights_d)
    return MixedGraph(
        n_stations=sskel.n_stations,
        n_instants=weights_u.shape[0],
        n_observed=n_observed,
        l_u=l_u,
        w_rd=w_rd,
        l_rd=l_rd,
        call_rd=symmetrized_dglr_matrix(l_rd),
        l_n=l_n,
    )


def _undirected_temporal_laplacian(tskel: TemporalSkeleton, weights_d: np.ndarray):
    """Normalized Laplacian of the symmetrized temporal graph.

    Each directed edge contributes half its weight to the undirected edge
    (the average with the absent reverse edge); self-loops are dropped.
    """
    n = tskel.n_nodes
    half = 0.5 * np.asarray(weights_d, dtype=np.float64)
    w = sp.coo_matrix(
        (
            np.concatenate([half, half]),
            (np.concatenate([tskel.src, tskel.dst]), np.concatenate([tskel.dst, tskel.src])),
        ),
        shape=(n, n),
    ).tocsr()
    return normalized_laplacian(w)


def multi_head_graphs(
    features_per_head: list[np.ndarray] | np.ndarray,
    sskel: SpatialSkeleton,
    tskel: TemporalSkeleton,
    bank: MetricBank,
    n_observed: int,
    with_undirected_temporal: bool = False,
) -> list[MixedGraph]:
    """One MixedGraph per head; features may be shared or given per head."""
    out = []
    for h in range(bank.heads):
        feats = features_per_head[h] if isinstance(features_per_head, list) else features_per_head
        try:
            wu = undirected_weights(feats, sskel, bank.undirected[h])
        except DegenerateWeightError as exc:
            exc.head = h
            raise
        wd = directed_weights(feats, tskel, bank.directed[h])
        out.append(
            build_mixed_graph(wu, wd, sskel, tskel, n_observed, with_undirected_temporal)
        )
    return out

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

    Raised with the instant, and with the lane as ``head`` when the weights of
    several lanes are computed together; the forward pass adds the block and
    splits the lane into window and head on the same exception, so the
    message names each place once.
    """

    def __init__(self, message, *, block=None, window=None, head=None, instant=None):
        super().__init__(message)
        self.message = message
        self.block = block
        self.window = window
        self.head = head
        self.instant = instant

    def __str__(self):
        where = [
            f"{label} {value}"
            for label, value in (
                ("block", self.block), ("window", self.window), ("head", self.head),
                ("instant", self.instant),
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


def seeded_projection(
    embed_dim: int, feature_dim: int = DEFAULT_FEATURE_DIM, seed: int = 0
) -> np.ndarray:
    """Random (feature_dim, embed_dim) projection with entries N(0, 1/embed_dim)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((feature_dim, embed_dim)) / np.sqrt(embed_dim)


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
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)

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


def _pairwise_distances(diffs: np.ndarray, factors_t: np.ndarray) -> np.ndarray:
    """Mahalanobis distances of differences (..., E, K) under transposed factors (..., K, K).

    Leading axes broadcast, so one call serves every head; each head's
    distances are bitwise those of a call with that head alone.
    """
    md = diffs @ factors_t
    return np.einsum("...ek,...ek->...e", md, md)


def _rows(features: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Feature rows of ``nodes``, (..., len(nodes), K). ``np.take`` gathers
    them from a (lanes, nodes, K) array about twice as fast as ``[..., nodes, :]``."""
    return np.take(features, nodes, axis=-2)


def _transposed_factors(factors) -> tuple[np.ndarray, bool]:
    """Transposed factors M0' as (heads, count, K, K), and whether the head axis was absent.

    ``factors`` is (heads, count, K, K), or the one-head form: (count, K, K)
    or a list of K x K arrays. Stored contiguously, because a product with
    the strided view ``factor.T`` under a head axis runs several times slower.
    """
    factors = np.asarray(factors, dtype=np.float64)
    single = factors.ndim == 3
    return np.ascontiguousarray((factors[None] if single else factors).swapaxes(-1, -2)), single


@dataclass(eq=False)
class MetricBank:
    """Per-head factors M0 of the PSD metrics M = M0' M0: one per instant
    (spatial) and one per lag (temporal), lag w at index w - 1."""

    undirected: np.ndarray  # (heads, instants, K, K)
    directed: np.ndarray  # (heads, window, K, K)

    @property
    def heads(self) -> int:
        return self.undirected.shape[0]

    def head(self, h: int) -> "MetricBank":
        """Head ``h`` alone, as a one-head bank."""
        return MetricBank(self.undirected[h : h + 1], self.directed[h : h + 1])

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
        und = (1.5 * su)[:, None, None, None] * eye
        lag_scale = 1.0 + 0.2 * np.arange(1, window + 1) / window
        dire = (lag_scale * sd[:, None])[..., None, None] * eye
        return cls(np.repeat(und, n_instants, axis=1), dire)


def undirected_weights(
    features: np.ndarray,
    skel: SpatialSkeleton,
    factors,
) -> np.ndarray:
    """Per-instant spatial edge weights, shape (n_instants, n_edges).

    w_ij = exp(-d_ij) / sqrt(sum_l exp(-d_il) * sum_k exp(-d_jk)) with the
    sums running over the skeleton neighborhoods; symmetric by construction.

    ``factors`` holds one metric factor per instant, or one such set per
    head (see ``MetricBank``); with heads the result is (heads, n_instants,
    n_edges), every head computed at once per instant, and ``features`` may
    be shared (nodes, K) or per head (heads, nodes, K).
    """
    factors_t, single = _transposed_factors(factors)
    n_heads, n_instants = factors_t.shape[:2]
    n = skel.n_stations
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-2] != n * n_instants:
        raise ValueError("feature rows must equal stations x instants")
    out = np.empty((n_heads, n_instants, skel.n_edges))
    if skel.n_edges:
        ei, ej = skel.edges[:, 0], skel.edges[:, 1]
        # each head's neighborhood sums in one bincount, head h's stations at h * n
        ends = (np.arange(n_heads)[:, None] * n + np.concatenate([ei, ej])).ravel()
        for t in range(n_instants):
            feats = features[..., t * n : (t + 1) * n, :]
            d = _pairwise_distances(_rows(feats, ei) - _rows(feats, ej), factors_t[:, t])
            # shifting all distances cancels between numerator and denominator
            e = np.exp(-(d - d.min(axis=-1, keepdims=True)))
            sums = np.bincount(ends, weights=np.concatenate([e, e], axis=-1).ravel(),
                               minlength=n_heads * n).reshape(n_heads, n)
            norm = np.sqrt(sums[:, ei] * sums[:, ej])
            degenerate = np.flatnonzero((norm == 0).any(axis=-1))
            if len(degenerate):
                raise DegenerateWeightError(
                    "zero attention mass", head=None if single else int(degenerate[0]), instant=t
                )
            out[:, t] = e / norm
    return out[0] if single else out


def directed_weights(
    features: np.ndarray,
    skel: DirectedSkeleton,
    factors,
) -> np.ndarray:
    """Temporal edge weights: softmax over each child's predecessor set.

    The distance for an edge uses the metric of its lag; incoming weights of
    every non-source node sum to one. ``factors`` holds one metric factor per
    lag, or one such set per head, which gives a (heads, n_edges) result.
    """
    factors_t, single = _transposed_factors(factors)
    n_heads = factors_t.shape[0]
    if skel.n_edges == 0:
        return np.zeros(0) if single else np.zeros((n_heads, 0))
    if skel.lag.max() > factors_t.shape[1]:
        raise ValueError(f"need a metric for every lag up to {skel.lag.max()}")
    features = np.asarray(features, dtype=np.float64)
    d = np.empty((n_heads, skel.n_edges))
    for w in np.unique(skel.lag):
        sel = np.flatnonzero(skel.lag == w)
        if isinstance(skel, TemporalSkeleton):
            # lag-w edges run (s, t - w) -> (s, t) in child order: two contiguous slices
            shift = w * skel.n_stations
            diffs = features[..., shift:, :] - features[..., :-shift, :]
        else:
            diffs = _rows(features, skel.dst[sel]) - _rows(features, skel.src[sel])
        d[:, sel] = _pairwise_distances(diffs, factors_t[:, w - 1])
    # per-child stable softmax; head h's children are numbered from h * n_nodes
    child = (np.arange(n_heads)[:, None] * skel.n_nodes + skel.dst).ravel()
    d = d.ravel()
    dmin = np.full(n_heads * skel.n_nodes, np.inf)
    np.minimum.at(dmin, child, d)
    e = np.exp(-(d - dmin[child]))
    denom = np.bincount(child, weights=e, minlength=n_heads * skel.n_nodes)
    out = (e / denom[child]).reshape(n_heads, skel.n_edges)
    return out[0] if single else out


def build_mixed_graph(
    weights_u: np.ndarray,
    weights_d: np.ndarray,
    sskel: SpatialSkeleton,
    tskel: TemporalSkeleton,
    n_observed: int,
    with_undirected_temporal: bool = True,
) -> MixedGraph:
    """Assemble all operators from skeletons and weight maps.

    Weights of several lanes, (lanes, n_instants, n_edges) and (lanes,
    n_temporal_edges), give one graph with a lane each: each operator is
    assembled once, over the lanes' (lane, instant) slices and a temporal
    skeleton repeated per lane, and is bitwise the block-diagonal stack of
    the lanes' own operators. Directed weights are already child-normalized,
    so the in-degree normalization inside the random-walk assembly leaves
    them unchanged.
    """
    weights_u = np.asarray(weights_u, dtype=np.float64)
    weights_d = np.asarray(weights_d, dtype=np.float64)
    lanes = weights_u.shape[0] if weights_u.ndim == 3 else 1
    if weights_u.shape[-2] != tskel.n_instants:
        raise ValueError("spatial weight map and temporal skeleton disagree on instants")
    l_u = assemble_undirected_laplacian(
        sskel, weights_u.reshape(lanes * tskel.n_instants, weights_u.shape[-1])
    )
    lane_skel = _lane_skeleton(tskel, lanes)
    w_rd, l_rd = assemble_random_walk_digraph(lane_skel, weights_d.ravel())
    l_n = None
    if with_undirected_temporal:
        l_n = _undirected_temporal_laplacian(lane_skel, weights_d.ravel())
    return MixedGraph(
        n_stations=sskel.n_stations,
        n_instants=tskel.n_instants,
        n_observed=n_observed,
        l_u=l_u,
        w_rd=w_rd,
        l_rd=l_rd,
        call_rd=symmetrized_dglr_matrix(l_rd),
        l_n=l_n,
        lanes=lanes,
    )


def _lane_skeleton(tskel: TemporalSkeleton, lanes: int) -> DirectedSkeleton:
    """The temporal skeleton once per lane, lane h's node ids offset by h * n_nodes."""
    if lanes == 1:
        return tskel
    offsets = np.arange(lanes)[:, None] * tskel.n_nodes
    return DirectedSkeleton(
        n_nodes=lanes * tskel.n_nodes,
        src=(offsets + tskel.src).ravel(),
        dst=(offsets + tskel.dst).ravel(),
        lag=np.tile(tskel.lag, lanes),
        sources=(offsets + tskel.sources).ravel(),
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
    features: np.ndarray,
    sskel: SpatialSkeleton,
    tskel: TemporalSkeleton,
    bank: MetricBank,
    n_observed: int,
    with_undirected_temporal: bool = False,
) -> MixedGraph:
    """The graphs of every head of one or more windows as one MixedGraph.

    Features are shared by the heads of one window, (nodes, K), or given per
    lane, (lanes, nodes, K), for ``lanes // bank.heads`` windows: lanes run
    window-major, head-minor, and the bank's factors repeat once per window.
    Lane l equals, bit for bit, the graph ``build_mixed_graph`` makes from
    lane l's weights alone.
    """
    windows = 1
    if np.ndim(features) == 3:
        windows, rest = divmod(np.shape(features)[0], bank.heads)
        if rest or not windows:
            raise ValueError(
                f"{np.shape(features)[0]} feature lanes for a bank of {bank.heads} heads"
            )
    per_window = (windows, 1, 1, 1)
    wu = undirected_weights(features, sskel, np.tile(bank.undirected, per_window))
    wd = directed_weights(features, tskel, np.tile(bank.directed, per_window))
    return build_mixed_graph(wu, wd, sskel, tskel, n_observed, with_undirected_temporal)

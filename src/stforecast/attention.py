"""Data-dependent edge weights via Mahalanobis distances.

This is the self-attention analogue: node embeddings (signal value, spatial
eigenmap coordinates, sinusoidal time encoding), optionally averaged over
spatial-skeleton neighbors, are projected to a small feature space, compared
under learned PSD metrics, and turned into normalized edge weights. Spatial
slices get one metric per instant, temporal edges one metric per lag, and the
whole construction is replicated per head. The projection is always the
seeded one (``seeded_projection``). Spatial weights take every lane and
every instant in one pass, temporal weights one pass per lag. A
neighbourhood whose every weight underflows, or whose features are not
finite, raises ``DegenerateWeightError``, a ``NumericFailure`` of that lane;
no weight these functions return is non-finite, which the graph assembly
rejects.

A mixed graph is assembled in two steps: ``plan_mixed_graph`` fixes every
operator's pattern once for a graph shape and lane count, and
``fill_mixed_graph`` fills a block's weights into it. The plan's patterns
are final: a filled entry that comes out exactly 0.0 is stored as +0.0,
where scipy's sparse arithmetic (``oracles.coo_operators``) stores none.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from .graphs import (
    Band,
    DirectedSkeleton,
    LaplacianPlan,
    MixedGraph,
    NumericFailure,
    Operator,
    Pattern,
    PhysicalGraph,
    RandomWalkPlan,
    SpatialSkeleton,
    TemporalSkeleton,
    assemble_random_walk_digraph,
    assemble_undirected_laplacian,
    band_transpose,
    components_by_size,
    coo_pattern,
    plan_random_walk_digraph,
    plan_undirected_laplacian,
    symmetrized_dglr_matrix,
    unit_laplacian,
)

TEMPORAL_DIM = 10
DEFAULT_SPATIAL_DIM = 5
DEFAULT_FEATURE_DIM = 6
# Connected components of up to this many stations are solved by dense
# ``eigh``, O(k^3) time and O(k^2) memory each; larger ones by sparse
# shift-invert Lanczos.
DENSE_COMPONENT_MAX_STATIONS = 200
EIGSH_SHIFT = -1e-2


class DegenerateWeightError(NumericFailure, ValueError):
    """Attention weights underflowed to zero: all of some spatial
    neighborhood's, or one temporal edge's.

    Raised with the instant and the lane; the forward pass splits the lane
    into window and head. A ``ValueError`` too, so a caller that rejects bad
    input rejects it.
    """


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
    Zero-padded if the graph has fewer than ``dim`` nontrivial modes. Every
    connected component is solved on its own (``smallest_eigenpairs``), so
    each column is nonzero on one component only, at every station count.
    """
    n = pg.n_stations
    lap = unit_laplacian(pg)
    n_components, labels = connected_components(lap, directed=False)
    if n_components > 1:
        warnings.warn(f"road graph has {n_components} connected components", stacklevel=2)
    avail = min(dim, n - 1)
    vecs = smallest_eigenpairs(lap, avail + 1, labels)[1]
    out = np.zeros((n, dim))
    out[:, :avail] = orient_columns(vecs[:, 1:])
    return out


def smallest_eigenpairs(lap: sp.spmatrix, count: int,
                        labels: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` smallest eigenpairs of a graph Laplacian, ascending.

    Each connected component is solved on its own: every component adds one
    copy of eigenvalue 0, and Lanczos from one start vector finds the copies
    of a multiple eigenvalue only through rounding and can miss some.
    ``labels``, the component of each node as ``connected_components`` gives
    it, is computed when not given. The components of at most
    max(``count`` + 1, ``DENSE_COMPONENT_MAX_STATIONS``) nodes are solved by
    dense ``eigh``, one stacked call per size (``components_by_size``), each
    stack cut out of ``lap``, a CSR matrix, by scipy indexing; a larger
    component by shift-invert Lanczos about a small negative shift
    (``lap - shift I`` is positive definite and factorizes once). The fixed
    start vector makes repeated calls bitwise equal; it is not the all-ones
    vector, an exact eigenvector. Ties between eigenvalues go to the lower
    component label.
    """
    if labels is None:
        labels = connected_components(lap, directed=False)[1]
    dense_max = max(count + 1, DENSE_COMPONENT_MAX_STATIONS)
    # per part: members (C, k), eigenvalues (C, j) and eigenvectors (C, k, j)
    parts = []
    for members in components_by_size(labels):
        k = members.shape[1]
        if k <= dense_max:
            # the group's block-diagonal slice: entry (r, q) is in block r // k
            nodes = members.ravel()
            sub = lap[nodes][:, nodes].tocoo()
            blocks = np.zeros((len(members), k, k))
            blocks[sub.row // k, sub.row % k, sub.col % k] = sub.data
            v, vec = np.linalg.eigh(blocks)
            parts.append((members, v[:, :count], vec[:, :, :count]))
            continue
        for idx in members:
            v0 = np.random.default_rng(0).standard_normal(k)
            v, vec = eigsh(lap[idx][:, idx].tocsc(), k=count, sigma=EIGSH_SHIFT, which="LM", v0=v0)
            order = np.argsort(v, kind="stable")
            parts.append((idx[None], v[order][None], vec[:, order][None]))
    # every eigenpair by (value, component label, column)
    vals = np.concatenate([v.ravel() for _, v, _ in parts])
    label = np.concatenate([np.repeat(labels[m[:, 0]], v.shape[1]) for m, v, _ in parts])
    column = np.concatenate([np.tile(np.arange(v.shape[1]), len(v)) for _, v, _ in parts])
    part = np.repeat(np.arange(len(parts)), [v.size for _, v, _ in parts])
    row = np.concatenate([np.repeat(np.arange(len(v)), v.shape[1]) for _, v, _ in parts])
    pick = np.lexsort((column, label, vals))[:count]
    out = np.zeros((lap.shape[0], count))
    for c, p in enumerate(pick):
        members, _, vecs = parts[part[p]]
        out[members[row[p]], c] = vecs[row[p], :, column[p]]
    return vals[pick], out


def orient_columns(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its first component above 1e-12 in magnitude is positive."""
    out = vecs.copy()
    for c in range(out.shape[1]):
        nz = np.flatnonzero(np.abs(out[:, c]) > 1e-12)
        if len(nz) and out[nz[0], c] < 0:
            out[:, c] = -out[:, c]
    return out


def embed(x: np.ndarray, t_stamps: np.ndarray, eigmap: np.ndarray) -> np.ndarray:
    """Per-node embedding [signal value; spatial eigenmap; time encoding].

    ``x`` is the full stacked signal (observations plus current prediction);
    rows follow the flat node ordering. ``eigmap`` has one row per station.
    """
    n = eigmap.shape[0]
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

    With a ``skeleton``, each node's embedding is first averaged with its
    one-hop neighborhood in that spatial skeleton; a ``swish_beta`` applies
    a swish nonlinearity after.
    """

    projection: np.ndarray  # (K, E)
    bias: np.ndarray | None = None
    skeleton: SpatialSkeleton | None = None
    swish_beta: float | None = None

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        if not np.all(np.isfinite(self.projection)):
            raise ValueError("projection must be finite")
        if self.projection.ndim != 2 or self.projection.shape[0] < 1:
            raise ValueError("projection must be a (K, E) matrix with K >= 1")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.skeleton is not None:
            n = self.skeleton.n_stations
            ei, ej = self.skeleton.edges[:, 0], self.skeleton.edges[:, 1]
            # CSR sorts each row, so neighbors are summed in ascending order
            self._adjacency = sp.csr_matrix(
                (np.ones(2 * len(ei)), (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
                shape=(n, n),
            )

    def __call__(self, embeddings: np.ndarray) -> np.ndarray:
        emb = embeddings
        if self.skeleton is not None:
            adj = self._adjacency
            n = adj.shape[0]
            n_instants = emb.shape[0] // n
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

    Leading axes broadcast, so one call serves every window and head; each
    lane's distances are bitwise those of a call with that lane alone.
    """
    md = diffs @ factors_t
    return np.einsum("...ek,...ek->...e", md, md)


def _rows(features: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Feature rows of ``nodes``, (..., len(nodes), K). ``np.take`` gathers
    them from a (windows, 1, nodes, K) array about twice as fast as ``[..., nodes, :]``."""
    return np.take(features, nodes, axis=-2)


def _lane_inputs(features, factors) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Features (..., 1, nodes, K), transposed factors M0' (heads, count, K, K)
    and the weights' lane axes.

    The size-1 axis broadcasts the features over the heads. Factors in the
    one-head form, (count, K, K) or a list of K x K arrays, add no head axis.
    The transposes are stored contiguously, because a product with the
    strided view ``factor.T`` under a head axis runs several times slower.
    """
    features = np.asarray(features, dtype=np.float64)
    factors = np.asarray(factors, dtype=np.float64)
    factors_t = factors.reshape((-1,) + factors.shape[-3:]).swapaxes(-1, -2)
    lane_axes = features.shape[:-2] + factors.shape[:-3]
    return features[..., None, :, :], np.ascontiguousarray(factors_t), lane_axes


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

    ``features`` are one window's, (nodes, K), or one set per window,
    (windows, nodes, K), read by every head. ``factors`` holds one metric
    factor per instant, or one such set per head (see ``MetricBank``). The
    result has the windows' axis and the heads' in front. Every lane and
    every instant is taken in one pass, each bitwise equal to its window,
    head and instant alone; the pass holds lanes x instants x edges x K
    distance products, and the forward pass bounds its lanes by
    ``solver.LANE_NODE_BUDGET``.
    """
    features, factors_t, lane_axes = _lane_inputs(features, factors)
    lanes, n_instants = int(np.prod(lane_axes)), factors_t.shape[1]
    n = skel.n_stations
    if features.shape[-2] != n * n_instants:
        raise ValueError("feature rows must equal stations x instants")
    if not skel.n_edges:
        return np.empty(lane_axes + (n_instants, 0))
    ei, ej = skel.edges[:, 0], skel.edges[:, 1]
    by_instant = features.reshape(features.shape[:-2] + (n_instants, n, features.shape[-1]))
    # non-finite features give NaN or infinite distances, silently: the mass
    # check below reports them
    with np.errstate(invalid="ignore", over="ignore"):
        diffs = _rows(by_instant, ei) - _rows(by_instant, ej)
        d = _pairwise_distances(diffs, factors_t).reshape(lanes, n_instants, -1)
        # shifting all distances cancels between numerator and denominator
        e = np.exp(-(d - d.min(axis=-1, keepdims=True)))
    # each (lane, instant)'s neighborhood sums in one bincount, its stations
    # at (lane * instants + instant) * n
    slices = lanes * n_instants
    ends = (np.arange(slices)[:, None] * n + np.concatenate([ei, ej])).ravel()
    sums = np.bincount(ends, weights=np.concatenate([e, e], axis=-1).ravel(),
                       minlength=slices * n).reshape(lanes, n_instants, n)
    norm = np.sqrt(sums[..., ei] * sums[..., ej])
    # the first instant with a degenerate lane, then its first such lane: a
    # zero mass, or a NaN one from non-finite features
    degenerate = np.flatnonzero(~(norm > 0).all(axis=-1).T)
    if len(degenerate):
        t, lane = divmod(int(degenerate[0]), lanes)
        raise DegenerateWeightError("zero attention mass", instant=t, lane=lane)
    return (e / norm).reshape(lane_axes + (n_instants, skel.n_edges))


def directed_weights(
    features: np.ndarray,
    skel: DirectedSkeleton,
    factors,
) -> np.ndarray:
    """Temporal edge weights: softmax over each child's predecessor set.

    The distance for an edge uses the metric of its lag; incoming weights of
    every non-source node sum to one. ``features`` and ``factors`` take the
    forms ``undirected_weights`` takes, with one factor per lag, and the
    result has the same lane axes before (n_edges,). A weight that
    underflows to zero names its lane and its child's instant.
    """
    features, factors_t, lane_axes = _lane_inputs(features, factors)
    lanes = int(np.prod(lane_axes))
    if skel.n_edges == 0:
        return np.zeros(lane_axes + (0,))
    if skel.lag.max() > factors_t.shape[1]:
        raise ValueError(f"need a metric for every lag up to {skel.lag.max()}")
    temporal = isinstance(skel, TemporalSkeleton)
    d = np.empty((lanes, skel.n_edges))
    # non-finite features give NaN or infinite distances, silently: the
    # weight check below reports them
    with np.errstate(invalid="ignore", over="ignore"):
        for w, sel in skel.lag_edges:
            if temporal:
                # lag-w edges run (s, t - w) -> (s, t) in child order: two contiguous slices
                shift = w * skel.n_stations
                diffs = features[..., shift:, :] - features[..., :-shift, :]
            else:
                diffs = _rows(features, skel.dst[sel]) - _rows(features, skel.src[sel])
            d[:, sel] = _pairwise_distances(diffs, factors_t[:, w - 1]).reshape(lanes, -1)
        # per-child stable softmax; lane l's children are numbered from l * n_nodes
        child = (np.arange(lanes)[:, None] * skel.n_nodes + skel.dst).ravel()
        d = d.ravel()
        dmin = np.full(lanes * skel.n_nodes, np.inf)
        np.minimum.at(dmin, child, d)
        e = np.exp(-(d - dmin[child]))
        denom = np.bincount(child, weights=e, minlength=lanes * skel.n_nodes)
        out = e / denom[child]
    zero = np.flatnonzero(~(out > 0))  # or NaN, from non-finite features
    if len(zero):
        lane, edge = divmod(int(zero[0]), skel.n_edges)
        instant = int(skel.dst[edge] // skel.n_stations) if temporal else None
        raise DegenerateWeightError("zero temporal attention weight", instant=instant, lane=lane)
    return out.reshape(lane_axes + (skel.n_edges,))


@dataclass(frozen=True, eq=False)
class GraphPlan:
    """What every mixed graph of one shape shares, whatever its weights.

    The skeletons, the lane count and the observed prefix fix the plans of
    ``assemble_undirected_laplacian`` (over every lane's instants) and
    ``assemble_random_walk_digraph`` (over the temporal skeleton repeated
    per lane: L_r and L_r' as bands), the mask ``h_mask``, which
    carries the prefix, and ``temporal``, the one banded pattern of
    L_r'L_r and, when planned, ``l_n``: every pair of a station's nodes
    within the window (``_window_pattern``). With ``l_n``,
    ``adjacency`` holds the pattern of the symmetrized temporal adjacency,
    the directed edge each of its entries reads, each entry's row and its
    flat position in ``temporal``'s band. Every filled operator sits on its
    plan's pattern (``patterns``).
    """

    sskel: SpatialSkeleton
    tskel: TemporalSkeleton
    lanes: int
    l_u: LaplacianPlan
    walk: RandomWalkPlan
    temporal: Pattern
    adjacency: tuple[Pattern, np.ndarray, np.ndarray, np.ndarray] | None
    h_mask: np.ndarray

    @property
    def patterns(self) -> dict:
        """The pattern of each planned operator, by name."""
        out = {"l_u": self.l_u.pattern, "l_rd": self.walk.l_rd, "l_rd_t": self.walk.l_rd_t,
               "call_rd": self.temporal}
        if self.adjacency is not None:
            out["l_n"] = self.temporal
        return out


def plan_mixed_graph(
    sskel: SpatialSkeleton,
    tskel: TemporalSkeleton,
    lanes: int,
    n_observed: int,
    with_undirected_temporal: bool,
) -> GraphPlan:
    """Plan the operators of a graph with ``lanes`` lanes, its first
    ``n_observed`` instants observed, with ``l_n`` when asked."""
    lane_skel = _lane_skeleton(tskel, lanes)
    l_u = plan_undirected_laplacian(sskel, lanes * tskel.n_instants)
    walk = plan_random_walk_digraph(lane_skel)
    temporal = _window_pattern(tskel, lanes)
    adjacency = None
    if with_undirected_temporal:
        n, src, dst = lane_skel.n_nodes, lane_skel.src, lane_skel.dst
        pattern, order = coo_pattern(np.concatenate([src, dst]), np.concatenate([dst, src]), n)
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        at = np.searchsorted(temporal.band.offsets, pattern.indices - rows) * n + pattern.indices
        adjacency = (pattern, order % max(lane_skel.n_edges, 1), rows, at)
    lane_mask = np.zeros(tskel.n_nodes, dtype=bool)
    lane_mask[: sskel.n_stations * n_observed] = True
    h_mask = np.tile(lane_mask, lanes)
    h_mask.flags.writeable = False
    return GraphPlan(sskel, tskel, lanes, l_u, walk, temporal, adjacency, h_mask)


def fill_mixed_graph(plan: GraphPlan, weights_u: np.ndarray, weights_d: np.ndarray) -> MixedGraph:
    """The operators of ``plan`` with the given weights, (lanes..., n_instants,
    n_edges) and (lanes..., n_temporal_edges).

    Lanes run in C order, and each operator is bitwise the block-diagonal
    stack of the lanes' own operators. Directed weights are already
    child-normalized, so the in-degree normalization inside the random-walk
    assembly leaves them unchanged.

    This is the one route that builds the operators, each on its plan's
    pattern, an entry that comes out exactly 0.0 stored as +0.0. L_r's
    values are written into its band once; L_r' is those diagonals shifted
    to their mirrors (``graphs.band_transpose``), and L_r'L_r is formed
    from them diagonal by diagonal (``symmetrized_dglr_matrix``). ``l_n``
    is written into its band from the plan's adjacency, in the sums scipy's
    I - D^-1/2 A D^-1/2 makes (``oracles.coo_operators``). Neither W_r,
    which no solver step applies, nor any scipy sparse matrix is built.
    """
    weights_u = np.asarray(weights_u, dtype=np.float64)
    weights_d = np.asarray(weights_d, dtype=np.float64)
    lanes = int(np.prod(weights_u.shape[:-2]))
    if lanes != plan.lanes:
        raise ValueError(f"weights of {lanes} lanes for a plan of {plan.lanes}")
    if weights_u.shape[-2] != plan.tskel.n_instants:
        raise ValueError("spatial weight map and temporal skeleton disagree on instants")
    l_u = assemble_undirected_laplacian(
        plan.l_u, weights_u.reshape(lanes * plan.tskel.n_instants, weights_u.shape[-1])
    )
    l_rd = assemble_random_walk_digraph(plan.walk, weights_d.ravel())
    l_rd_t = band_transpose(l_rd, plan.walk.l_rd_t)
    call_rd = symmetrized_dglr_matrix(l_rd_t, plan.temporal)
    l_n = None
    if plan.adjacency is not None:
        # each directed edge gives half its weight to the undirected edge (the
        # average with the absent reverse edge). I - S A S with S = D^-1/2,
        # D scipy's row sums (every node has a temporal edge), 1 on the
        # diagonal and 0.0 less (s_i a_ij) s_j off it
        adjacency, source, rows, at = plan.adjacency
        half = 0.5 * weights_d.ravel()[source]
        deg = np.add.reduceat(half, adjacency.indptr[:-1])
        linked = deg > 0
        scale = np.zeros_like(deg)
        scale[linked] = 1.0 / np.sqrt(deg[linked])
        values = np.zeros((len(plan.temporal.band.offsets), len(deg)))
        values.ravel()[at] = 0.0 - (scale[rows] * half) * scale[adjacency.indices]
        values[plan.temporal.band.zero] = linked
        l_n = Operator(plan.temporal, values)
    return MixedGraph(plan.sskel.n_stations, plan.tskel.n_instants, lanes, plan.h_mask,
                      l_u=l_u, l_rd=l_rd, l_rd_t=l_rd_t, call_rd=call_rd, l_n=l_n)


def build_mixed_graph(
    weights_u: np.ndarray,
    weights_d: np.ndarray,
    sskel: SpatialSkeleton,
    tskel: TemporalSkeleton,
    n_observed: int,
    with_undirected_temporal: bool = True,
) -> MixedGraph:
    """Assemble all operators from skeletons and weight maps, planned here
    (``plan_mixed_graph``) and filled (``fill_mixed_graph``).

    Weights with lane axes in front give one graph with a lane each, in C
    order, bitwise the block-diagonal stack of the lanes' own graphs.
    """
    lanes = int(np.prod(np.shape(weights_u)[:-2]))
    plan = plan_mixed_graph(sskel, tskel, lanes, n_observed, with_undirected_temporal)
    return fill_mixed_graph(plan, weights_u, weights_d)


def _window_pattern(tskel: TemporalSkeleton, lanes: int) -> Pattern:
    """L_r'L_r's pattern with its band, in closed form: every pair of a
    station's nodes within the window, 2W + 1 diagonals at offsets d N,
    |d| <= W, each cut at its lane's ends; index dtype as ``coo_pattern``'s."""
    n, w = tskel.n_stations, tskel.window
    d = np.arange(-w, w + 1)
    instant = np.arange(tskel.n_instants)[:, None] + d
    inside = np.broadcast_to(((instant >= 0) & (instant < tskel.n_instants))[None, :, None],
                             (lanes, tskel.n_instants, n, 2 * w + 1))
    nodes = np.arange(lanes * tskel.n_nodes).reshape(inside.shape[:-1])
    columns = (nodes[..., None] + d * n)[inside]
    idx = np.int32 if max(len(columns), nodes.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(nodes.size + 1, dtype=idx)
    indptr[1:] = np.cumsum(inside.sum(axis=-1).ravel())
    which = np.broadcast_to(np.arange(2 * w + 1), inside.shape)[inside]
    band = Band((d * n).astype(idx), which.astype(np.min_scalar_type(2 * w + 1)))
    return Pattern(indptr, columns.astype(idx), band)


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


def multi_head_graphs(features: np.ndarray, plan: GraphPlan, bank: MetricBank) -> MixedGraph:
    """The graphs of every head of one or more windows as one MixedGraph.

    ``features`` are one window's, (nodes, K), or one set per window,
    (windows, nodes, K), and every head of a window reads that window's
    features; ``plan`` is for windows x heads lanes. Lanes run window-major,
    head-minor; lane l equals, bit for bit, the graph ``build_mixed_graph``
    makes from lane l's weights alone.
    """
    wu = undirected_weights(features, plan.sskel, bank.undirected)
    wd = directed_weights(features, plan.tskel, bank.directed)
    return fill_mixed_graph(plan, wu, wd)

"""Mixed product-graph construction for spatio-temporal signals.

The node set is stations x instants, flattened time-major: node (s, t) sits at
flat index t*N + s, so the observed prefix of the signal occupies a contiguous
block of the stacked vector. Spatial edges are undirected and live within one
instant; temporal edges are directed, connect a station to itself at later
instants inside a fixed window, and therefore form a DAG. The spatial
skeleton keeps the road graph's connected components.

``NumericFailure`` is the one failure of a forward pass; it lives here, below
both ``attention`` and ``solver``, which raise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class NumericFailure(RuntimeError):
    """One lane of one block of a forward pass went bad; carries where.

    The lane's graph learning found no attention mass, or one of its solves
    produced non-finite values. Each caller on the way out fills in the
    fields it knows (CG iteration; layer and step; lane; block, window and
    head) on the same exception and re-raises it, so the message names each
    place once. ``lane`` is the failing lane of a stacked graph and
    ``entry`` the flat position of the first non-finite value, when seen;
    neither is printed.
    """

    PLACES = (("block", "block"), ("window", "window"), ("head", "head"),
              ("instant", "instant"), ("layer", "layer"), ("step", "step"),
              ("iteration", "cg iteration"))

    def __init__(self, message, *, block=None, window=None, head=None, instant=None, layer=None,
                 step=None, iteration=None, lane=None, entry=None):
        super().__init__(message)
        self.message = message
        self.block, self.window, self.head, self.instant = block, window, head, instant
        self.layer, self.step, self.iteration = layer, step, iteration
        self.lane, self.entry = lane, entry

    def __str__(self):
        where = [
            f"{label} {getattr(self, name)}"
            for name, label in self.PLACES
            if getattr(self, name) is not None
        ]
        return self.message + (f" ({', '.join(where)})" if where else "")


class DegenerateDegreeError(ValueError):
    """A non-source node ended up with zero incoming weight mass."""


class EdgeError(ValueError):
    """A ``PhysicalGraph`` edge failed validation; ``index`` is its position in ``edges``."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def flat_index(station: int, instant: int, n_stations: int) -> int:
    return instant * n_stations + station


# a road-network edge: two station ids and a cost
EDGE_DTYPE = np.dtype([("from", np.int64), ("to", np.int64), ("cost", np.float64)])

# PhysicalGraph's edge checks, in the order they are applied to one edge
_EDGE_CHECKS = (
    "self-edge at station {i}",
    "edge ({i},{j}) outside station range",
    "non-finite cost {cost} on edge ({i},{j})",
    "negative cost on edge ({i},{j})",
)


@dataclass(frozen=True, eq=False)
class PhysicalGraph:
    """Road network: stations plus undirected edges with finite nonnegative costs.

    ``edges``, given as ``(from, to, cost)`` triples or an ``EDGE_DTYPE`` table,
    is kept as a read-only ``EDGE_DTYPE`` table (of objects for ids beyond 64 bits).
    """

    n_stations: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n_stations <= 0:
            raise ValueError("station count must be positive")
        edges = self.edges
        if isinstance(edges, np.ndarray):
            if edges.dtype != EDGE_DTYPE or edges.ndim != 1:
                raise ValueError(f"edges must be a 1-D EDGE_DTYPE table, "
                                 f"got a {edges.ndim}-D {edges.dtype} array")
            table = edges.copy()
        else:
            edges = list(edges)
            try:
                table = np.array(edges, dtype=EDGE_DTYPE)
            except OverflowError:  # ids beyond 64 bits: compare them as Python ints
                table = np.array(edges, dtype=[(f, object) for f in EDGE_DTYPE.names])
        table.flags.writeable = False
        object.__setattr__(self, "edges", table)
        i, j, cost = table["from"], table["to"], table["cost"].astype(np.float64, copy=False)
        failed = np.array([
            i == j,
            (i < 0) | (i >= self.n_stations) | (j < 0) | (j >= self.n_stations),
            ~np.isfinite(cost),
            cost < 0,
        ], dtype=bool)
        bad = np.flatnonzero(failed.any(axis=0))
        index = bad[0] if len(bad) else len(edges)
        # a duplicate repeats the station pair of an earlier edge that passed
        # every check: a stable sort by pair puts each pair's first edge first
        lo, hi = np.minimum(i, j)[:index], np.maximum(i, j)[:index]
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        repeats = order[1:][(lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])]
        if len(repeats):
            index, message = repeats.min(), "duplicate edge ({i},{j})"
        elif index < len(edges):
            message = _EDGE_CHECKS[np.argmax(failed[:, index])]
        else:
            return
        i, j, cost = edges[index]
        raise EdgeError(int(index), message.format(i=i, j=j, cost=cost))


@dataclass(frozen=True, eq=False)
class SpatialSkeleton:
    """Per-instant undirected edge set over stations (shared by all instants)."""

    n_stations: int
    edges: np.ndarray  # (E, 2) with i < j, lexicographically sorted

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def build_spatial_skeleton(pg: PhysicalGraph, k: int) -> SpatialSkeleton:
    """Keep each station's k lowest-cost physical neighbors, symmetrize by union,
    then join the pieces the road graph connects.

    Ties on cost are broken toward the lower station id so builds are
    deterministic. The k-nearest union can split a connected road graph; then
    the cheapest road edges between pieces, ranked by (cost, lower id, higher
    id), are added along a minimum spanning forest of the pieces (Kruskal), so
    the skeleton has the road graph's connected components.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if pg.n_stations < 1:
        raise ValueError("empty physical graph")
    n = pg.n_stations
    ei, ej, cost = pg.edges["from"], pg.edges["to"], pg.edges["cost"]
    # both directions of every edge, ranked by (station, cost, neighbor)
    station = np.concatenate([ei, ej])
    nbr = np.concatenate([ej, ei])
    order = np.lexsort((nbr, np.concatenate([cost, cost]), station))
    station, nbr = station[order], nbr[order]
    rank = np.arange(len(station)) - np.searchsorted(station, station)
    keep = rank < k
    # each kept edge once as the key i * n + j with i < j; sorted keys are the
    # lexicographically sorted edge list
    key = np.unique(np.minimum(station, nbr)[keep] * n + np.maximum(station, nbr)[keep])
    key = _join_pieces(n, key, np.minimum(ei, ej), np.maximum(ei, ej), cost)
    return SpatialSkeleton(n_stations=n, edges=np.stack([key // n, key % n], axis=1))


def _join_pieces(n: int, key: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 cost: np.ndarray) -> np.ndarray:
    """Sorted edge keys ``key`` plus the road edges (lo, hi, cost) that join its pieces."""
    kept = sp.coo_matrix((np.ones(len(key)), (key // n, key % n)), shape=(n, n))
    piece = connected_components(kept, directed=False)[1]
    across = np.flatnonzero(piece[lo] != piece[hi])
    if not len(across):
        return key
    across = across[np.lexsort((hi[across], lo[across], cost[across]))]
    root = list(range(piece.max() + 1))  # union-find over the pieces

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    added = []
    for a, b, edge in zip(piece[lo[across]].tolist(), piece[hi[across]].tolist(),
                          (lo[across] * n + hi[across]).tolist()):
        a, b = find(a), find(b)
        if a != b:
            root[a] = b
            added.append(edge)
    return np.union1d(key, added)


@dataclass(frozen=True, eq=False)
class DirectedSkeleton:
    """Generic DAG over flat node ids; edges run src -> dst with a lag label."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    lag: np.ndarray
    sources: np.ndarray  # flat ids with zero in-degree

    @property
    def n_edges(self) -> int:
        return len(self.src)


def directed_skeleton_from_edges(n_nodes: int, edges) -> DirectedSkeleton:
    """Build a DirectedSkeleton from (src, dst) or (src, dst, lag) tuples."""
    if len({(e[0], e[1]) for e in edges}) != len(edges):
        raise ValueError("duplicate directed edge")
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    lag = np.array([e[2] if len(e) > 2 else 1 for e in edges], dtype=np.int64)
    indeg = np.zeros(n_nodes, dtype=np.int64)
    np.add.at(indeg, dst, 1)
    sources = np.flatnonzero(indeg == 0)
    return DirectedSkeleton(n_nodes, src, dst, lag, sources)


@dataclass(frozen=True, eq=False)
class TemporalSkeleton(DirectedSkeleton):
    """Windowed same-station DAG: (s, t) -> (s, t+d) for d = 1..window."""

    n_stations: int = 0
    n_instants: int = 0
    window: int = 0


def build_temporal_skeleton(n_stations: int, n_instants: int, window: int) -> TemporalSkeleton:
    if n_instants < 2:
        raise ValueError("need at least 2 instants")
    if not 1 <= window < n_instants:
        raise ValueError(f"window must satisfy 1 <= W < {n_instants}")
    # child-major order (instant, then lag, then station) keeps in-neighborhoods
    # contiguous
    t, lag = np.meshgrid(
        np.arange(1, n_instants, dtype=np.int64),
        np.arange(1, window + 1, dtype=np.int64),
        indexing="ij",
    )
    keep = lag <= t
    t, lag = t[keep], lag[keep]
    stations = np.arange(n_stations, dtype=np.int64)
    return TemporalSkeleton(
        n_nodes=n_stations * n_instants,
        src=flat_index(stations, (t - lag)[:, None], n_stations).ravel(),
        dst=flat_index(stations, t[:, None], n_stations).ravel(),
        lag=np.repeat(lag, n_stations),
        sources=stations,  # instant-0 nodes
        n_stations=n_stations,
        n_instants=n_instants,
        window=window,
    )


def assemble_undirected_laplacian(skel: SpatialSkeleton, weights: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal D - W over slices, usually instants.

    ``weights`` has shape (n_slices, n_edges) aligned with ``skel.edges``;
    slice t holds nodes t*N .. t*N + N - 1, so the (head, instant) slices of
    several heads, head-major, give one block per head.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != skel.n_edges:
        raise ValueError(
            f"weights shape {weights.shape} does not match {skel.n_edges} skeleton edges"
        )
    if np.any(weights < 0):
        raise ValueError("negative edge weight")
    n = skel.n_stations
    dim = n * weights.shape[0]
    if skel.n_edges == 0:
        return sp.csr_matrix((dim, dim))
    off = (np.arange(weights.shape[0]) * n)[:, None]
    ei = off + skel.edges[:, 0]  # (n_slices, n_edges)
    ej = off + skel.edges[:, 1]
    # each degree sums its slice's edges in edge order, the i ends first
    deg = np.bincount(
        np.concatenate([ei, ej], axis=1).ravel(),
        weights=np.concatenate([weights, weights], axis=1).ravel(),
        minlength=dim,
    )
    ei, ej, w, diag = ei.ravel(), ej.ravel(), weights.ravel(), np.arange(dim)
    # no (row, col) pair repeats, so the sorted CSR does not depend on entry order
    rows = np.concatenate([ei, ej, diag])
    cols = np.concatenate([ej, ei, diag])
    mat = sp.coo_matrix((np.concatenate([-w, -w, deg]), (rows, cols)), shape=(dim, dim)).tocsr()
    mat.sum_duplicates()
    return mat


def assemble_random_walk_digraph(
    skel: DirectedSkeleton, weights: np.ndarray
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Row-stochastic random-walk adjacency and its Laplacian I - W_r.

    Every source node gets a self-loop of weight 1 before in-degree
    normalization, so source rows of W_r are exactly their self-loop.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != skel.src.shape:
        raise ValueError("weights must align with skeleton edges")
    if np.any(weights <= 0):
        raise ValueError("directed edge weights must be positive")
    n = skel.n_nodes
    rows = np.concatenate([skel.dst, skel.sources])
    cols = np.concatenate([skel.src, skel.sources])
    vals = np.concatenate([weights, np.ones(len(skel.sources))])
    indeg = np.zeros(n)
    np.add.at(indeg, rows, vals)
    dead = np.flatnonzero(indeg == 0)
    if len(dead):
        raise DegenerateDegreeError(
            f"non-source node(s) {dead[:5].tolist()} have zero incoming weight"
        )
    w_rd = sp.coo_matrix((vals / indeg[rows], (rows, cols)), shape=(n, n)).tocsr()
    w_rd.sum_duplicates()
    l_rd = (sp.identity(n, format="csr") - w_rd).tocsr()
    return w_rd, l_rd


def symmetrized_dglr_matrix(l_rd: sp.spmatrix) -> sp.csr_matrix:
    """L_r^T L_r: symmetric, PSD, annihilates the constant vector."""
    if l_rd.shape[0] != l_rd.shape[1]:
        raise ValueError("expected a square matrix")
    mat = (l_rd.T @ l_rd).tocsr()
    # exact symmetry by construction of the product; enforce sorted indices
    mat.sort_indices()
    return mat


def unit_laplacian(pg: PhysicalGraph) -> sp.csr_matrix:
    """Unit-weight Laplacian D - A of the road graph, edge costs ignored."""
    n = pg.n_stations
    ei, ej = pg.edges["from"], pg.edges["to"]
    ends = np.concatenate([ei, ej])
    diag = np.arange(n)
    vals = np.concatenate([-np.ones(len(ends)), np.bincount(ends, minlength=n).astype(np.float64)])
    rows = np.concatenate([ends, diag])
    cols = np.concatenate([ej, ei, diag])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def normalized_laplacian(w: sp.spmatrix) -> sp.csr_matrix:
    """I - D^{-1/2} W D^{-1/2}; rows of isolated nodes are zero."""
    w = w.tocsr()
    deg = np.asarray(w.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    d = sp.diags(inv_sqrt)
    # the identity part skips isolated nodes, so their diagonal is left empty
    lap = (sp.diags(nz.astype(np.float64)) - d @ w @ d).tocsr()
    lap.sort_indices()
    return lap


@dataclass(frozen=True, eq=False)
class ComponentBlocks:
    """A matrix that couples only nodes of one connected component, as dense
    blocks: one stack per component size.

    ``members[i]`` is a (C, k) array whose row c lists the nodes of one
    component of k nodes in ascending order, and ``blocks[i]`` the (C, k, k)
    stack of the matrix's entries among them, rows and columns in that order.
    Stacks run in ascending k, and the components of one stack in label
    order. A node in no stack has a zero row and column.
    """

    n_nodes: int
    members: tuple[np.ndarray, ...]
    blocks: tuple[np.ndarray, ...]

    def dot(self, v: np.ndarray) -> np.ndarray:
        """The matrix-vector product: per stack a gather, one batched matmul and a scatter."""
        out = np.zeros(self.n_nodes)
        for idx, blk in zip(self.members, self.blocks):
            out[idx] = np.matmul(blk, v[idx][..., None])[..., 0]
        return out


def component_blocks(a: sp.spmatrix, labels: np.ndarray,
                     max_size: int | None = None) -> ComponentBlocks:
    """The entries of ``a`` among the nodes of each connected component, as
    ``ComponentBlocks``.

    ``labels`` gives the component of each node, as ``connected_components``
    of ``a`` does: ``a`` must couple no two components. Components of more
    than ``max_size`` nodes are left out. Every stack is a view of one buffer
    of sum(k^2) values, filled by one scatter-add, so duplicate entries add
    up and a stored -0.0 reads 0.0, as in ``toarray``.
    """
    a = a.tocsr()
    labels = np.asarray(labels)
    n = len(labels)
    sizes = np.bincount(labels)
    # each node's rank in its component, in index order
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(labels, kind="stable")] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # kept components by (size, label), each a run of nodes and a run of values
    comps = np.argsort(sizes, kind="stable")
    if max_size is not None:
        comps = comps[sizes[comps] <= max_size]
    k = sizes[comps]
    node_start = np.full(len(sizes), -1, dtype=np.intp)
    node_start[comps] = np.cumsum(k) - k
    value_start = np.zeros(len(sizes), dtype=np.intp)
    value_start[comps] = np.cumsum(k * k) - k * k
    kept = node_start[labels] >= 0
    members = np.empty(int(k.sum()), dtype=np.intp)
    members[node_start[labels[kept]] + rank[kept]] = np.flatnonzero(kept)
    # entry (i, j) sits at row rank(i), column rank(j) of its component's block
    per_row = np.diff(a.indptr)
    at = np.repeat(value_start[labels] + rank * sizes[labels], per_row) + rank[a.indices]
    data = a.data
    if not kept.all():
        on = np.repeat(kept, per_row)
        at, data = at[on], data[on]
    values = np.bincount(at, weights=data, minlength=int((k * k).sum()))
    size, count = np.unique(k, return_counts=True)
    node_end, value_end = np.cumsum(count * size), np.cumsum(count * size * size)
    return ComponentBlocks(
        n_nodes=n,
        members=tuple(members[e - c * s : e].reshape(c, s)
                      for e, c, s in zip(node_end, count, size)),
        blocks=tuple(values[e - c * s * s : e].reshape(c, s, s)
                     for e, c, s in zip(value_end, count, size)),
    )


OPERATOR_NAMES = ("l_u", "l_rd", "l_rd_t", "call_rd")


@dataclass(eq=False)
class MixedGraph:
    """Assembled operators of one mixed product graph, or of several stacked.

    Immutable after construction; all operators are CSR with float64 values.
    ``l_n`` is the normalized Laplacian of the symmetrized temporal graph,
    used only by the undirected-temporal solver variant.

    A graph with ``lanes`` > 1 holds that many graphs of one shape as the
    diagonal blocks of each operator; signals are the per-lane vectors
    concatenated, and ``h_mask`` repeats once per lane.
    """

    n_stations: int
    n_instants: int
    n_observed: int  # observed instants (the prefix 0..T)
    l_u: sp.csr_matrix
    w_rd: sp.csr_matrix
    l_rd: sp.csr_matrix
    call_rd: sp.csr_matrix = field(default=None)
    l_n: sp.csr_matrix = None
    h_mask: np.ndarray = field(default=None)
    lanes: int = 1
    l_rd_t: sp.csr_matrix = field(default=None)

    def __post_init__(self):
        dim = self.n_nodes
        for name in ("l_u", "w_rd", "l_rd"):
            mat = getattr(self, name)
            if mat.shape != (dim, dim):
                raise ValueError(f"{name} has shape {mat.shape}, expected {(dim, dim)}")
        if self.call_rd is None:
            self.call_rd = symmetrized_dglr_matrix(self.l_rd)
        if self.h_mask is None:
            lane_mask = np.zeros(self.n_stations * self.n_instants, dtype=bool)
            lane_mask[: self.n_stations * self.n_observed] = True
            self.h_mask = np.tile(lane_mask, self.lanes)
        if self.l_rd_t is None:
            self.l_rd_t = self.l_rd.T.tocsr()
        self._ops = {
            "l_u": self.l_u,
            "l_rd": self.l_rd,
            "l_rd_t": self.l_rd_t,
            "call_rd": self.call_rd,
        }

    @property
    def n_nodes(self) -> int:
        return self.lanes * self.n_stations * self.n_instants

    def lane_of(self, entry: int | None) -> int | None:
        """Lane holding flat position ``entry``; None if unknown among several lanes."""
        if self.lanes == 1:
            return 0
        return None if entry is None else entry // (self.n_stations * self.n_instants)

    def apply(self, op: str, x: np.ndarray) -> np.ndarray:
        """Operator-vector product, one sparse product with a prebuilt matrix.

        ``call_rd`` is the assembled L_r' L_r, not two chained products.
        """
        mat = self._ops.get(op)
        if mat is None:
            raise ValueError(f"unknown operator {op!r}; expected one of {OPERATOR_NAMES}")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_nodes,):
            raise ValueError(f"signal length {x.shape} != {self.n_nodes}")
        return mat @ x

    def project_observed(self, x: np.ndarray) -> np.ndarray:
        """H x: select observed entries."""
        return x[self.h_mask]

    def lift_observed(self, y: np.ndarray) -> np.ndarray:
        """H^T y: scatter observations into the full-length vector."""
        out = np.zeros(self.n_nodes)
        out[self.h_mask] = y
        return out

"""Mixed product-graph construction for spatio-temporal signals.

The node set is stations x instants, flattened time-major: node (s, t) sits at
flat index t*N + s, so the observed prefix of the signal occupies a contiguous
block of the stacked vector. Spatial edges are undirected and live within one
instant; temporal edges are directed, connect a station to itself at later
instants inside a fixed window, and therefore form a DAG. The spatial
skeleton keeps the road graph's connected components.

Operator assembly has two phases, as sparse direct methods split a symbolic
from a numeric phase (Davis, *Direct Methods for Sparse Linear Systems*,
SIAM 2006). A plan (``plan_undirected_laplacian``,
``plan_random_walk_digraph``) holds what depends on the skeleton alone: each
operator's CSR ``Pattern`` and where each stored entry's value comes from.
An assembly fills values only. A ``Pattern`` works out, once and on first
use, what the solver's folded systems read of it: the diagonal's positions,
the connected components and the map into dense component blocks. A plan
gives a pattern of few diagonals, the temporal ones, its ``Band``: where
each entry sits in scipy's DIA layout, so that a fold on it runs the DIA
kernel (``solver.Fold``).

``NumericFailure`` is the one failure of a forward pass; it lives here, below
both ``attention`` and ``solver``, which raise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class Band:
    """Where a pattern's entries sit among its diagonals, in scipy's DIA layout.

    Row i of a (len(``offsets``), n) array holds diagonal ``offsets[i]``,
    entry (j - offsets[i], j) at column j; ``offsets`` ascend. Stored entry
    e of the pattern, in column ``indices[e]``, sits in row ``which[e]``,
    and every other position holds 0.0: the padding of a diagonal's rows
    that store nothing. ``which`` takes the smallest unsigned dtype that
    holds the number of diagonals: one byte for up to 255.
    """

    offsets: np.ndarray
    which: np.ndarray

    @property
    def zero(self) -> int:
        """The row of the main diagonal, for a band that has one."""
        return int(np.searchsorted(self.offsets, 0))


@dataclass(frozen=True, eq=False)
class Pattern:
    """The sparsity pattern of a square CSR operator: ``indptr`` and ``indices``.

    Operators filled into one pattern share it, and with it what the cached
    properties work out on first use: the diagonal's positions, the
    connected components and the map into their dense blocks. ``band``, set
    by ``banded``, is the pattern's layout as diagonals, for a pattern of
    few of them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    band: Band | None = None

    @classmethod
    def of(cls, mat: sp.csr_matrix) -> "Pattern":
        return cls(mat.indptr, mat.indices)

    def banded(self) -> "Pattern":
        """This pattern with its ``Band``; the offsets keep the index dtype."""
        rows = np.repeat(np.arange(self.n, dtype=self.indices.dtype), np.diff(self.indptr))
        offset = self.indices - rows
        offsets = np.unique(offset)
        which = np.searchsorted(offsets, offset).astype(np.min_scalar_type(len(offsets)))
        return Pattern(self.indptr, self.indices, Band(offsets, which))

    def band_values(self, data: np.ndarray) -> np.ndarray:
        """The operator with ``data`` in this pattern as its ``band``'s diagonals."""
        values = np.zeros((len(self.band.offsets), self.n))
        values[self.band.which, self.indices] = data
        return values

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The operator with ``data`` in this pattern."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def fits(self, mat: sp.csr_matrix) -> bool:
        """Whether ``mat`` stores exactly this pattern's entries, in its order."""
        return (mat.shape == (self.n, self.n) and np.array_equal(mat.indptr, self.indptr)
                and np.array_equal(mat.indices, self.indices))

    @cached_property
    def diagonal(self) -> np.ndarray | None:
        """The position of each row's diagonal entry; None if some row stores none, or two."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        on_diag = np.flatnonzero(self.indices == rows)
        if not np.array_equal(rows[on_diag], np.arange(self.n)):
            return None
        return on_diag.astype(self.indices.dtype)

    @cached_property
    def transposed(self) -> tuple["Pattern", np.ndarray]:
        """The transpose's pattern, and the entry of this pattern that each of
        its entries reads.

        Entries of one column keep their row order, as scipy's CSR-to-CSC
        conversion places them, and the index arrays keep this pattern's
        dtype, as scipy's does while every index fits in 32 bits: the
        operator ``data`` fills here has its transpose,
        ``matrix(data).T.tocsr()``, bit for bit in ``t.matrix(data[source])``.
        """
        source = np.argsort(self.indices, kind="stable").astype(self.indices.dtype)
        rows = np.repeat(np.arange(self.n, dtype=self.indices.dtype), np.diff(self.indptr))
        indptr = np.zeros(self.n + 1, dtype=self.indptr.dtype)
        indptr[1:] = np.cumsum(np.bincount(self.indices, minlength=self.n))
        return Pattern(indptr, rows[source]), source

    @cached_property
    def labels(self) -> np.ndarray:
        """The connected component of each node; a stored entry couples its row and column."""
        return connected_components(self.matrix(np.ones(self.nnz)), directed=False)[1]

    @cached_property
    def components(self) -> "ComponentMap":
        return component_map(self, self.labels)


def coo_pattern(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[Pattern, np.ndarray]:
    """The n x n CSR pattern of entries at (``rows``, ``cols``), rows sorted,
    and each stored entry's position in them; no (row, col) may repeat."""
    keys = rows.astype(np.int64) * n + cols
    order = np.argsort(keys)
    keys = keys[order]
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("an operator entry repeats")
    # scipy's index dtype, int32 while it holds every index, serves the maps too
    idx = np.int32 if max(n, len(order)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    indptr[1:] = np.cumsum(np.bincount(keys // n, minlength=n))
    return Pattern(indptr, (keys % n).astype(idx)), order.astype(idx)


def transpose(mat: sp.csr_matrix, pattern: Pattern | None = None) -> sp.csr_matrix:
    """``mat.T.tocsr()``, bit for bit: ``mat``'s values gathered into the
    transpose's pattern (``Pattern.transposed``). A planned ``pattern`` that
    ``mat`` fits works its transpose out once for every operator filled into
    it; otherwise ``mat``'s own pattern works it out here."""
    if pattern is None or not pattern.fits(mat):
        pattern = Pattern.of(mat)
    t, source = pattern.transposed
    return t.matrix(mat.data[source])


def _without_zeros(pattern: Pattern, data: np.ndarray) -> sp.csr_matrix:
    """The operator with ``data`` in ``pattern``, less the entries that are exactly 0.0."""
    keep = data != 0
    rows = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
    indptr = np.zeros(pattern.n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows[keep], minlength=pattern.n))
    return sp.csr_matrix((data[keep], pattern.indices[keep], indptr), shape=(pattern.n, pattern.n))


@dataclass(frozen=True, eq=False)
class LaplacianPlan:
    """The pattern of ``assemble_undirected_laplacian`` for one skeleton and slice count.

    Stored entry i reads value ``source[i]`` of the edge weights negated, in
    (slice, edge) order, followed by the node degrees.
    """

    skel: SpatialSkeleton
    n_slices: int
    pattern: Pattern
    source: np.ndarray


def plan_undirected_laplacian(skel: SpatialSkeleton, n_slices: int) -> LaplacianPlan:
    """Plan D - W over ``n_slices`` slices of ``skel``; without edges it stores no entry."""
    n, m = skel.n_stations, n_slices * skel.n_edges
    dim = n * n_slices
    rows = cols = np.zeros(0, dtype=np.int64)
    if skel.n_edges:
        off = (np.arange(n_slices) * n)[:, None]
        ei, ej = (off + skel.edges[:, 0]).ravel(), (off + skel.edges[:, 1]).ravel()
        rows = np.concatenate([ei, ej, np.arange(dim)])
        cols = np.concatenate([ej, ei, np.arange(dim)])
    pattern, order = coo_pattern(rows, cols, dim)
    # both entries of an edge read its one weight
    return LaplacianPlan(skel, n_slices, pattern, np.where(order < m, order, order - m))


def assemble_undirected_laplacian(skel, weights: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal D - W over slices, usually instants.

    ``weights`` has shape (n_slices, n_edges) aligned with the edges of
    ``skel``, a ``SpatialSkeleton`` (planned here) or its ``LaplacianPlan``;
    slice t holds nodes t*N .. t*N + N - 1, so the (head, instant) slices of
    several heads, head-major, give one block per head.
    """
    plan = skel if isinstance(skel, LaplacianPlan) else None
    skel = skel.skel if plan else skel
    weights = np.asarray(weights, dtype=np.float64)
    if (weights.ndim != 2 or weights.shape[1] != skel.n_edges
            or (plan and weights.shape[0] != plan.n_slices)):
        raise ValueError(
            f"weights shape {weights.shape} does not match {skel.n_edges} skeleton edges"
            + (f" in {plan.n_slices} slices" if plan else "")
        )
    if not np.all((weights >= 0) & (weights < np.inf)):
        raise ValueError("non-finite or negative edge weight")
    plan = plan or plan_undirected_laplacian(skel, weights.shape[0])
    n = skel.n_stations
    off = (np.arange(weights.shape[0]) * n)[:, None]
    # each degree sums its slice's edges in edge order, the i ends first
    deg = np.bincount(
        np.concatenate([off + skel.edges[:, 0], off + skel.edges[:, 1]], axis=1).ravel(),
        weights=np.concatenate([weights, weights], axis=1).ravel(),
        minlength=n * weights.shape[0],
    )
    return plan.pattern.matrix(np.concatenate([-weights.ravel(), deg])[plan.source])


@dataclass(frozen=True, eq=False)
class RandomWalkPlan:
    """The patterns of ``assemble_random_walk_digraph`` for one skeleton.

    Stored W_r entry i is entry ``w_source[i]`` of the edges followed by a
    self-loop per source. Stored L_r = I - W_r entry i reads 1 on the
    diagonal (``l_diagonal``) less W_r entry ``l_source[i]`` (none at
    ``w_rd.nnz``). L_r leaves out the diagonal of each row whose one W_r
    entry is its own: that entry is its weight over itself, exactly 1, and
    the diagonal reads 1 - 1 = 0.
    """

    skel: DirectedSkeleton
    w_rd: Pattern
    w_source: np.ndarray
    l_rd: Pattern
    l_diagonal: np.ndarray
    l_source: np.ndarray


def plan_random_walk_digraph(skel: DirectedSkeleton) -> RandomWalkPlan:
    """Plan W_r and I - W_r over ``skel``, a self-loop added at each source."""
    n = skel.n_nodes
    w_rd, w_source = coo_pattern(np.concatenate([skel.dst, skel.sources]),
                                 np.concatenate([skel.src, skel.sources]), n)
    per_row = np.diff(w_rd.indptr)
    w_rows = np.repeat(np.arange(n), per_row)
    diag = np.arange(n)
    w_keys = w_rows * n + w_rd.indices
    at = np.searchsorted(w_keys, diag * (n + 1))
    has = at < w_rd.nnz
    has[has] = w_keys[at[has]] == diag[has] * (n + 1)
    # I - W_r over both patterns: W_r's entries, each diagonal W_r lacks
    # inserted where it sorts in its row
    at, lacking = at[~has], diag[~has]
    rows = np.insert(w_rows, at, lacking)
    w_diagonal = w_rd.indices == w_rows
    diagonal = np.insert(w_diagonal, at, True)
    source = np.insert(np.arange(w_rd.nnz), at, w_rd.nnz).astype(w_source.dtype)
    lone = np.insert(w_diagonal & (per_row[w_rows] == 1), at, False)
    l_rd, _ = coo_pattern(rows[~lone], np.insert(w_rd.indices, at, lacking)[~lone], n)
    return RandomWalkPlan(skel, w_rd, w_source, l_rd, diagonal[~lone], source[~lone])


def assemble_random_walk_digraph(skel, weights: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Row-stochastic random-walk adjacency and its Laplacian I - W_r.

    ``skel`` is a ``DirectedSkeleton`` (planned here) or its
    ``RandomWalkPlan``. Every source node gets a self-loop of weight 1
    before in-degree normalization, so source rows of W_r are exactly their
    self-loop. In-degrees sum each node's edges in edge order, then its
    self-loop. L_r stores no entry that is exactly 0.0, as scipy's I - W_r
    does not: a planned entry that comes out 0.0 gives L_r a pattern of its
    own.
    """
    plan = skel if isinstance(skel, RandomWalkPlan) else None
    skel = skel.skel if plan else skel
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != skel.src.shape:
        raise ValueError("weights must align with skeleton edges")
    if not np.all((weights > 0) & (weights < np.inf)):
        raise ValueError("directed edge weights must be positive and finite")
    plan = plan or plan_random_walk_digraph(skel)
    n = skel.n_nodes
    indeg = np.bincount(skel.dst, weights=weights, minlength=n).astype(np.float64, copy=False)
    indeg[skel.sources] += 1.0
    dead = np.flatnonzero(indeg == 0)
    if len(dead):
        raise DegenerateDegreeError(
            f"non-source node(s) {dead[:5].tolist()} have zero incoming weight"
        )
    w_rows = np.repeat(np.arange(n), np.diff(plan.w_rd.indptr))
    w_data = np.concatenate([weights, np.ones(len(skel.sources))])[plan.w_source] / indeg[w_rows]
    l_data = plan.l_diagonal - np.append(w_data, 0.0)[plan.l_source]
    l_rd = plan.l_rd.matrix(l_data) if l_data.all() else _without_zeros(plan.l_rd, l_data)
    return plan.w_rd.matrix(w_data), l_rd


def symmetrized_dglr_matrix(l_rd: sp.csr_matrix, l_rd_t: sp.csr_matrix) -> sp.csr_matrix:
    """L_r^T L_r from L_r and its transpose, as CSR: symmetric, PSD,
    annihilates the constant vector.

    scipy's sparse product stores no entry that sums to exactly 0.0.
    """
    if l_rd.shape[0] != l_rd.shape[1]:
        raise ValueError("expected a square matrix")
    mat = l_rd_t @ l_rd
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


@dataclass(frozen=True, eq=False)
class ComponentMap:
    """Where the stored entries of one pattern go in ``ComponentBlocks``.

    ``fill`` scatter-adds entry i's value to position ``at[i]`` of one buffer
    of sum(k^2) values, entries outside the kept components (``on`` False)
    left out, and cuts the buffer into one (C, k, k) stack per ``shapes``
    entry (C, k). Duplicate entries add up, and a stored -0.0 reads 0.0, as
    in ``toarray``.
    """

    n_nodes: int
    members: tuple[np.ndarray, ...]
    shapes: tuple[tuple[int, int], ...]
    at: np.ndarray
    on: np.ndarray | None

    def fill(self, data: np.ndarray) -> "ComponentBlocks":
        if self.on is not None:
            data = data[self.on]
        sizes = [c * k * k for c, k in self.shapes]
        values = np.bincount(self.at, weights=data, minlength=sum(sizes))
        ends = np.cumsum(sizes)
        return ComponentBlocks(
            n_nodes=self.n_nodes,
            members=self.members,
            blocks=tuple(values[e - c * k * k : e].reshape(c, k, k)
                         for e, (c, k) in zip(ends, self.shapes)),
        )


def component_map(pattern: Pattern, labels: np.ndarray,
                  max_size: int | None = None) -> ComponentMap:
    """The ``ComponentMap`` of ``pattern`` over the components ``labels``
    gives, as ``connected_components`` of it does: the pattern must couple
    no two components. Components of more than ``max_size`` nodes are left
    out."""
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
    per_row = np.diff(pattern.indptr)
    at = np.repeat(value_start[labels] + rank * sizes[labels], per_row) + rank[pattern.indices]
    on = None
    if not kept.all():
        on = np.repeat(kept, per_row)
        at = at[on]
    size, count = np.unique(k, return_counts=True)
    node_end = np.cumsum(count * size)
    return ComponentMap(
        n_nodes=n,
        members=tuple(members[e - c * s : e].reshape(c, s)
                      for e, c, s in zip(node_end, count, size)),
        shapes=tuple(zip(count.tolist(), size.tolist())),
        at=at,
        on=on,
    )


def component_blocks(a: sp.spmatrix, labels: np.ndarray,
                     max_size: int | None = None) -> ComponentBlocks:
    """The entries of ``a`` among the nodes of each connected component, as
    ``ComponentBlocks`` (``component_map`` of its pattern, filled)."""
    a = a.tocsr()
    return component_map(Pattern.of(a), labels, max_size).fill(a.data)


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

    ``patterns`` maps the name of each operator but ``l_rd_t``, which no
    fold reads, to its ``Pattern``, whose index arrays the operator uses. A
    graph filled from a plan is given the plan's and keeps each that its
    operator fits, so what a pattern works out is worked out once per plan;
    any other operator gets a pattern of its own.
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
    patterns: dict = field(default=None)

    def __post_init__(self):
        dim = self.n_nodes
        for name in ("l_u", "w_rd", "l_rd"):
            mat = getattr(self, name)
            if mat.shape != (dim, dim):
                raise ValueError(f"{name} has shape {mat.shape}, expected {(dim, dim)}")
        if self.l_rd_t is None:
            self.l_rd_t = transpose(self.l_rd)
        if self.call_rd is None:
            self.call_rd = symmetrized_dglr_matrix(self.l_rd, self.l_rd_t)
        if self.h_mask is None:
            lane_mask = np.zeros(self.n_stations * self.n_instants, dtype=bool)
            lane_mask[: self.n_stations * self.n_observed] = True
            self.h_mask = np.tile(lane_mask, self.lanes)
        given = self.patterns or {}
        self.patterns = {}
        for name in ("l_u", "w_rd", "l_rd", "call_rd", "l_n"):
            mat, pattern = getattr(self, name), given.get(name)
            if mat is None:
                continue
            if pattern is None or not pattern.fits(mat):
                pattern = Pattern.of(mat)
            elif not np.may_share_memory(mat.indices, pattern.indices):
                setattr(self, name, pattern.matrix(mat.data))  # on the plan's index arrays
            self.patterns[name] = pattern
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

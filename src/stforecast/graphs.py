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
``plan_random_walk_digraph``) holds what depends on the skeleton alone:
each operator's CSR ``Pattern`` and where each stored entry's value comes
from. An assembly takes a plan, its one input besides the weights, and
fills values only; a plan's patterns are final: an entry that comes out
exactly 0.0 is stored as +0.0, where scipy's sparse arithmetic stores none,
which adds nothing to a product of a finite vector. A ``Pattern`` keeps
what the solver derives from it (``cache``). The random walk's patterns,
of few diagonals, have their ``Band``: where each entry sits in scipy's DIA
layout (Saad, *Iterative Methods for Sparse Linear Systems*, 2003, section
3.4).

Every operator of a graph, and every folded CG system, is an ``Operator``:
a pattern and its values, in entry order or as the band's diagonals, applied
by the scipy kernel that layout calls for. A graph holds the operators some
solver step applies, L_r, L_r', L_r'L_r and ``l_n`` as bands from the fill
on: L_r's diagonals are written once, L_r' is them shifted to their mirror
offsets, and L_r'L_r is formed diagonal by diagonal
(``symmetrized_dglr_matrix``). Their CSR forms, which oracles, checks and
dumps read, are built on each read, W_r's as I - L_r (``MixedGraph``).

``NumericFailure`` is the one failure of a forward pass; it lives here, below
both ``attention`` and ``solver``, which raise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
# the kernels of scipy's CSR and DIA ``A @ v``
from scipy.sparse._sparsetools import csr_matvec, dia_matvec
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

    @cached_property
    def lag_edges(self) -> tuple[tuple[int, np.ndarray], ...]:
        """Each lag, ascending, with the positions of its edges: selected once per skeleton."""
        return tuple((w, np.flatnonzero(self.lag == w)) for w in np.unique(self.lag).tolist())


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

    Operators filled into one pattern share it, and with it ``cache``.
    ``band``, set by ``banded``, is the pattern's layout as diagonals, for a
    pattern of few of them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    band: Band | None = None

    def banded(self) -> "Pattern":
        """This pattern with its ``Band``; the offsets keep the index dtype."""
        rows = np.repeat(np.arange(self.n, dtype=self.indices.dtype), np.diff(self.indptr))
        offset = self.indices - rows
        offsets = np.unique(offset)
        which = np.searchsorted(offsets, offset).astype(np.min_scalar_type(len(offsets)))
        return Pattern(self.indptr, self.indices, Band(offsets, which))

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The operator with ``data`` in this pattern."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    @cached_property
    def cache(self) -> dict:
        """What other modules derive from this pattern alone, kept as long as it
        lives: ``solver.Slices.blocks`` keeps each entry's place in a slice
        stack here, keyed by the ``Slices``, and ``solver.fold_layout`` the
        patterns of its folds (``diagonal_union``)."""
        return {}


@dataclass(frozen=True, eq=False)
class Operator:
    """A square operator: the values ``data`` in ``pattern``, applied by one of scipy's kernels.

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
            raise ValueError(f"an operator of {what} needs as many float64 values, "
                             f"got {self.data.dtype} {self.data.shape}")
        # the CSR kernel dispatches on one index dtype and checks no bounds
        indptr, indices = self.pattern.indptr, self.pattern.indices
        if indptr.dtype != indices.dtype:
            raise ValueError(f"operator index arrays differ in dtype: "
                             f"{indptr.dtype}, {indices.dtype}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.pattern.n, self.pattern.n)

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    @property
    def banded(self) -> bool:
        """Whether ``data`` holds the band's diagonals."""
        return self.data.ndim == 2

    def entries(self) -> np.ndarray:
        """The values in entry order: ``data``, or the band's gathered into a new array."""
        if self.banded:
            return self.data[self.pattern.band.which, self.pattern.indices]
        return self.data

    def matrix(self) -> sp.csr_matrix:
        return self.pattern.matrix(self.entries())

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
        that failed, because ``solver.cg_solve`` never takes the place of a
        failure from the product of such a vector: x0 is finite, as
        ``solver.admm_block`` checks; the recurrence checks x, which a
        non-finite direction makes non-finite, before it applies the
        direction; exact CG checks each residual, and a direction that fails
        its curvature check names its own first non-finite entry; and the
        recurrence's unchecked first pass only decides finite or not, where
        both kernels agree.

        The kernels check no bounds, so the vector is checked first
        (``check``); the index dtypes the CSR kernel dispatches on are
        checked when the operator is made.
        """
        n = self.check(v)
        out = np.zeros(n)
        if self.banded:
            offsets = self.pattern.band.offsets
            dia_matvec(n, n, len(offsets), n, offsets, self.data, v, out)
            return out
        csr_matvec(n, n, self.pattern.indptr, self.pattern.indices, self.data, v, out)
        return out

    def check(self, v) -> int:
        """The node count, if ``v`` is a vector ``dot`` can apply; else a ``ValueError``."""
        n = len(self.pattern.indptr) - 1
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == (n,)
                and v.flags.c_contiguous):
            raise ValueError(f"an operator of {n} nodes applies a C-contiguous float64 vector "
                             f"of length {n}, got {getattr(v, 'dtype', type(v))} {np.shape(v)}")
        return n


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


def diagonal_union(n: int, patterns: tuple[Pattern, ...]) -> tuple[Pattern | None, tuple]:
    """The n x n pattern of the diagonal and ``patterns`` (sorted rows, each
    entry once, as a plan's) together, and the place in it of the
    diagonal's entries, then of each pattern's. Where the first pattern
    holds every other entry, it is that union: None stands for it, and
    ``slice(None)`` for its places, so that no pattern's cache holds it."""
    keys = [np.arange(n, dtype=np.int64) * (n + 1)]
    for pattern in patterns:
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(pattern.indptr))
        keys.append(rows * n + pattern.indices)
    if patterns:  # found by binary search, where a union would sort every entry
        others = keys[:1] + keys[2:]
        places = [np.searchsorted(keys[1], k) for k in others]
        if all(np.array_equal(keys[1].take(at, mode="clip"), k) for at, k in zip(places, others)):
            return None, (places[0], slice(None), *places[1:])
    union = np.unique(np.concatenate(keys))
    out = coo_pattern(union // n, union % n, n)[0]
    return out, tuple(np.searchsorted(union, k) for k in keys)  # intp, numpy's fastest index


@dataclass(frozen=True, eq=False)
class LaplacianPlan:
    """The pattern of ``assemble_undirected_laplacian`` for one skeleton and slice count.

    Stored entry i reads value ``source[i]`` of the edge weights negated, in
    (slice, edge) order, followed by the node degrees. Every diagonal entry
    is stored, +0.0 at a station without edges, so the pattern has its
    diagonal on a skeleton without any.
    """

    skel: SpatialSkeleton
    n_slices: int
    pattern: Pattern
    source: np.ndarray


def plan_undirected_laplacian(skel: SpatialSkeleton, n_slices: int) -> LaplacianPlan:
    """Plan D - W over ``n_slices`` slices of ``skel``: both entries of each edge and the diagonal."""
    n, m = skel.n_stations, n_slices * skel.n_edges
    dim = n * n_slices
    off = (np.arange(n_slices) * n)[:, None]
    ei, ej = (off + skel.edges[:, 0]).ravel(), (off + skel.edges[:, 1]).ravel()
    rows = np.concatenate([ei, ej, np.arange(dim)])
    cols = np.concatenate([ej, ei, np.arange(dim)])
    pattern, order = coo_pattern(rows, cols, dim)
    # both entries of an edge read its one weight
    return LaplacianPlan(skel, n_slices, pattern, np.where(order < m, order, order - m))


def assemble_undirected_laplacian(plan: LaplacianPlan, weights: np.ndarray) -> Operator:
    """Block-diagonal D - W over slices, usually instants, on the plan's pattern.

    ``weights`` has shape (n_slices, n_edges) aligned with the edges of the
    plan's skeleton; slice t holds nodes t*N .. t*N + N - 1, so the (head,
    instant) slices of several heads, head-major, give one block per head.
    """
    skel = plan.skel
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (plan.n_slices, skel.n_edges):
        raise ValueError(f"weights shape {weights.shape} does not match {skel.n_edges} "
                         f"skeleton edges in {plan.n_slices} slices")
    if not np.all((weights >= 0) & (weights < np.inf)):
        raise ValueError("non-finite or negative edge weight")
    n = skel.n_stations
    off = (np.arange(plan.n_slices) * n)[:, None]
    # each degree sums its slice's edges in edge order, the i ends first
    deg = np.bincount(
        np.concatenate([off + skel.edges[:, 0], off + skel.edges[:, 1]], axis=1).ravel(),
        weights=np.concatenate([weights, weights], axis=1).ravel(),
        minlength=n * plan.n_slices,
    )
    return Operator(plan.pattern, np.concatenate([-weights.ravel(), deg])[plan.source])


@dataclass(frozen=True, eq=False)
class RandomWalkPlan:
    """The patterns of ``assemble_random_walk_digraph`` for one skeleton, each with its band.

    L_r = I - W_r lies on the diagonals of the edges and, for every row but
    a source's, the main one. A source's one W_r entry is its self-loop's
    weight over itself, exactly 1, so its diagonal in L_r reads 1 - 1 = 0
    and is left out. ``l_rd_t`` is L_r''s pattern, on the mirrored
    diagonals, and ``band_at`` the flat position in L_r's band of each
    edge's entry. No solver step applies W_r, so none is planned.
    """

    skel: DirectedSkeleton
    l_rd: Pattern
    l_rd_t: Pattern
    band_at: np.ndarray


def plan_random_walk_digraph(skel: DirectedSkeleton) -> RandomWalkPlan:
    """Plan L_r = I - W_r and its transpose over ``skel``, a DAG of few
    diagonals, with a self-loop added at each source."""
    n = skel.n_nodes
    inner = np.delete(np.arange(n), skel.sources)  # the rows L_r stores a diagonal in
    rows, cols = np.concatenate([skel.dst, inner]), np.concatenate([skel.src, inner])
    l_rd, l_rd_t = coo_pattern(rows, cols, n)[0].banded(), coo_pattern(cols, rows, n)[0].banded()
    band_at = np.searchsorted(l_rd.band.offsets, skel.src - skel.dst) * n + skel.src
    return RandomWalkPlan(skel, l_rd, l_rd_t, band_at.astype(l_rd.indices.dtype))


def assemble_random_walk_digraph(plan: RandomWalkPlan, weights: np.ndarray) -> Operator:
    """The random-walk Laplacian L_r = I - W_r, written straight into the plan's band.

    W_r is the row-stochastic random-walk adjacency: every source node gets
    a self-loop of weight 1 before in-degree normalization, so source rows
    of W_r are exactly their self-loop. In-degrees sum each node's edges in
    edge order, then its self-loop. L_r holds 0.0 less each edge's weight
    over its child's in-degree at ``band_at``, and 1 on the main diagonal
    at every row but a source's. It keeps its plan's pattern: an entry that
    comes out exactly 0.0 is stored as +0.0, where scipy's I - W_r stores
    none.
    """
    skel, n = plan.skel, plan.skel.n_nodes
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != skel.src.shape:
        raise ValueError("weights must align with skeleton edges")
    if not np.all((weights > 0) & (weights < np.inf)):
        raise ValueError("directed edge weights must be positive and finite")
    indeg = np.bincount(skel.dst, weights=weights, minlength=n).astype(np.float64, copy=False)
    indeg[skel.sources] += 1.0
    dead = np.flatnonzero(indeg == 0)
    if len(dead):
        raise DegenerateDegreeError(
            f"non-source node(s) {dead[:5].tolist()} have zero incoming weight"
        )
    band = plan.l_rd.band
    data = np.zeros((len(band.offsets), n))
    data.ravel()[plan.band_at] = 0.0 - weights / indeg[skel.dst]
    if len(band.offsets):
        data[band.zero] = 1.0
        data[band.zero, skel.sources] = 0.0
    return Operator(plan.l_rd, data)


def band_transpose(op: Operator, pattern: Pattern) -> Operator:
    """The transpose of the band operator ``op`` on ``pattern``, the
    transpose's pattern with its band: each diagonal moved to the mirrored
    offset, a shift along its row."""
    data = op.data
    rows, n = data.shape
    out = np.zeros_like(data)
    for k, o in enumerate(op.pattern.band.offsets.tolist()):
        # entry (c, c + o), in column c + o, is the transpose's (c + o, c), in column c
        out[rows - 1 - k, max(-o, 0) : n - max(o, 0)] = data[k, max(o, 0) : n + min(o, 0)]
    return Operator(pattern, out)


def symmetrized_dglr_matrix(l_rd: Operator, l_rd_t: Operator, pattern: Pattern) -> Operator:
    """L_r^T L_r from the band ``Operator``s of a planned temporal graph:
    symmetric, PSD, annihilates the constant vector.

    L_r' has the diagonals 0, N, ..., W N, and ``pattern``, the plan's
    pattern of the product, its band of 2W + 1 diagonals. Entry (i, k) sums
    L_r(j, i) L_r(j, k) over the nodes j in ascending order, from +0.0, as
    scipy's sparse product does (Gustavson's row-by-row product,
    ``csr_matmat``), formed diagonal by diagonal. For each diagonal -q N of
    L_r, q ascending, and each p, node j adds L_r(j, j - p N) L_r(j, j - q N)
    to entry (j - p N, j - q N), on the product's diagonal (p - q) N: L_r''s
    diagonals p N and q N multiplied column by column, one vector product
    per (p, q). An entry that comes out exactly 0.0, which scipy's product
    drops, is kept as +0.0.
    """
    rows = l_rd_t.data  # row d holds L_r(j, j - d N) in column j
    span, n = len(rows) - 1, rows.shape[1]
    if len(pattern.band.offsets) != 2 * span + 1:
        raise ValueError(f"a product of {span + 1} diagonals has {2 * span + 1}, "
                         f"its pattern {len(pattern.band.offsets)}")
    step = int(l_rd_t.pattern.band.offsets[-1]) // max(span, 1)
    out = np.zeros((2 * span + 1, n))
    term = np.empty(n)
    for q in range(span + 1):
        s = q * step
        for p in range(span + 1):
            row = out[p - q + span, : n - s]  # diagonal (p - q) N, column j - q N
            row += np.multiply(rows[p, s:], rows[q, s:], out=term[: n - s])
    return Operator(pattern, out)


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


def components_by_size(labels: np.ndarray) -> list[np.ndarray]:
    """The nodes of each connected component that ``labels`` gives, as
    ``connected_components`` does, grouped by size: one (C, k) array per
    component size k, in ascending k, whose row c lists the nodes of one
    component in ascending order, its C components in label order. Both
    per-component dense eigensolves take a group as one stack
    (``attention.smallest_eigenpairs``, ``pipeline.component_centrality``)."""
    sizes = np.bincount(labels)
    nodes = np.lexsort((labels, sizes[labels]))
    size, count = np.unique(sizes, return_counts=True)
    return [group.reshape(c, k) for group, c, k
            in zip(np.split(nodes, np.cumsum(size * count)[:-1]), count, size)]


OPERATOR_NAMES = ("l_u", "l_rd", "l_rd_t", "call_rd")


class _CsrView:
    """A ``MixedGraph`` operator read as CSR, built on each read; None where the graph has none."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        op = graph.ops.get(self.name)
        return None if op is None else op.matrix()


class MixedGraph:
    """Assembled operators of one mixed product graph, or of several stacked.

    Immutable after construction. ``ops`` maps the name of each operator a
    solver step applies to its ``Operator``; ``l_n`` is the normalized
    Laplacian of the symmetrized temporal graph, used only by the
    undirected-temporal solver variant. Reading an operator by its name
    (``graph.l_rd``) gives its CSR form, built on each read, so no operator
    is held twice: the oracles, checks and dumps read those, W_r as I - L_r
    (``w_rd``), the solver, its folds too, the operators themselves.

    A graph with ``lanes`` > 1 holds that many graphs of one shape as the
    diagonal blocks of each operator; signals are the per-lane vectors
    concatenated. ``h_mask`` marks the observed nodes of every lane.

    ``attention.fill_mixed_graph`` makes every graph: each operator an
    ``Operator`` on its plan's pattern, L_r, L_r' and L_r'L_r on their
    bands. Every operator but ``l_n`` must be given, and none is worked
    out from another.
    """

    l_u = _CsrView()
    l_rd = _CsrView()
    l_rd_t = _CsrView()
    call_rd = _CsrView()
    l_n = _CsrView()

    def __init__(self, n_stations: int, n_instants: int, lanes: int, h_mask: np.ndarray, *,
                 l_u, l_rd, l_rd_t, call_rd, l_n=None):
        self.n_stations, self.n_instants, self.lanes = n_stations, n_instants, lanes
        self.h_mask = h_mask
        dim = self.n_nodes
        given = {"l_u": l_u, "l_rd": l_rd, "l_rd_t": l_rd_t, "call_rd": call_rd, "l_n": l_n}
        for name, op in given.items():
            if op is None:
                if name != "l_n":
                    raise ValueError(f"{name} is missing")
            elif not isinstance(op, Operator):
                raise TypeError(f"{name} must be an Operator, got {type(op).__name__}")
            elif op.shape != (dim, dim):
                raise ValueError(f"{name} has shape {op.shape}, expected {(dim, dim)}")
        self.ops = {name: op for name, op in given.items() if op is not None}

    @property
    def w_rd(self) -> sp.csr_matrix:
        """W_r = I - L_r as CSR, built on each read: scipy stores no exact 0.0."""
        return sp.identity(self.n_nodes, format="csr") - self.l_rd

    @property
    def n_nodes(self) -> int:
        return self.lanes * self.n_stations * self.n_instants

    def lane_of(self, entry: int | None) -> int | None:
        """Lane holding flat position ``entry``; None if unknown among several lanes."""
        if self.lanes == 1:
            return 0
        return None if entry is None else entry // (self.n_stations * self.n_instants)

    def apply(self, op: str, x: np.ndarray) -> np.ndarray:
        """Operator-vector product, by the operator's own kernel (``Operator.dot``).

        ``call_rd`` is the assembled L_r' L_r, not two chained products. The
        vector must be one ``Operator.dot`` applies; any other raises its
        ``ValueError``, whatever the operator's layout.
        """
        if op not in OPERATOR_NAMES:
            raise ValueError(f"unknown operator {op!r}; expected one of {OPERATOR_NAMES}")
        return self.ops[op].dot(x)

    def project_observed(self, x: np.ndarray) -> np.ndarray:
        """H x: select observed entries."""
        return x[self.h_mask]

    def lift_observed(self, y: np.ndarray) -> np.ndarray:
        """H^T y: scatter observations into the full-length vector."""
        observed = int(np.count_nonzero(self.h_mask))
        if np.shape(y) != (observed,):
            raise ValueError(f"observations of shape {np.shape(y)} for {observed} observed nodes")
        out = np.zeros(self.n_nodes)
        out[self.h_mask] = y
        return out

"""Context set-up at large station counts: array-built skeletons and the eigenmap solve.

The per-station loop versions of the skeleton builders, the neighbor
aggregation and the normalized Laplacian (against the planned ``l_n``), and
the per-component loop of the eigensolve, are kept here as references; the array versions must reproduce
them exactly. The eigenmap solve is held to the dense oracle
(``oracles.dense_spectrum``) on the whole graph: vector by vector where the
spectrum is simple, by spanned subspace where it is not.
"""

import contextlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stforecast import attention, data
from stforecast.attention import (
    FeatureMap,
    orient_columns,
    smallest_eigenpairs,
    spatial_eigenmap,
)
from stforecast.config import PipelineConfig
from stforecast.graphs import (
    PhysicalGraph,
    build_spatial_skeleton,
    build_temporal_skeleton,
    flat_index,
    unit_laplacian,
)
from stforecast.oracles import dense_spectrum
from stforecast.pipeline import PipelineContext


def loop_spatial_skeleton(pg, k):
    """Reference: rank each station's incident edges by (cost, neighbor), one station at a
    time; then, while some road edge runs between two pieces, add the cheapest such edge
    by (cost, lower id, higher id), finding the pieces afresh by graph search each time."""
    chosen = set()
    for s in range(pg.n_stations):
        incident = [(c, j) for i, j, c in pg.edges if i == s] + [
            (c, i) for i, j, c in pg.edges if j == s
        ]
        for _cost, nbr in sorted(incident)[:k]:
            chosen.add((min(s, nbr), max(s, nbr)))
    while True:
        piece = loop_pieces(pg.n_stations, chosen)
        between = sorted(
            (c, min(i, j), max(i, j)) for i, j, c in pg.edges if piece[i] != piece[j]
        )
        if not between:
            break
        chosen.add(between[0][1:])
    return np.array(sorted(chosen), dtype=np.int64).reshape(-1, 2)


def loop_pieces(n, edges):
    """Reference: the piece of every station, by depth-first search over ``edges``."""
    nbrs = skeleton_neighbors(n, edges)
    piece = [None] * n
    for start in range(n):
        if piece[start] is None:
            piece[start], stack = start, [start]
            while stack:
                for j in nbrs[stack.pop()]:
                    if piece[j] is None:
                        piece[j] = start
                        stack.append(j)
    return piece


def skeleton_neighbors(n, edges):
    """Each station's neighbours in ascending order, from (i, j) edge pairs."""
    nbrs = [set() for _ in range(n)]
    for i, j in edges:
        nbrs[i].add(int(j))
        nbrs[j].add(int(i))
    return [sorted(s) for s in nbrs]


def loop_temporal_skeleton(n, n_instants, window):
    """Reference: the child-major triple loop."""
    src, dst, lag = [], [], []
    for t in range(1, n_instants):
        for d in range(1, min(t, window) + 1):
            for s in range(n):
                src.append(flat_index(s, t - d, n))
                dst.append(flat_index(s, t, n))
                lag.append(d)
    return tuple(np.array(v, dtype=np.int64) for v in (src, dst, lag, range(n)))


def loop_aggregate(emb, skel):
    """Reference: average each node with its neighbors' mean, one station and instant at a time."""
    n = skel.n_stations
    agg = emb.copy()
    for s, nbrs in enumerate(skeleton_neighbors(n, skel.edges)):
        if not nbrs:
            continue
        idx = np.asarray(nbrs)
        for t in range(emb.shape[0] // n):
            off = t * n
            agg[off + s] = 0.5 * (emb[off + s] + emb[off + idx].mean(axis=0))
    return agg


def lil_normalized_laplacian(w):
    """Reference: zero the isolated nodes' diagonal through a LIL round trip."""
    w = w.tocsr()
    deg = np.asarray(w.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    d = sp.diags(inv_sqrt)
    lap = (sp.identity(w.shape[0], format="csr") - d @ w @ d).tolil()
    for i in np.flatnonzero(~nz):
        lap[i, i] = 0.0
    return lap.tocsr()


@st.composite
def physical_graphs(draw, max_stations=12):
    """Random edge subsets in random order and orientation; small integer costs force ties."""
    n = draw(st.integers(1, max_stations))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    cost = st.integers(0, 3) if draw(st.booleans()) else st.floats(0.0, 10.0)
    edges = []
    for i, j in chosen:
        if draw(st.booleans()):
            i, j = j, i
        edges.append((i, j, draw(cost)))
    return PhysicalGraph(n, tuple(edges))


def random_connected(rng, n, extra):
    """A random spanning tree plus ``extra`` random chords."""
    edges = {(int(rng.integers(i)), i) for i in range(1, n)}
    for _ in range(extra):
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.add((i, j))
    return sorted(edges)


def loop_smallest_eigenpairs(lap, count):
    """Reference: slice and solve one component at a time, densely up to the
    solver's bound, then pick the ``count`` smallest eigenvalues by a stable
    sort in component order."""
    labels = connected_components(lap, directed=False)[1]
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    vals, vecs = [], []
    for idx in members:
        sub = lap[idx][:, idx]
        k = min(count, len(idx))
        if len(idx) <= max(count + 1, attention.DENSE_COMPONENT_MAX_STATIONS):
            v, vec = dense_spectrum(sub)
            v, vec = v[:k], vec[:, :k]
        else:
            v0 = np.random.default_rng(0).standard_normal(len(idx))
            v, vec = eigsh(sub.tocsc(), k=k, sigma=attention.EIGSH_SHIFT, which="LM", v0=v0)
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


@contextlib.contextmanager
def dense_bound(stations):
    """A context in which components of more than max(count + 1, ``stations``)
    stations take Lanczos; 0 sends every component it can to Lanczos."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attention, "DENSE_COMPONENT_MAX_STATIONS", stations)
        yield


def oracle_eigenmap(pg, dim):
    """The dense oracle's vectors 1..dim of the whole road graph, oriented."""
    return orient_columns(dense_spectrum(unit_laplacian(pg))[1][:, 1 : dim + 1])


def interleaved_copies(n):
    """Two copies of an n-station path with a chord, one on the even and one
    on the odd stations."""
    base = [(i, i + 1) for i in range(n - 1)] + [(0, n // 2)]
    return PhysicalGraph(2 * n, tuple((2 * i + c, 2 * j + c, 1.0) for i, j in base for c in (0, 1)))


def projector(vecs):
    return vecs @ vecs.T


class TestSkeletonsMatchLoops:
    @given(physical_graphs(), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_spatial(self, pg, k):
        edges = loop_spatial_skeleton(pg, k)
        skel = build_spatial_skeleton(pg, k)
        assert skel.edges.dtype == edges.dtype == np.int64
        np.testing.assert_array_equal(skel.edges, edges)

    @given(st.integers(1, 6), st.integers(2, 12), st.integers(1, 11))
    @settings(max_examples=100, deadline=None)
    def test_temporal(self, n, n_instants, window):
        assume(window < n_instants)
        skel = build_temporal_skeleton(n, n_instants, window)
        refs = loop_temporal_skeleton(n, n_instants, window)
        for name, ref in zip(("src", "dst", "lag", "sources"), refs):
            got = getattr(skel, name)
            assert got.dtype == ref.dtype, name
            np.testing.assert_array_equal(got, ref, err_msg=name)


class TestSkeletonComponents:
    @staticmethod
    def components(n, edges):
        adj = sp.coo_matrix((np.ones(len(edges)), tuple(np.asarray(edges).T)), shape=(n, n))
        return connected_components(adj, directed=False)[0]

    @pytest.mark.parametrize("n,seed", [(200, 0), (1000, 1), (1000, 2)])
    def test_split_networks_are_joined(self, n, seed):
        # the 4-nearest union alone has 3, 2 and 2 components on these networks
        _table, pg = data.generate_synthetic(n, 20, seed)
        assert self.components(n, np.stack([pg.edges["from"], pg.edges["to"]], axis=1)) == 1
        assert self.components(n, build_spatial_skeleton(pg, 4).edges) == 1


class TestVectorisedLoopsMatch:
    @given(physical_graphs(), st.integers(1, 8), st.integers(1, 5), st.integers(2, 16),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_neighbor_aggregation(self, pg, k, n_instants, width, seed):
        # at least two embedding columns: the reference's mean over a single
        # column of 8+ rows switches to pairwise summation
        skel = build_spatial_skeleton(pg, k)
        emb = np.random.default_rng(seed).standard_normal((pg.n_stations * n_instants, width))
        out = FeatureMap(np.eye(width), skeleton=skel)(emb)
        np.testing.assert_array_equal(out, loop_aggregate(emb, skel) @ np.eye(width))

    @given(st.integers(1, 6), st.integers(2, 7), st.integers(0, 5), st.sampled_from((1, 2, 3)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_normalized_laplacian(self, n, n_instants, window, lanes, seed):
        # the planned l_n, filled into its band, against the normalized
        # Laplacian of the symmetrized temporal adjacency, half of each weight
        rng = np.random.default_rng(seed)
        sskel = build_spatial_skeleton(PhysicalGraph(n, ()), 1)
        tskel = build_temporal_skeleton(n, n_instants, 1 + window % (n_instants - 1))
        wd = rng.uniform(0.2, 1.5, (lanes, tskel.n_edges))
        plan = attention.plan_mixed_graph(sskel, tskel, lanes, 1, True)
        got = attention.fill_mixed_graph(plan, np.zeros((lanes, n_instants, 0)), wd).l_n
        lane = attention._lane_skeleton(tskel, lanes)
        half = np.tile(0.5 * wd.ravel(), 2)
        w = sp.coo_matrix((half, (np.concatenate([lane.src, lane.dst]),
                                  np.concatenate([lane.dst, lane.src]))),
                          shape=(lane.n_nodes, lane.n_nodes))
        ref = lil_normalized_laplacian(w)
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.data, ref.data)


class TestSparseEigenmap:
    @pytest.mark.parametrize("n,seed", [(20, 0), (20, 1), (20, 2), (150, 0), (200, 0)])
    def test_connected_equals_the_dense_oracle_bytewise(self, n, seed):
        # one component of at most the bound: its stacked eigh is dense eigh
        _table, pg = data.generate_synthetic(n, 20, seed)
        assert spatial_eigenmap(pg).tobytes() == oracle_eigenmap(pg, 5).tobytes()

    def test_interleaved_copies_keep_one_component_per_column(self):
        # dense eigh of the whole graph mixes the two copies' null vectors
        with pytest.warns(UserWarning, match="2 connected components"):
            eig = spatial_eigenmap(interleaved_copies(10))
        for column in eig.T:
            assert sorted({i % 2 for i in np.flatnonzero(column)}) in ([0], [1])

    @given(st.integers(0, 2**32 - 1), st.integers(12, 80), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_on_simple_spectrum(self, seed, n, dim):
        # Lanczos for the one component
        rng = np.random.default_rng(seed)
        edges = random_connected(rng, n, int(rng.integers(0, 2 * n)))
        pg = PhysicalGraph(n, tuple((i, j, 1.0) for i, j in edges))
        vals = np.linalg.eigvalsh(unit_laplacian(pg).toarray())[: dim + 2]
        assume(np.diff(vals).min() > 1e-4)
        with dense_bound(0):
            sparse = spatial_eigenmap(pg, dim)
        np.testing.assert_allclose(sparse, oracle_eigenmap(pg, dim), rtol=0, atol=1e-10)

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 40), min_size=2, max_size=8),
           st.integers(1, 8), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_disconnected_spans_dense_subspace(self, seed, sizes, count, lanczos):
        # components of random sizes, isolated stations included, solved by
        # stacked eigh or, past count + 1 stations, by Lanczos; every
        # component adds one copy of eigenvalue 0
        rng = np.random.default_rng(seed)
        edges, off = [], 0
        for size in sizes:
            edges += [(off + i, off + j) for i, j in random_connected(rng, size, size // 2)]
            off += size
        lap = unit_laplacian(PhysicalGraph(off, tuple((i, j, 1.0) for i, j in edges)))
        count = min(count, off)
        full = np.linalg.eigvalsh(lap.toarray())
        assume(count == off or full[count] - full[count - 1] > 1e-4)
        d_vals, d_vecs = dense_spectrum(lap)
        d_vals, d_vecs = d_vals[:count], d_vecs[:, :count]
        with dense_bound(0 if lanczos else off):
            s_vals, s_vecs = smallest_eigenpairs(lap, count)
        np.testing.assert_allclose(s_vals, d_vals, rtol=0, atol=1e-10)
        np.testing.assert_allclose(s_vecs.T @ s_vecs, np.eye(count), rtol=0, atol=1e-10)
        np.testing.assert_allclose(projector(s_vecs), projector(d_vecs), rtol=0, atol=1e-10)

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 12), min_size=1, max_size=30),
           st.integers(1, 8), st.booleans(), st.sampled_from([0, 6, 200]))
    @settings(max_examples=60, deadline=None)
    def test_fragmented_equals_the_component_loop_bitwise(self, seed, sizes, count, weighted,
                                                          bound):
        # pieces of random sizes in a random station order, each solved
        # either in a stacked dense eigh or, past the bound, by Lanczos:
        # values, vectors and the choice and order of the picked pairs match
        # the loop bit for bit
        rng = np.random.default_rng(seed)
        edges, off = [], 0
        for size in sizes:
            edges += [(off + int(rng.integers(i)), off + i) for i in range(1, size)]
            off += size
        perm = rng.permutation(off)
        pg = PhysicalGraph(off, tuple((int(perm[i]), int(perm[j]), 1.0) for i, j in edges))
        lap = unit_laplacian(pg)
        if weighted:
            lap = lap.multiply(rng.uniform(0.5, 2.0)).tocsr()
        count = min(count, off)
        with dense_bound(bound):
            got, want = smallest_eigenpairs(lap, count), loop_smallest_eigenpairs(lap, count)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_one_stacked_eigh_per_small_size(self, monkeypatch):
        # 2000 two-station pieces, 100 three-station pieces and one path of
        # 50, all within the bound: three stacked dense solves and no Lanczos
        edges = [(2 * i, 2 * i + 1, 1.0) for i in range(2000)]
        edges += [(4000 + 3 * i + d, 4001 + 3 * i + d, 1.0) for i in range(100) for d in (0, 1)]
        edges += [(4300 + i, 4301 + i, 1.0) for i in range(49)]
        lap = unit_laplacian(PhysicalGraph(4350, tuple(edges)))
        calls = {"eigh": [], "eigsh": 0}
        eigh, lanczos = np.linalg.eigh, attention.eigsh

        def counting_eigh(a):
            calls["eigh"].append(a.shape)
            return eigh(a)

        def counting_eigsh(*args, **kwargs):
            calls["eigsh"] += 1
            return lanczos(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(attention, "eigsh", counting_eigsh)
        vals, vecs = smallest_eigenpairs(lap, 6)
        assert calls == {"eigh": [(2000, 2, 2), (100, 3, 3), (1, 50, 50)], "eigsh": 0}
        monkeypatch.undo()
        want = loop_smallest_eigenpairs(lap, 6)
        assert vals.tobytes() == want[0].tobytes() and vecs.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("n", [40, 301])
    def test_degenerate_spectra_span_dense_subspace(self, n):
        # a cycle's nontrivial eigenvalues come in pairs, and counts 3 and 5
        # cut between pairs; a star's eigenvalue 1 has multiplicity n - 2, so
        # a cut at 6 falls inside it and only values and residuals are
        # defined. 40 stations take a stacked eigh, 301 Lanczos
        cycle = unit_laplacian(PhysicalGraph(n, tuple((i, (i + 1) % n, 1.0) for i in range(n))))
        for count in (3, 5):
            d_vals, d_vecs = dense_spectrum(cycle)
            d_vals, d_vecs = d_vals[:count], d_vecs[:, :count]
            s_vals, s_vecs = smallest_eigenpairs(cycle, count)
            np.testing.assert_allclose(s_vals, d_vals, rtol=0, atol=1e-10)
            np.testing.assert_allclose(projector(s_vecs), projector(d_vecs), rtol=0, atol=1e-10)
        star = unit_laplacian(PhysicalGraph(n, tuple((0, i, 1.0) for i in range(1, n))))
        s_vals, s_vecs = smallest_eigenpairs(star, 6)
        np.testing.assert_allclose(s_vals, [0, 1, 1, 1, 1, 1], rtol=0, atol=1e-10)
        np.testing.assert_allclose(star @ s_vecs, s_vecs * s_vals, rtol=0, atol=1e-10)

    def test_sparse_path_warns_on_disconnected(self):
        pg = PhysicalGraph(30, tuple((i, i + 1, 1.0) for i in range(29) if i != 14))
        with pytest.warns(UserWarning, match="2 connected components"), dense_bound(0):
            eig = spatial_eigenmap(pg, 5)
        assert eig.shape == (30, 5)

    def test_sparse_path_repeats_bitwise(self):
        rng = np.random.default_rng(4)
        pg = PhysicalGraph(400, tuple((i, j, 1.0) for i, j in random_connected(rng, 400, 600)))
        first = spatial_eigenmap(pg)
        np.testing.assert_array_equal(spatial_eigenmap(pg), first)
        lap = unit_laplacian(pg)
        a, b = smallest_eigenpairs(lap, 6), smallest_eigenpairs(lap, 6)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_orient_columns_sign_rule(self):
        vecs = np.array([[0.0, 1e-13], [-2.0, -1.0], [1.0, 3.0]])
        flipped = [[0.0, -1e-13], [2.0, 1.0], [-1.0, -3.0]]
        np.testing.assert_array_equal(orient_columns(vecs), flipped)


def test_large_context_skips_dense_eigh(monkeypatch):
    """A 1500-station context builds without dense ``eigh``, the O(N^3) path."""

    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigh called on a large graph")

    rng = np.random.default_rng(0)
    n = 1500
    pg = PhysicalGraph(
        n, tuple((i, j, float(rng.uniform(0.1, 2.0))) for i, j in random_connected(rng, n, 2 * n))
    )
    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = PipelineContext.build(pg, PipelineConfig())
    assert ctx.eigmap.shape == (n, ctx.config.graph.spatial_dim)
    assert np.all(np.isfinite(ctx.eigmap))
    assert ctx.sskel.n_stations == n

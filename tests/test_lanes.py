"""Heads and windows as lanes: a stacked block-diagonal solve against one
solve per head and per window."""

import contextlib
import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from stforecast import attention, data, pipeline, solver
from stforecast.attention import build_mixed_graph, fill_mixed_graph, plan_mixed_graph
from stforecast.config import HeadSettings, PipelineConfig
from stforecast.graphs import (
    MixedGraph,
    Pattern,
    PhysicalGraph,
    assemble_random_walk_digraph,
    assemble_undirected_laplacian,
    build_spatial_skeleton,
    build_temporal_skeleton,
    component_blocks,
    directed_skeleton_from_edges,
)
from stforecast.pipeline import (
    PipelineContext,
    Standardizer,
    flatten_time_major,
    reconstruct,
    run_forecast,
    unflatten_time_major,
)
from stforecast.solver import (
    TERMS,
    VARIANTS,
    AdmmState,
    CgSchedule,
    Fold,
    LayerParams,
    NumericFailure,
    admm_block,
    block_folds,
    cg_solve,
    folded_system,
    polynomial_operator,
    update_zu,
)

from test_graphs import random_mixed
from test_pipeline import small_config, tiny_dataset

STACKED_OPS = ("l_u", "w_rd", "l_rd", "call_rd", "l_rd_t", "l_n")


def _block_diag_csr(mats: list[sp.csr_matrix]) -> sp.csr_matrix:
    """Block-diagonal CSR from square CSR blocks, each row's entries kept in order."""
    col_off = np.cumsum([0] + [m.shape[1] for m in mats[:-1]])
    nnz_off = np.cumsum([0] + [m.nnz for m in mats[:-1]])
    indptr = np.concatenate(
        [mats[0].indptr[:1]] + [m.indptr[1:] + off for m, off in zip(mats, nnz_off)]
    )
    indices = np.concatenate([m.indices + off for m, off in zip(mats, col_off)])
    data = np.concatenate([m.data for m in mats])
    dim = int(sum(m.shape[0] for m in mats))
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


def stack_graphs(graphs: list[MixedGraph]) -> MixedGraph:
    """One lane per graph, operators block-diagonal; one graph is returned as is.

    Each operator's blocks keep their rows' entry order, so a product with
    the stack equals, lane by lane and bit for bit, the products with the
    separate graphs. The forward pass assembles its lanes directly
    (``attention.multi_head_graphs``); stacking separately built graphs
    is the reference the tests hold that assembly to.
    """
    if len(graphs) == 1:
        return graphs[0]
    first = graphs[0]
    shape = (first.n_stations, first.n_instants, first.n_observed)
    for g in graphs[1:]:
        if (g.n_stations, g.n_instants, g.n_observed) != shape:
            raise ValueError("stacked graphs must share stations, instants and observed prefix")
    ops = ["l_u", "w_rd", "l_rd", "call_rd", "l_rd_t"]
    if all(g.l_n is not None for g in graphs):
        ops.append("l_n")
    return MixedGraph(
        n_stations=first.n_stations,
        n_instants=first.n_instants,
        n_observed=first.n_observed,
        h_mask=np.concatenate([g.h_mask for g in graphs]),
        lanes=sum(g.lanes for g in graphs),
        **{name: _block_diag_csr([getattr(g, name) for g in graphs]) for name in ops},
    )


def random_heads(rng, heads):
    """Graphs of one shape with independently drawn edge weights."""
    shape = dict(
        n_stations=int(rng.integers(2, 6)),
        n_instants=int(rng.integers(3, 7)),
        window=int(rng.integers(1, 3)),
    )
    shape["n_observed"] = int(rng.integers(1, shape["n_instants"]))
    return [random_mixed(rng, with_l_n=True, **shape) for _ in range(heads)]


def random_params(rng, layers):
    return [
        LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3)) for _ in range(layers)
    ]


class TestStack:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_equals_block_diag(self, seed, heads):
        rng = np.random.default_rng(seed)
        graphs = random_heads(rng, heads)
        stacked = stack_graphs(graphs)
        assert stacked.lanes == heads
        assert stacked.n_nodes == heads * graphs[0].n_nodes
        np.testing.assert_array_equal(stacked.h_mask, np.tile(graphs[0].h_mask, heads))
        for name in STACKED_OPS:
            expected = sp.block_diag([getattr(g, name) for g in graphs]).toarray()
            np.testing.assert_array_equal(getattr(stacked, name).toarray(), expected)
        xs = [rng.standard_normal(g.n_nodes) for g in graphs]
        for op in ("l_u", "l_rd", "l_rd_t", "call_rd"):
            np.testing.assert_array_equal(
                stacked.apply(op, np.concatenate(xs)),
                np.concatenate([g.apply(op, x) for g, x in zip(graphs, xs)]),
            )

    def test_single_graph_returned_unchanged(self):
        g = random_mixed(np.random.default_rng(0))
        assert stack_graphs([g]) is g

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="share"):
            stack_graphs([random_mixed(rng, n_stations=3), random_mixed(rng, n_stations=4)])

    def test_lane_of(self):
        rng = np.random.default_rng(2)
        g = random_mixed(rng)
        stacked = stack_graphs([g, random_mixed(rng), random_mixed(rng)])
        assert [stacked.lane_of(e) for e in (0, g.n_nodes - 1, g.n_nodes, 3 * g.n_nodes - 1)] == [
            0, 0, 1, 2,
        ]
        assert stacked.lane_of(None) is None
        assert g.lane_of(None) == 0


def assert_same_csr(a, b):
    """Same pattern, entry order and values, bit for bit (signed zeros too)."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


class TestLaneAssembly:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_stacked_per_head_graphs(self, seed, heads, with_l_n, windows):
        # ``windows`` None is one window's (nodes, K) features; otherwise one
        # set per window, (windows, nodes, K), each read by every head
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        linked = int(rng.integers(1, n + 1))  # stations from `linked` on are isolated
        edges = tuple(
            (i, j, float(rng.uniform(0.1, 2)))
            for i in range(linked) for j in range(i + 1, linked) if rng.uniform() < 0.7
        )
        n_instants = int(rng.integers(3, 7))
        window = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 5))
        sskel = build_spatial_skeleton(PhysicalGraph(n, edges), int(rng.integers(1, 4)))
        tskel = build_temporal_skeleton(n, n_instants, window)
        # full (non-diagonal) factors for a few (head, instant) and (head, lag) pairs
        overrides = [
            {"head": int(rng.integers(heads)), key: int(rng.integers(low, high)),
             "factor": (0.7 * rng.standard_normal((dim, dim))).tolist()}
            for key, low, high in [("instant", 0, n_instants), ("lag", 1, window + 1)] * 3
        ]
        bank = HeadSettings(count=heads, metric_overrides=overrides).build_bank(
            n_instants, window, dim
        )
        shape = (n * n_instants, dim) if windows is None else (windows, n * n_instants, dim)
        feats = rng.standard_normal(shape)
        n_observed = int(rng.integers(1, n_instants))

        lanes = (windows or 1) * heads
        plan = attention.plan_mixed_graph(sskel, tskel, lanes, n_observed, with_l_n)
        stacked = attention.multi_head_graphs(feats, plan, bank)
        alone = [
            attention.build_mixed_graph(
                attention.undirected_weights(window_feats, sskel, bank.undirected[h]),
                attention.directed_weights(window_feats, tskel, bank.directed[h]),
                sskel, tskel, n_observed, with_l_n,
            )
            for window_feats in (feats if windows else [feats])
            for h in range(heads)
        ]
        expected = stack_graphs(alone)
        assert stacked.lanes == (windows or 1) * heads
        np.testing.assert_array_equal(stacked.h_mask, expected.h_mask)
        for name in STACKED_OPS if with_l_n else STACKED_OPS[:-1]:
            assert_same_csr(getattr(stacked, name), getattr(expected, name))
        assert (stacked.l_n is None) == (not with_l_n)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_undirected_laplacian_equals_slice_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        edges = tuple(
            (i, j, float(rng.uniform(0.1, 2)))
            for i in range(n) for j in range(i + 1, n) if rng.uniform() < 0.5
        )
        skel = build_spatial_skeleton(PhysicalGraph(n, edges), int(rng.integers(1, 4)))
        weights = rng.uniform(0.0, 2.0, (int(rng.integers(1, 10)), skel.n_edges))
        weights[rng.uniform(size=weights.shape) < 0.2] = 0.0
        assert_same_csr(
            assemble_undirected_laplacian(skel, weights), slice_loop_laplacian(skel, weights)
        )


def slice_loop_laplacian(skel, weights):
    """The undirected Laplacian built one slice at a time (the reference)."""
    n = skel.n_stations
    dim = n * weights.shape[0]
    if skel.n_edges == 0:
        return sp.csr_matrix((dim, dim))
    ei, ej = skel.edges[:, 0], skel.edges[:, 1]
    rows, cols, vals = [], [], []
    for t, w in enumerate(weights):
        off = t * n
        rows.extend([off + ei, off + ej])
        cols.extend([off + ej, off + ei])
        vals.extend([-w, -w])
        deg = np.zeros(n)
        np.add.at(deg, ei, w)
        np.add.at(deg, ej, w)
        rows.append(off + np.arange(n))
        cols.append(off + np.arange(n))
        vals.append(deg)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    ).tocsr()
    mat.sum_duplicates()
    return mat


def no_diagonal_graph():
    """One station, three instants, temporal edge 0 -> 1 only.

    Instant 2 is a source without children: L_r stores nothing in its row or
    column, so L_r'L_r has no (2, 2) entry; ``l_n`` has none either, and the
    spatial Laplacian stores nothing at all.
    """
    sskel = build_spatial_skeleton(PhysicalGraph(1, ()), 1)
    w_rd, l_rd = assemble_random_walk_digraph(directed_skeleton_from_edges(3, [(0, 1)]), np.ones(1))
    g = MixedGraph(
        n_stations=1, n_instants=3, n_observed=2,
        l_u=assemble_undirected_laplacian(sskel, np.zeros((3, 0))), w_rd=w_rd, l_rd=l_rd,
        l_n=sp.csr_matrix(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])),
    )
    assert g.call_rd[2, 2] == 0 and 2 not in g.call_rd[2].indices
    return g


def dropped_zero_graph(which):
    """A planned one-station graph one of whose operators loses an entry that
    comes out exactly 0.0, as scipy's products store none: its plan, the
    graph, and the skeletons and weights it was filled from.

    ``"cancelling_call_rd"``: (L'L)(1, 2) = -w(2 <- 1) + w(3 <- 1) w(3 <- 2)
    = -1/8 + 1/2 * 1/4 = 0. ``"underflowing_walk_weight"``: 5e-324 / 2
    rounds to 0.0, so L_r loses entry (2, 0), and half of it leaves l_n's
    entries (0, 2) and (2, 0) at 0.0.
    """
    if which == "cancelling_call_rd":
        # child-major: 1 <- 0; 2 <- 1, 0; 3 <- 2, 1, 0
        n_instants, window, n_observed, with_l_n = 4, 3, 2, False
        wd = np.array([1.0, 0.125, 0.875, 0.25, 0.5, 0.25])
    else:
        n_instants, window, n_observed, with_l_n = 3, 2, 1, True
        wd = np.array([1.0, 2.0, 5e-324])
    sskel = build_spatial_skeleton(PhysicalGraph(1, ()), 1)
    tskel = build_temporal_skeleton(1, n_instants, window)
    wu = np.zeros((n_instants, 0))
    plan = plan_mixed_graph(sskel, tskel, 1, n_observed, with_l_n)
    return plan, fill_mixed_graph(plan, wu, wd), (sskel, tskel, wu, wd)


@functools.lru_cache(maxsize=1)
def desk_lane_graph():
    """The first block's graph of two desk windows (20 stations, the default
    four heads, undirected-temporal mode so that ``l_n`` is built): 8 lanes."""
    table, pg = data.generate_synthetic(20, 200, 0)
    cfg = PipelineConfig()
    cfg.solver.mode = "undirected_temporal"
    ctx = PipelineContext.build(pg, cfg, standardizer=Standardizer.fit(table.values))
    windows = data.cut_windows(table, cfg.data.history, cfg.data.horizon, cfg.data.stride)[:2]
    starts = [pipeline.initial_signal(w, ctx) for w in windows]
    return pipeline.block_graph(ctx, [x for x, _, _ in starts], [t for _, _, t in starts])


def fold_cases(p):
    """(ops, shift, observed) of every CG system the solver folds, for layer scalars p."""
    return list(dict.fromkeys(
        key for terms in TERMS.values() for key in solver._layer_systems(terms, p)
    ))


class TestFoldedSystem:
    @pytest.mark.parametrize("which", ["random", "lanes", "no_diagonal"])
    def test_matches_unfolded_products(self, which):
        rng = np.random.default_rng(31)
        if which == "random":
            g = random_mixed(rng, n_stations=4, n_instants=5, window=2, n_observed=3, with_l_n=True)
        elif which == "lanes":
            g = stack_graphs(random_heads(rng, 3))
        else:
            g = no_diagonal_graph()
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        for ops, shift, observed in fold_cases(p):
            folded = folded_system(g, ops, shift, observed).matrix()
            for _ in range(3):
                v = rng.standard_normal(g.n_nodes)
                want = shift * v + sum(coef * (getattr(g, name) @ v) for name, coef in ops)
                if observed:
                    want[g.h_mask] += v[g.h_mask]
                scale = sum(abs(coef) * (abs(getattr(g, name)) @ abs(v)) for name, coef in ops)
                scale = np.max(scale + (shift + 1.0) * np.abs(v))
                assert np.abs(folded @ v - want).max() <= 1e-13 * scale, (ops, shift, observed)

    def test_shares_the_operator_pattern(self):
        g = random_mixed(np.random.default_rng(32), with_l_n=True)
        for name in ("l_u", "call_rd", "l_n"):
            op = getattr(g, name)
            data = op.data.copy()
            folded = folded_system(g, ((name, 0.7),), 0.3, observed=True).matrix()
            assert np.shares_memory(folded.indices, op.indices)
            assert np.shares_memory(folded.indptr, op.indptr)
            assert not np.shares_memory(folded.data, op.data)
            np.testing.assert_array_equal(op.data, data)

    def test_an_update_reads_its_plan(self):
        # without a plan the system is folded for the one solve; a plan that
        # lacks it raises
        g = random_mixed(np.random.default_rng(33))
        p = LayerParams(0.5, 0.6, 0.7, 1.0, 1.1, 1.2)
        sched = CgSchedule.unrolled()
        state = AdmmState.initial(np.ones(g.n_nodes), g)
        with recurrence_only():
            plan = block_folds(g, [p], TERMS["full"], sched)
        planned = update_zu(state, g, p, sched, plan)
        assert planned.tobytes() == update_zu(state, g, p, sched).tobytes()
        with pytest.raises(KeyError):
            update_zu(state, g, p, sched, {})

    def test_block_folds_once_per_distinct_scalars(self, monkeypatch):
        from stforecast import solver

        g = random_mixed(np.random.default_rng(34))
        systems = []
        solve = solver.cg_solve

        def recording(apply_a, *args):
            systems.append(apply_a.__self__)
            return solve(apply_a, *args)

        monkeypatch.setattr(solver, "cg_solve", recording)
        params = [LayerParams(0.5, 0.6, 0.7, 1.0, 1.1, 1.2)] * 5
        y = np.ones(int(g.h_mask.sum()))
        admm_block(np.zeros(g.n_nodes), y, g, params, CgSchedule.unrolled())
        assert len(systems) == 3 * 5  # x, z_u and z_d in every layer
        assert len({id(a) for a in systems}) == 3

    @pytest.mark.parametrize("which", ["desk_lanes", "cancelling_call_rd", "underflowing_walk_weight"])
    def test_kernel_product_is_the_csr_product(self, which):
        # every system of every variant, as a block plans it: the fold's
        # kernel product is bitwise its CSR view's product
        g = desk_lane_graph() if which == "desk_lanes" else dropped_zero_graph(which)[1]
        if which == "desk_lanes":
            assert g.lanes == 8
        rng = np.random.default_rng(36)
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        # the cancelling graph has no l_n, so no undirected-temporal systems
        modes = [m for m in VARIANTS if g.l_n is not None or TERMS[m].temporal != "l_n"]
        for mode in modes:
            for key, (fold, _) in block_folds(g, [p], TERMS[mode], CgSchedule.exact()).items():
                v = rng.standard_normal(g.n_nodes)
                want = folded_system(g, *key).matrix() @ v
                assert fold.dot(v).tobytes() == want.tobytes(), (mode, key)


BAD_VECTORS = ["short", "long", "float32", "strided", "2-d", "list"]


def bad_vector(bad, n):
    """A vector that a fold of ``n`` nodes must refuse, of the kind ``bad``."""
    return {
        "short": np.ones(n - 1),
        "long": np.ones(n + 1),
        "float32": np.ones(n, dtype=np.float32),
        "strided": np.ones(2 * n)[::2],
        "2-d": np.ones((n, 1)),
        "list": [1.0] * n,
    }[bad]


class TestFoldKernel:
    """``Fold.dot`` calls scipy's CSR kernel, which checks no bounds: the
    contract it relies on, and the inputs it must refuse."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_either_index_dtype(self, index_dtype):
        g = random_mixed(np.random.default_rng(37), n_stations=4, n_instants=5, with_l_n=True)
        v = np.random.default_rng(38).standard_normal(g.n_nodes)
        for name in ("l_u", "l_rd", "l_rd_t", "call_rd", "l_n"):
            op = getattr(g, name)
            pattern = Pattern(op.indptr.astype(index_dtype), op.indices.astype(index_dtype))
            assert Fold(pattern, op.data).dot(v).tobytes() == (op @ v).tobytes(), name

    def test_off_plan_l_rd(self):
        # L_r rebuilt without its underflowed entry, on a pattern of its own
        plan, g, _ = dropped_zero_graph("underflowing_walk_weight")
        assert g.patterns["l_rd"] is not plan.patterns["l_rd"]
        fold = Fold(g.patterns["l_rd"], g.l_rd.data)
        v = np.random.default_rng(39).standard_normal(g.n_nodes)
        assert fold.dot(v).tobytes() == (g.l_rd @ v).tobytes()

    @pytest.mark.parametrize("bad", BAD_VECTORS)
    def test_refuses_a_vector_the_kernel_would_misread(self, bad):
        g = random_mixed(np.random.default_rng(40))
        fold = folded_system(g, (("l_u", 0.5),), 0.3, True)
        n = g.n_nodes
        v = bad_vector(bad, n)
        with pytest.raises(ValueError, match=f"C-contiguous float64 vector of length {n}"):
            fold.dot(v)

    def test_refuses_index_arrays_of_two_dtypes(self):
        op = random_mixed(np.random.default_rng(41)).l_u
        fold = Fold(Pattern(op.indptr.astype(np.int64), op.indices.astype(np.int32)), op.data)
        with pytest.raises(ValueError, match="index arrays differ in dtype"):
            fold.dot(np.ones(op.shape[0]))

    @pytest.mark.parametrize("bad", ["short", "float32"])
    def test_refuses_values_that_do_not_fill_the_pattern(self, bad):
        op = random_mixed(np.random.default_rng(42)).l_u
        data = op.data[:-1] if bad == "short" else op.data.astype(np.float32)
        with pytest.raises(ValueError, match="float64 values"):
            Fold(Pattern.of(op), data)


def planned_graph(rng, lanes, n_stations=3, n_instants=5, window=2, n_observed=3):
    """A graph of ``lanes`` lanes filled into its plan, ``l_n`` too, with random weights."""
    edges = tuple((i, j, float(rng.uniform(0.1, 2)))
                  for i in range(n_stations) for j in range(i + 1, n_stations))
    sskel = build_spatial_skeleton(PhysicalGraph(n_stations, edges), 2)
    tskel = build_temporal_skeleton(n_stations, n_instants, window)
    plan = plan_mixed_graph(sskel, tskel, lanes, n_observed, True)
    wu = rng.uniform(0.2, 1.5, (lanes, n_instants, sskel.n_edges))
    wd = rng.uniform(0.2, 1.5, (lanes, tskel.n_edges))
    return fill_mixed_graph(plan, wu, wd)


@contextlib.contextmanager
def kernel_calls(fail=False):
    """The names of the scipy kernels ``Fold.dot`` calls, in order; with
    ``fail``, a call raises instead."""
    calls = []

    def recording(name, kernel):
        def call(*args):
            if fail:
                raise AssertionError(f"{name} ran")
            calls.append(name)
            return kernel(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("csr_matvec", "dia_matvec"):
            mp.setattr(solver, name, recording(name, getattr(solver, name)))
        yield calls


FINITE = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))


class TestBandKernel:
    """A planned temporal pattern (``call_rd``, ``l_n``) has a ``Band``, and
    its folds run scipy's DIA kernel; every other fold runs the CSR kernel.
    On a finite vector both give the CSR view's product bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 4, 8]),
           st.sampled_from(["full", "no_dgtv", "undirected_temporal"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_is_the_csr_product(self, seed, lanes, mode, data):
        rng = np.random.default_rng(seed)
        n_instants = int(rng.integers(3, 7))
        g = planned_graph(rng, lanes, n_stations=int(rng.integers(1, 5)), n_instants=n_instants,
                          window=int(rng.integers(1, n_instants)),
                          n_observed=int(rng.integers(1, n_instants)))
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        ran = set()
        for key, (fold, _) in block_folds(g, [p], TERMS[mode], CgSchedule.exact()).items():
            v = np.array(data.draw(st.lists(FINITE, min_size=g.n_nodes, max_size=g.n_nodes)))
            banded = [name for name, _ in key[0]] in (["call_rd"], ["l_n"])
            assert (fold.pattern.band is not None) == banded, key
            assert (fold.data.ndim == 2) == banded, key
            with kernel_calls() as calls:
                got = fold.dot(v)
            assert calls == ["dia_matvec" if banded else "csr_matvec"], key
            assert got.tobytes() == (fold.matrix() @ v).tobytes(), key
            ran.update(calls)
        assert "dia_matvec" in ran  # every one of these modes has a temporal solve

    @pytest.mark.parametrize("which", ["unplanned", "direct_unsplit", "cancelling_call_rd",
                                       "polynomial"])
    def test_other_folds_stay_on_csr(self, which):
        # a graph made without a plan, the unsplit signal system (a sum of
        # operators) and a call_rd that dropped an exact 0.0 have patterns
        # of their own, without a band; a fold applied as Q(A) keeps its
        # values in entry order, which the polynomial's fill reads
        rng = np.random.default_rng(43)
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        if which == "unplanned":
            g = stack_graphs(random_heads(rng, 2))
            folds = block_folds(g, [p], TERMS["full"], CgSchedule.exact())
        elif which == "direct_unsplit":
            g = planned_graph(rng, 4)
            folds = block_folds(g, [p], TERMS["direct_unsplit"], CgSchedule.exact())
        elif which == "polynomial":
            # 5 layers of one system, and components of 5 nodes (a station's instants)
            g = planned_graph(rng, 4, n_instants=5)
            folds = block_folds(g, [p] * 5, TERMS["full"], CgSchedule.unrolled())
            assert all(q is not None for _, q in folds.values())
        else:
            plan, g, _ = dropped_zero_graph(which)
            assert g.patterns["call_rd"] is not plan.patterns["call_rd"]
            folds = block_folds(g, [p], TERMS["full"], CgSchedule.exact())
        for key, (fold, _) in folds.items():
            assert fold.data.ndim == 1, key
            assert which == "polynomial" or fold.pattern.band is None, key
            v = rng.standard_normal(g.n_nodes)
            with kernel_calls() as calls:
                got = fold.dot(v)
            assert calls == ["csr_matvec"]
            assert got.tobytes() == (fold.matrix() @ v).tobytes(), key

    def test_banded_fold_holds_the_diagonals_only(self):
        g = planned_graph(np.random.default_rng(44), 4)
        fold = folded_system(g, (("call_rd", 0.7),), 0.3, True, on_band=True)
        band = fold.pattern.band
        assert band.which.dtype == np.uint8
        assert fold.data.shape == (len(band.offsets), g.n_nodes)
        np.testing.assert_array_equal(band.offsets, np.arange(-2, 3) * g.n_stations)
        # the same operators without the plan's patterns fold on CSR
        unplanned = MixedGraph(g.n_stations, g.n_instants, g.n_observed, l_u=g.l_u, w_rd=g.w_rd,
                               l_rd=g.l_rd, lanes=g.lanes)
        want = folded_system(unplanned, (("call_rd", 0.7),), 0.3, True)
        assert want.pattern.band is None
        assert_same_csr(fold.matrix(), want.matrix())
        with pytest.raises(ValueError, match="5 diagonals of 60 needs as many float64 values"):
            Fold(fold.pattern, fold.data[:, :-1])

    @pytest.mark.parametrize("bad", BAD_VECTORS)
    def test_refuses_a_vector_before_either_kernel(self, bad):
        g = planned_graph(np.random.default_rng(45), 4)
        n = g.n_nodes
        v = bad_vector(bad, n)
        for name in ("l_u", "call_rd", "l_n"):
            fold = folded_system(g, ((name, 0.5),), 0.3, True, on_band=True)
            assert (fold.data.ndim == 2) == (name != "l_u")
            with kernel_calls(fail=True), pytest.raises(
                    ValueError, match=f"C-contiguous float64 vector of length {n}"):
                fold.dot(v)

    def test_verify_check_needs_byte_equal_products(self, monkeypatch):
        # one ulp off in one entry is far inside the check's 1e-13 tolerance;
        # only the byte comparison with the CSR view sees it
        from stforecast import verify

        result = verify.check_lanes_and_folds()
        assert result.passed, result.detail
        assert "each product byte-equal to its CSR view's" in result.detail
        kernel = solver.dia_matvec

        def one_ulp_off(*args):
            kernel(*args)
            args[-1][0] = np.nextafter(args[-1][0], np.inf)

        monkeypatch.setattr(solver, "dia_matvec", one_ulp_off)
        result = verify.check_lanes_and_folds()
        assert not result.passed
        assert result.detail.startswith("fold products differ from their CSR views': call_rd")

    def test_exact_cg_names_a_nonfinite_direction_in_its_own_lane(self):
        # the first direction is the starting residual; one inf in lane 1
        # reaches lane 0's last rows through the band's padding (0 * inf),
        # so the failure must name the direction's entry, not A p's first
        g = planned_graph(np.random.default_rng(46), 2)
        fold = folded_system(g, (("call_rd", 0.7),), 0.3, True, on_band=True)
        b = np.ones(g.n_nodes)
        size = g.n_nodes // 2
        b[size + 1] = np.inf
        with np.errstate(invalid="ignore"):
            ap = fold.dot(b)
        assert not np.isfinite(ap[:size]).all()  # the padding carried it over
        with pytest.raises(NumericFailure, match="curvature") as info, \
                np.errstate(invalid="ignore"):
            cg_solve(fold.dot, b, np.zeros(g.n_nodes), CgSchedule.exact())
        assert info.value.entry == size + 1
        assert g.lane_of(info.value.entry) == 1


def per_step_unrolled(apply_a, b, x0, sched):
    """Unrolled CG with the finiteness check after every step (the reference)."""
    x = np.array(x0, dtype=np.float64)
    r = b - apply_a(x)
    p = r.copy()
    for k in range(sched.iters):
        ap = apply_a(p)
        x = x + sched.alphas[k] * p
        r = r - sched.alphas[k] * ap
        bad = np.flatnonzero(~np.isfinite(x))
        if len(bad):
            raise NumericFailure("unrolled CG diverged", iteration=k, entry=int(bad[0]))
        p = r + sched.betas[k] * p
    return x


def exact_unrolled(d, b, x0, sched):
    """Unrolled CG on diag(d) in exact rational arithmetic, rounded once at the end."""
    out = []
    for di, bi, xi in zip(*(map(Fraction, v.tolist()) for v in (d, b, x0))):
        x, r = xi, bi - di * xi
        p = r
        for alpha, beta in zip(map(Fraction, sched.alphas.tolist()),
                               map(Fraction, sched.betas.tolist())):
            x += alpha * p
            r -= alpha * di * p
            p = r + beta * p
        out.append(float(x))
    return np.array(out)


class TestUnrolledFailure:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_names_the_reference_iteration_and_entry(self, seed, iters, polynomial):
        # the recurrence, or a diverging fold on the polynomial path
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        # entries grow like (alpha d)^k, so large d overflow after a few steps
        a = sp.diags(10.0 ** rng.uniform(-1, 160, n), format="csr")
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        sched = CgSchedule.unrolled(iters, rng.uniform(0.05, 0.8, iters), rng.uniform(0, 1, iters))
        apply_g = polynomial_operator(component_blocks(a, np.arange(n)), sched).dot if polynomial else None
        try:
            want = per_step_unrolled(a.dot, b, x0, sched)
        except NumericFailure as ref:
            try:
                got = cg_solve(a.dot, b, x0, sched, apply_g)
            except NumericFailure as exc:
                assert (exc.iteration, exc.entry) == (ref.iteration, ref.entry)
            else:
                # the polynomial path forms only x0 + Q(A) r0, which can stay
                # finite where the recurrence's own iterates overflow; then it
                # must be the exact-arithmetic result
                assert polynomial
                exact = exact_unrolled(a.diagonal(), b, x0, sched)
                assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()
        else:
            got = cg_solve(a.dot, b, x0, sched, apply_g)
            if polynomial:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            else:
                np.testing.assert_array_equal(got, want)


class TestStackedBlock:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.integers(1, 3),
        st.sampled_from(VARIANTS),
        st.sampled_from(("unrolled", "exact")),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_head(self, seed, heads, layers, mode, cg_mode):
        rng = np.random.default_rng(seed)
        graphs = random_heads(rng, heads)
        params = random_params(rng, layers)
        n = graphs[0].n_nodes
        x0 = rng.standard_normal(n)
        y = rng.standard_normal(int(graphs[0].h_mask.sum()))
        if cg_mode == "unrolled":
            sched, tol = CgSchedule.unrolled(), 1e-10
        else:
            sched, tol = CgSchedule.exact(tol=1e-12), 1e-8
        per_head = [admm_block(x0, y, g, params, sched, mode) for g in graphs]
        stacked = admm_block(
            np.tile(x0, heads), np.tile(y, heads), stack_graphs(graphs), params, sched, mode
        )
        np.testing.assert_allclose(stacked.reshape(heads, n), np.array(per_head), rtol=0, atol=tol)


def per_head_forward(sample, ctx):
    """The pipeline's forward pass with one admm_block call per head (the reference)."""
    cfg = ctx.config
    n = sample.n_stations
    t_obs = sample.observed.shape[1]
    obs_std = ctx.standardizer.transform(sample.observed)
    future = np.repeat(obs_std[:, -1:], sample.target.shape[1], axis=1)
    x = flatten_time_major(np.concatenate([obs_std, future], axis=1))
    y = x[: n * t_obs].copy()
    t_steps = np.asarray(sample.timestamps, dtype=np.float64) / ctx.interval
    for b in range(cfg.layers.blocks):
        feats = ctx.feature_map(attention.embed(x, t_steps, ctx.eigmap))
        graphs = [
            attention.build_mixed_graph(
                attention.undirected_weights(feats, ctx.sskel, ctx.bank.undirected[h]),
                attention.directed_weights(feats, ctx.tskel, ctx.bank.directed[h]),
                ctx.sskel, ctx.tskel, t_obs,
                with_undirected_temporal=cfg.solver.mode == "undirected_temporal",
            )
            for h in range(ctx.bank.heads)
        ]
        params = cfg.layers.layer_params(b, cfg.default_rho(n))
        outs = [
            admm_block(x, y, g, params, cfg.solver.schedule(), cfg.solver.mode) for g in graphs
        ]
        x_new = sum(w * out for w, out in zip(cfg.heads.merge, outs))
        x = cfg.layers.residual[b] * x_new + (1.0 - cfg.layers.residual[b]) * x
    return ctx.standardizer.inverse(unflatten_time_major(x, n))


class TestForwardLanes:
    @pytest.mark.parametrize("mode", VARIANTS)
    def test_two_heads_match_per_head_loop(self, mode):
        splits, pg, std = tiny_dataset()
        cfg = small_config(heads=2)
        cfg.solver.mode = mode
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        for s in splits.test[:2]:
            expected = per_head_forward(s, ctx)[:, s.observed.shape[1]:]
            np.testing.assert_allclose(run_forecast(s, ctx), expected, rtol=0, atol=1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_lane_names_its_head(self, monkeypatch):
        splits, pg, std = tiny_dataset()
        ctx = PipelineContext.build(pg, small_config(heads=2), standardizer=std)
        monkeypatch.setattr(attention, "multi_head_graphs", diverge_lane(1))
        with pytest.raises(NumericFailure) as info:
            run_forecast(splits.test[0], ctx)
        exc = info.value
        assert (exc.block, exc.head, exc.layer, exc.step) == (0, 1, 0, "z_u")
        assert exc.iteration is not None
        message = str(exc)
        assert message.startswith("unrolled CG diverged (")
        for part in ("block 0", "head 1", "layer 0", "step z_u", f"cg iteration {exc.iteration}"):
            assert message.count(part) == 1, message


@functools.lru_cache(maxsize=None)
def cached_dataset():
    return tiny_dataset()


def window_context(heads, mode="full", cg_mode="unrolled"):
    splits, pg, std = cached_dataset()
    cfg = small_config(heads=heads)
    cfg.solver.mode = mode
    cfg.solver.cg_mode = cg_mode
    return splits.test + splits.val, PipelineContext.build(pg, cfg, standardizer=std)


def diverge_lane(lane, after_calls=0):
    """A stand-in for ``multi_head_graphs`` whose graphs blow up in one lane.

    The spatial Laplacian of ``lane`` is scaled by 1e200 from call number
    ``after_calls`` on, so the first z_u solve there diverges.
    """
    build = attention.multi_head_graphs
    calls = []

    def diverging(*args, **kwargs):
        g = build(*args, **kwargs)
        calls.append(g.lanes)
        if len(calls) <= after_calls:
            return g
        lane_scale = np.ones(g.lanes)
        lane_scale[lane] = 1e200
        return MixedGraph(
            g.n_stations, g.n_instants, g.n_observed,
            l_u=sp.diags(np.repeat(lane_scale, g.n_nodes // g.lanes)) @ g.l_u,
            w_rd=g.w_rd, l_rd=g.l_rd, lanes=g.lanes,
        )

    return diverging


def diverge_temporal_lane(lane):
    """A stand-in for ``multi_head_graphs`` whose temporal operators, ``call_rd``
    and ``l_n``, have lane ``lane``'s rows scaled by 1e200, on the plan's
    patterns: their folds run the band kernel."""
    build = attention.multi_head_graphs

    def diverging(features, plan, bank):
        g = build(features, plan, bank)
        lane_scale = np.ones(g.lanes)
        lane_scale[lane] = 1e200
        rows = np.repeat(lane_scale, g.n_nodes // g.lanes)
        scaled = {}
        for name in ("call_rd", "l_n"):
            op = getattr(g, name)
            if op is not None:
                data = op.data * np.repeat(rows, np.diff(op.indptr))
                scaled[name] = sp.csr_matrix((data, op.indices, op.indptr), shape=op.shape)
        out = MixedGraph(
            g.n_stations, g.n_instants, g.n_observed, l_u=g.l_u, w_rd=g.w_rd, l_rd=g.l_rd,
            h_mask=g.h_mask, lanes=g.lanes, l_rd_t=g.l_rd_t, patterns=plan.patterns, **scaled,
        )
        assert all(out.patterns[name] is plan.patterns[name] for name in scaled)
        return out

    return diverging


class TestWindowLanes:
    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=3),
        st.integers(1, 3),
        st.sampled_from(VARIANTS),
        st.sampled_from(("unrolled", "exact")),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_per_head_forward_per_window(self, picks, heads, mode, cg_mode):
        windows, ctx = window_context(heads, mode, cg_mode)
        batch = [windows[i % len(windows)] for i in picks]
        together = pipeline._forward(batch, ctx)
        assert len(together) == len(batch)
        for sample, got in zip(batch, together):
            want = per_head_forward(sample, ctx)
            if cg_mode == "unrolled":
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)

    def test_batch_over_the_budget_runs_in_chunks(self, monkeypatch):
        windows, ctx = window_context(heads=2)
        windows = windows[:5]
        alone = [reconstruct(s, ctx) for s in windows]
        chunks = []
        forward = pipeline._forward

        def recording(samples, ctx):
            chunks.append(len(samples))
            return forward(samples, ctx)

        monkeypatch.setattr(pipeline, "_forward", recording)
        per_window = ctx.bank.heads * ctx.tskel.n_nodes
        for budget, sizes in [
            (2 * per_window, [2, 2, 1]),
            (2 * per_window + 1, [2, 2, 1]),
            (5 * per_window, [5]),
            (per_window - 1, [1] * 5),  # a window over the budget still runs
        ]:
            monkeypatch.setattr(solver, "LANE_NODE_BUDGET", budget)
            chunks.clear()
            got = pipeline.reconstruct_batch(windows, ctx)
            assert chunks == sizes
            for g, a in zip(got, alone):
                assert g.tobytes() == a.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("per_call,after_calls,window", [(2, 0, 1), (2, 2, 3), (4, 0, 1)])
    def test_diverging_lane_names_window_and_head(self, monkeypatch, per_call, after_calls,
                                                   window):
        # lane 3 is window 1, head 1 of a chunk; with two windows per call and
        # the first chunk's two blocks passed over, that is window 3 of the list
        windows, ctx = window_context(heads=2)
        monkeypatch.setattr(solver, "LANE_NODE_BUDGET", per_call * 2 * ctx.tskel.n_nodes)
        monkeypatch.setattr(attention, "multi_head_graphs", diverge_lane(3, after_calls))
        with pytest.raises(NumericFailure) as info:
            pipeline.reconstruct_batch(windows[:4], ctx)
        exc = info.value
        assert (exc.block, exc.window, exc.head, exc.layer, exc.step) == (0, window, 1, 0, "z_u")
        assert exc.iteration is not None
        message = str(exc)
        assert message.startswith("unrolled CG diverged (")
        for part in (
            "block 0", f"window {window}", "head 1", "layer 0", "step z_u",
            f"cg iteration {exc.iteration}",
        ):
            assert message.count(part) == 1, message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("cg_mode", ["unrolled", "exact"])
    @pytest.mark.parametrize("mode,step", [("full", "x"), ("no_dgtv", "z_d"),
                                           ("undirected_temporal", "z_n")])
    def test_diverging_temporal_lane_names_its_own_window(self, monkeypatch, mode, step,
                                                          cg_mode):
        # lane 3 (window 1, head 1) diverges in the first solve on its
        # temporal operator, which runs the band kernel: the failure names
        # that lane, not lane 2, whose last rows the padding reaches
        windows, ctx = window_context(heads=2, mode=mode, cg_mode=cg_mode)
        monkeypatch.setattr(solver, "LANE_NODE_BUDGET", 2 * 2 * ctx.tskel.n_nodes)
        monkeypatch.setattr(attention, "multi_head_graphs", diverge_temporal_lane(3))
        with kernel_calls() as calls, pytest.raises(NumericFailure) as info:
            pipeline.reconstruct_batch(windows[:2], ctx)
        assert "dia_matvec" in calls
        exc = info.value
        assert (exc.block, exc.window, exc.head, exc.layer, exc.step) == (0, 1, 1, 0, step)
        message = str(exc)
        for part in ("block 0", "window 1", "head 1", "layer 0", f"step {step}"):
            assert message.count(part) == 1, message

    @pytest.mark.parametrize("per_call", [1, 2])
    def test_degenerate_weights_name_the_window(self, monkeypatch, per_call):
        # one far-off value at instant 3 of the second window pushes that
        # station so far from its neighbours that its attention mass underflows
        windows, ctx = window_context(heads=2)
        bad = dataclasses.replace(windows[1], observed=windows[1].observed.copy())
        bad.observed[2, 3] = 1e9
        monkeypatch.setattr(solver, "LANE_NODE_BUDGET", per_call * 2 * ctx.tskel.n_nodes)
        with pytest.raises(attention.DegenerateWeightError) as info:
            pipeline.evaluate([windows[0], bad], ctx)
        exc = info.value
        assert (exc.block, exc.window, exc.head, exc.instant) == (0, 1, 0, 3)
        message = str(exc)
        assert message == "zero attention mass (block 0, window 1, head 0, instant 3)"

    def test_one_window_makes_the_same_solves_and_products(self, monkeypatch):
        # the default 5 x 25 x 4 model on one desk-scale window: each block
        # builds Q(A) of its 3 folded systems once, from dense component
        # blocks with no sparse product, then runs 3 CG solves per layer of
        # one product by A and one by G = Q(A); and L_r x once per block plus
        # L_r' and L_r once per layer
        table, pg = data.generate_synthetic(20, 200, 0)
        cfg = PipelineConfig()
        ctx = PipelineContext.build(pg, cfg, standardizer=Standardizer.fit(table.values))
        window = data.cut_windows(table, cfg.data.history, cfg.data.horizon, cfg.data.stride)[0]
        counts = {"cg": 0, "folded": 0, "polynomial": 0, "build": 0, "build_sparse": 0,
                  "apply": 0}
        cg, build, apply = solver.cg_solve, solver.polynomial_operator, MixedGraph.apply
        building = []
        sparse_owner = next(c for c in sp.csr_matrix.__mro__ if "_matmul_vector" in c.__dict__)

        def counted(name, fn):
            def product(v, *args):
                counts[name] += 1
                return fn(v, *args)

            return product

        def counting_cg(apply_a, b, x0, sched, apply_g=None):
            counts["cg"] += 1
            if apply_g is not None:
                apply_g = counted("polynomial", apply_g)
            return cg(counted("folded", apply_a), b, x0, sched, apply_g)

        def counting_build(*args):
            counts["build"] += 1
            building.append(1)
            try:
                return build(*args)
            finally:
                building.pop()

        def sparse_hook(fn):
            def product(*args):
                if building:
                    counts["build_sparse"] += 1
                return fn(*args)

            return product

        def counting_apply(graph, op, x):
            counts["apply"] += 1
            return apply(graph, op, x)

        monkeypatch.setattr(solver, "cg_solve", counting_cg)
        monkeypatch.setattr(solver, "polynomial_operator", counting_build)
        monkeypatch.setattr(MixedGraph, "apply", counting_apply)
        for name in ("_matmul_vector", "_matmul_multivector"):
            monkeypatch.setattr(sparse_owner, name, sparse_hook(getattr(sparse_owner, name)))
        run_forecast(window, ctx)
        assert counts == {
            "cg": 375, "folded": 375, "polynomial": 375, "build": 5 * 3, "build_sparse": 0,
            "apply": 5 * (1 + 2 * 25),
        }


def split_skeleton_graph(rng, lanes):
    """Lanes of one random graph shape whose stations fall into several
    spatial components (some isolated), with random edge weights per lane."""
    return build_mixed_graph(*split_skeleton_inputs(rng, lanes), with_undirected_temporal=True)


def split_skeleton_inputs(rng, lanes, window=None):
    """The weights, skeletons and observed prefix of ``split_skeleton_graph``;
    ``window`` = -1 takes the longest, one less than the instants."""
    n = int(rng.integers(2, 8))
    cluster = rng.integers(0, 3, n)
    edges = tuple(
        (i, j, float(rng.uniform(0.1, 2)))
        for i in range(n) for j in range(i + 1, n)
        if cluster[i] == cluster[j] and rng.uniform() < 0.8
    )
    n_instants = int(rng.integers(3, 8))
    sskel = build_spatial_skeleton(PhysicalGraph(n, edges), int(rng.integers(1, 4)))
    if window is None:
        window = int(rng.integers(1, 3))
    tskel = build_temporal_skeleton(n, n_instants, window % n_instants)
    return (
        rng.uniform(0.2, 1.5, (lanes, n_instants, sskel.n_edges)),
        rng.uniform(0.2, 1.5, (lanes, tskel.n_edges)),
        sskel, tskel, int(rng.integers(1, n_instants)),
    )


@contextlib.contextmanager
def recurrence_only():
    """A context in which no folded system is small enough for its polynomial."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "LANE_NODE_BUDGET", 0)
        yield


class TestPolynomialPath:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_recurrence(self, seed, lanes, iters):
        rng = np.random.default_rng(seed)
        g = split_skeleton_graph(rng, lanes)
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        sched = CgSchedule.unrolled(iters, rng.uniform(0.05, 0.8, iters), rng.uniform(0, 1, iters))
        for ops, shift, observed in fold_cases(p):
            a = folded_system(g, ops, shift, observed).matrix()
            labels = connected_components(a, directed=False)[1]
            poly = polynomial_operator(component_blocks(a, labels), sched)
            # one (C, k, k) stack per component size: sum(k^2) values, not C * m^2
            sizes = np.bincount(labels)
            assert sorted(q.shape[1] for q in poly.blocks) == sorted(set(sizes.tolist()))
            assert sum(q.size for q in poly.blocks) == int((sizes**2).sum())
            # Q(A) of the reference recurrence run on the identity, densely
            dense = a.toarray()
            q = per_step_unrolled(lambda v: dense @ v, np.eye(g.n_nodes), np.zeros_like(dense),
                                  sched)
            got = np.column_stack([poly.dot(e) for e in np.eye(g.n_nodes)])
            assert np.abs(got - q).max() <= 1e-12 * np.abs(q).max()
            # and nothing outside the components
            assert np.all(got[labels[:, None] != labels[None, :]] == 0)
            for _ in range(2):
                b, x0 = rng.standard_normal((2, g.n_nodes))
                want = per_step_unrolled(a.dot, b, x0, sched)
                got = cg_solve(a.dot, b, x0, sched, poly.dot)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (ops, shift)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.sampled_from(VARIANTS))
    @settings(max_examples=40, deadline=None)
    def test_stacked_equals_alone(self, seed, heads, mode):
        # 8 layers with one set of scalars: every fold whose components have
        # at most 8 nodes (all but a large direct_unsplit lane) goes polynomial
        rng = np.random.default_rng(seed)
        graphs = random_heads(rng, heads)
        params = random_params(rng, 1) * 8
        sched = CgSchedule.unrolled(8, rng.uniform(0.05, 0.5, 8), rng.uniform(0, 1, 8))
        n = graphs[0].n_nodes
        x0 = rng.standard_normal(n)
        y = rng.standard_normal(int(graphs[0].h_mask.sum()))
        stack = stack_graphs(graphs)
        folds = block_folds(stack, params, TERMS[mode], sched)
        if TERMS[mode].split:
            assert all(g is not None for _, g in folds.values())
        per_head = [admm_block(x0, y, g, params, sched, mode) for g in graphs]
        stacked = admm_block(np.tile(x0, heads), np.tile(y, heads), stack, params, sched, mode)
        assert stacked.tobytes() == np.concatenate(per_head).tobytes()
        with recurrence_only():
            assert all(g is None for _, g in block_folds(stack, params, TERMS[mode], sched).values())
            want = [admm_block(x0, y, g, params, sched, mode) for g in graphs]
        np.testing.assert_allclose(
            stacked, np.concatenate(want), rtol=0, atol=1e-10 * np.abs(want).max()
        )

    def test_windows_stacked_equal_alone_and_the_recurrence(self, monkeypatch):
        # 18 layers: x and z_d (18 instants a station) and z_u (5 stations an
        # instant) all go polynomial
        splits, pg, std = cached_dataset()
        cfg = small_config(heads=2, blocks=2, layers=18)
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        windows = splits.test[:3]
        builds = []
        build = solver.polynomial_operator
        monkeypatch.setattr(
            solver, "polynomial_operator", lambda *args: builds.append(1) or build(*args)
        )
        together = pipeline._forward(windows, ctx)
        assert len(builds) == 2 * 3
        with recurrence_only():
            recurrence = pipeline._forward(windows, ctx)
        assert len(builds) == 2 * 3
        for w, got, want in zip(windows, together, recurrence):
            assert got.tobytes() == reconstruct(w, ctx).tobytes()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_lane_names_the_same_place_as_the_recurrence(self, monkeypatch):
        # 5 layers put z_u (5 stations an instant) on the polynomial path
        splits, pg, std = cached_dataset()
        ctx = PipelineContext.build(pg, small_config(heads=2, layers=5), standardizer=std)
        monkeypatch.setattr(attention, "multi_head_graphs", diverge_lane(3))
        builds = []
        build = solver.polynomial_operator
        monkeypatch.setattr(
            solver, "polynomial_operator", lambda *args: builds.append(1) or build(*args)
        )
        places = []
        for context in (contextlib.nullcontext(), recurrence_only()):
            with context, pytest.raises(NumericFailure) as info:
                pipeline._forward(splits.test[:2], ctx)
            exc = info.value
            places.append((exc.block, exc.window, exc.head, exc.layer, exc.step, exc.iteration,
                           exc.entry, str(exc)))
        assert len(builds) == 1  # z_u of block 0, on the polynomial path the first time
        assert places[0] == places[1]
        assert places[0][:5] == (0, 1, 1, 0, "z_u")

    def test_verify_check_needs_a_reference_without_q(self, monkeypatch):
        # a node bound that no longer keeps the reference on the recurrence
        # must fail the check, not compare the polynomial with itself
        from stforecast import verify

        assert verify.check_polynomial_sub_solves().passed
        folds = solver.block_folds

        def ignoring_the_bound(*args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "LANE_NODE_BUDGET", 10**9)
                return folds(*args)

        monkeypatch.setattr(solver, "block_folds", ignoring_the_bound)
        result = verify.check_polynomial_sub_solves()
        assert not result.passed
        assert "the recurrence-only reference built" in result.detail

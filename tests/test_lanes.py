"""Heads and windows as lanes: a stacked block-diagonal solve against one
solve per head and per window."""

import contextlib
import dataclasses
import functools
import itertools
import os
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import daxpy
from scipy.sparse.csgraph import connected_components

from stforecast import attention, data, graphs, oracles, pipeline, solver
from stforecast.attention import build_mixed_graph, fill_mixed_graph, plan_mixed_graph
from stforecast.config import HeadSettings, LayerSettings, PipelineConfig
from stforecast.graphs import (
    MixedGraph,
    Operator,
    Pattern,
    PhysicalGraph,
    build_spatial_skeleton,
    build_temporal_skeleton,
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
    LayerParams,
    NumericFailure,
    SliceBlocks,
    Slices,
    admm_block,
    block_folds,
    cg_solve,
    fold_slices,
    folded_system,
    polynomial_operator,
    update_zu,
)

from test_graphs import laplacian, random_mixed
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


def lanes_and_alone(rng, lanes):
    """A random graph shape with ``l_n``, and weights for ``lanes`` lanes:
    the lanes filled into one plan, and each lane built alone from its own
    weights (``split_skeleton_inputs``)."""
    wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(rng, lanes)
    stacked = fill_mixed_graph(plan_mixed_graph(sskel, tskel, lanes, n_observed, True), wu, wd)
    return stacked, [build_mixed_graph(u, d, sskel, tskel, n_observed) for u, d in zip(wu, wd)]


def random_params(rng, layers):
    return [
        LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3)) for _ in range(layers)
    ]


class TestStack:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_equals_block_diag(self, seed, heads):
        rng = np.random.default_rng(seed)
        stacked, graphs = lanes_and_alone(rng, heads)
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

    def test_lane_of(self):
        stacked, (g, *_) = lanes_and_alone(np.random.default_rng(2), 3)
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
        assert stacked.lanes == (windows or 1) * heads
        np.testing.assert_array_equal(stacked.h_mask, np.concatenate([g.h_mask for g in alone]))
        for name in STACKED_OPS if with_l_n else STACKED_OPS[:-1]:
            assert_same_csr(getattr(stacked, name),
                            _block_diag_csr([getattr(g, name) for g in alone]))
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
            laplacian(skel, weights), slice_loop_laplacian(skel, weights)
        )


def slice_loop_laplacian(skel, weights):
    """The undirected Laplacian built one slice at a time (the reference)."""
    n = skel.n_stations
    dim = n * weights.shape[0]
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


def one_station_graph():
    """A planned graph of one station over three instants: its spatial
    Laplacian stores its diagonal alone, each entry +0.0."""
    sskel = build_spatial_skeleton(PhysicalGraph(1, ()), 1)
    tskel = build_temporal_skeleton(1, 3, 1)
    g = build_mixed_graph(np.zeros((3, 0)), np.ones(tskel.n_edges), sskel, tskel, 2)
    pattern = g.ops["l_u"].pattern
    np.testing.assert_array_equal(pattern.indptr, np.arange(4))
    np.testing.assert_array_equal(pattern.indices, np.arange(3))
    return g


def dropped_zero_graph(which):
    """A planned one-station graph one of whose operators has an entry that
    comes out exactly 0.0, which scipy's arithmetic stores nowhere and the
    plan keeps as +0.0: its plan, the graph, and the skeletons and weights
    it was filled from.

    ``"cancelling_call_rd"``: (L'L)(1, 2) = -w(2 <- 1) + w(3 <- 1) w(3 <- 2)
    = -1/8 + 1/2 * 1/4 = 0. ``"underflowing_walk_weight"``: 5e-324 / 2
    rounds to 0.0, so L_r's entry (2, 0) is 0.0, and half of it leaves
    l_n's entries (0, 2) and (2, 0) at 0.0. ``"covered_walk_drop"``: L_r's
    entry (2, 1) is 0.0 the same way, and l_n's (1, 2) and (2, 1), but no
    entry of ``call_rd`` is: rows {0, 1}, {0, 2} and {1, 2, 3} of L_r still
    couple every pair of nodes within two instants.
    """
    if which == "cancelling_call_rd":
        # child-major: 1 <- 0; 2 <- 1, 0; 3 <- 2, 1, 0
        n_instants, window, n_observed, with_l_n = 4, 3, 2, False
        wd = np.array([1.0, 0.125, 0.875, 0.25, 0.5, 0.25])
    elif which == "covered_walk_drop":
        # child-major: 1 <- 0; 2 <- 1, 0; 3 <- 2, 1
        n_instants, window, n_observed, with_l_n = 4, 2, 2, True
        wd = np.array([1.0, 5e-324, 2.0, 0.5, 0.5])
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
    @pytest.mark.parametrize("which", ["random", "lanes", "one_station"])
    def test_matches_unfolded_products(self, which):
        rng = np.random.default_rng(31)
        if which == "random":
            g = random_mixed(rng, n_stations=4, n_instants=5, window=2, n_observed=3, with_l_n=True)
        elif which == "lanes":
            g = lanes_and_alone(rng, 3)[0]
        else:
            g = one_station_graph()
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        for ops, shift, observed in fold_cases(p):
            fold = folded_system(g, ops, shift, observed)
            if len(ops) == 1:  # on the plan's pattern, the edgeless l_u's too
                assert fold.pattern is g.ops[ops[0][0]].pattern, ops
            folded = fold.matrix()
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
        plan = block_folds(g, [p], TERMS["full"], sched)
        assert all(q is None for _, q in plan.values())  # one layer: no Q(A)
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
        layer_systems, listed = solver._layer_systems, []
        monkeypatch.setattr(solver, "_layer_systems",
                            lambda *args: listed.append(1) or layer_systems(*args))
        params = [LayerParams(0.5, 0.6, 0.7, 1.0, 1.1, 1.2)] * 5
        y = np.ones(int(g.h_mask.sum()))
        admm_block(np.zeros(g.n_nodes), y, g, params, CgSchedule.unrolled())
        # x, z_u and z_d in every layer but the last, which solves x only
        assert len(systems) == 3 * 4 + 1
        assert len({id(a) for a in systems}) == 3
        assert len(listed) == 1  # the systems of one set of scalars, listed once

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

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_entry_order_folds_are_scipys_sum(self, seed, lanes, zero_weights, data):
        # the diagonal fold, the unsplit sum and the l_u fold of a planned
        # graph against scipy's sparse sum, on finite vectors; with zero
        # spatial weights, l_u stores -0.0 entries, which scipy's sum drops
        rng = np.random.default_rng(seed)
        wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(rng, lanes)
        if zero_weights:
            wu[rng.uniform(size=wu.shape) < 0.3] = 0.0
        g = fill_mixed_graph(plan_mixed_graph(sskel, tskel, lanes, n_observed, False), wu, wd)
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        v = np.array(data.draw(st.lists(FINITE, min_size=g.n_nodes, max_size=g.n_nodes)))
        for key in entry_order_fold_cases(g, p):
            assert_is_scipys_sum(g, key, v)

    @pytest.mark.parametrize("which", ["cancelling_call_rd", "underflowing_walk_weight",
                                       "covered_walk_drop"])
    def test_dropped_zero_folds_are_scipys_sum(self, which):
        # (L_r'L_r)(1, 2) and (2, 1) cancel to 0.0 in the first: the unsplit
        # sum keeps them as +0.0 where scipy's sum drops them
        g = dropped_zero_graph(which)[1]
        rng = np.random.default_rng(47)
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        kept = {key: assert_is_scipys_sum(g, key, rng.standard_normal(g.n_nodes))
                for key in entry_order_fold_cases(g, p)}
        if which == "cancelling_call_rd":
            unsplit = (*solver.signal_system(TERMS["direct_unsplit"], p), True)
            assert kept[unsplit] == 2

    @pytest.mark.parametrize("sched", [CgSchedule.exact(), CgSchedule.unrolled()],
                             ids=["exact", "unrolled"])
    def test_a_block_builds_no_scipy_matrix(self, sched):
        # every mode, traced or not, from a plan's first block on: each fold
        # is new values on a pattern its plan keeps, so no scipy sparse
        # matrix or array is made
        rng = np.random.default_rng(48)
        g = planned_graph(rng, 2)
        y = rng.standard_normal(int(g.h_mask.sum()))
        params = random_params(rng, 5)  # 5 layers: the temporal folds take Q(A)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a scipy {type(self).__name__} was made")

        with pytest.MonkeyPatch.context() as mp:
            for name, cls in vars(sp).items():
                if isinstance(cls, type) and name.endswith(("_matrix", "_array")):
                    mp.setattr(cls, "__init__", refuse)
            with pytest.raises(AssertionError, match="was made"):
                sp.diags(np.ones(3), format="csr")
            for mode in VARIANTS:
                for trace in (None, []):
                    x = admm_block(np.zeros(g.n_nodes), y, g, params, sched, mode, trace)
                    assert np.isfinite(x).all(), (mode, trace)


def scipy_fold(g, ops, shift, observed):
    """A fold by scipy's sparse sum, diag + coef * op + ... in ``ops`` order (the reference)."""
    diag = np.full(g.n_nodes, shift)
    if observed:
        diag[g.h_mask] += 1.0
    want = sp.diags(diag, format="csr")
    for name, coef in ops:
        want = want + coef * getattr(g, name)
    return want.tocsr()


def entry_order_fold_cases(g, p):
    """The systems of ``fold_cases`` whose folds hold values in entry order:
    the diagonal, the unsplit sum and ``l_u``."""
    cases = [key for key in fold_cases(p) if [name for name, _ in key[0]] not in
             (["call_rd"], ["l_n"])]
    assert {tuple(name for name, _ in key[0]) for key in cases} == {
        (), ("l_u", "call_rd"), ("l_u",)}
    assert not any(folded_system(g, *key).banded for key in cases)
    return cases


def assert_is_scipys_sum(g, key, v) -> int:
    """Assert that the fold of ``key`` gives scipy's sum's product of ``v``
    bit for bit, its every stored value bit for bit, and +0.0 on every entry
    of the fold's pattern that scipy's sum stores none on; their count."""
    fold, want = folded_system(g, *key), scipy_fold(g, *key)
    assert fold.dot(v).tobytes() == (want @ v).tobytes(), key
    got, n = fold.matrix(), g.n_nodes
    got_keys, want_keys = (np.repeat(np.arange(n), np.diff(m.indptr)) * n + m.indices
                           for m in (got, want))
    assert np.isin(want_keys, got_keys).all(), key
    at = np.searchsorted(got_keys, want_keys)
    assert got.data[at].tobytes() == want.data.tobytes(), key
    kept = np.delete(got.data, at)
    assert kept.tobytes() == bytes(kept.nbytes), key
    return len(kept)


BAD_VECTORS = ["short", "long", "float32", "strided", "2-d", "list"]


def bad_vector(bad, n, first=1.0):
    """A vector that a fold of ``n`` nodes must refuse, of the kind ``bad``,
    its first value ``first`` and every other 1."""
    v = {
        "short": np.ones(n - 1),
        "long": np.ones(n + 1),
        "float32": np.ones(n, dtype=np.float32),
        "strided": np.ones(2 * n)[::2],
        "2-d": np.ones((n, 1)),
        "list": [1.0] * n,
    }[bad]
    v[0] = first
    return v


class TestFoldKernel:
    """``Operator.dot`` calls scipy's CSR kernel, which checks no bounds: the
    contract it relies on, and the inputs it must refuse."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_either_index_dtype(self, index_dtype):
        g = random_mixed(np.random.default_rng(37), n_stations=4, n_instants=5, with_l_n=True)
        v = np.random.default_rng(38).standard_normal(g.n_nodes)
        for name in ("l_u", "l_rd", "l_rd_t", "call_rd", "l_n"):
            op = getattr(g, name)
            pattern = Pattern(op.indptr.astype(index_dtype), op.indices.astype(index_dtype))
            assert Operator(pattern, op.data).dot(v).tobytes() == (op @ v).tobytes(), name

    def test_underflowed_l_rd_stays_on_its_plan(self):
        # L_r keeps its underflowed entry as +0.0 on its plan's band; its
        # CSR view, on a pattern of its own, gives the same bytes
        plan, g, _ = dropped_zero_graph("underflowing_walk_weight")
        assert g.ops["l_rd"].pattern is plan.walk.l_rd and g.ops["l_rd"].banded
        fold = csr_operator(g.l_rd)
        v = np.random.default_rng(39).standard_normal(g.n_nodes)
        assert fold.dot(v).tobytes() == (g.l_rd @ v).tobytes() == g.ops["l_rd"].dot(v).tobytes()

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
        with pytest.raises(ValueError, match="index arrays differ in dtype"):
            Operator(Pattern(op.indptr.astype(np.int64), op.indices.astype(np.int32)), op.data)

    @pytest.mark.parametrize("bad", ["short", "float32"])
    def test_refuses_values_that_do_not_fill_the_pattern(self, bad):
        op = random_mixed(np.random.default_rng(42)).l_u
        data = op.data[:-1] if bad == "short" else op.data.astype(np.float32)
        with pytest.raises(ValueError, match="float64 values"):
            Operator(csr_operator(op).pattern, data)


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
    """The names of the scipy kernels ``Operator.dot`` calls, in order; with
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
            mp.setattr(graphs, name, recording(name, getattr(graphs, name)))
        yield calls


FINITE = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))


def csr_operator(mat: sp.csr_matrix) -> Operator:
    """The CSR matrix ``mat`` as an ``Operator`` on a pattern of its own, without a band."""
    return Operator(Pattern(mat.indptr, mat.indices), mat.data)


def unplanned(g):
    """``g`` with each operator on a pattern of its own: its CSR view's, without a band."""
    ops = {name: csr_operator(getattr(g, name)) for name in g.ops}
    return MixedGraph(g.n_stations, g.n_instants, g.lanes, g.h_mask, **ops)


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

    @pytest.mark.parametrize("which", ["unplanned", "direct_unsplit"])
    def test_other_folds_stay_on_csr(self, which):
        # a graph made without a plan has no band, and the unsplit signal
        # system (a sum of operators) is on the union of their patterns
        rng = np.random.default_rng(43)
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        if which == "unplanned":
            g = unplanned(lanes_and_alone(rng, 2)[0])
            folds = block_folds(g, [p], TERMS["full"], CgSchedule.exact())
        else:
            g = planned_graph(rng, 4)
            folds = block_folds(g, [p], TERMS["direct_unsplit"], CgSchedule.exact())
        for key, (fold, _) in folds.items():
            assert fold.data.ndim == 1, key
            assert fold.pattern.band is None, key
            v = rng.standard_normal(g.n_nodes)
            with kernel_calls() as calls:
                got = fold.dot(v)
            assert calls == ["csr_matvec"]
            assert got.tobytes() == (fold.matrix() @ v).tobytes(), key

    def test_polynomial_folds_stay_on_their_bands(self):
        # 5 layers of one system, and components of 5 nodes (a station's
        # instants): every system takes Q(A), and the temporal folds keep
        # their band, so a solve's starting residual runs the DIA kernel
        rng = np.random.default_rng(43)
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        g = planned_graph(rng, 4, n_instants=5)
        folds = block_folds(g, [p] * 5, TERMS["full"], CgSchedule.unrolled())
        assert all(q is not None for _, q in folds.values())
        for key, (fold, _) in folds.items():
            banded = [name for name, _ in key[0]] == ["call_rd"]
            assert fold.banded == banded, key
            assert fold.pattern is g.ops[key[0][0][0]].pattern, key
            v = rng.standard_normal(g.n_nodes)
            with kernel_calls() as calls:
                got = fold.dot(v)
            assert calls == ["dia_matvec" if banded else "csr_matvec"], key
            assert got.tobytes() == (fold.matrix() @ v).tobytes(), key

    @pytest.mark.parametrize("which", ["cancelling_call_rd", "underflowing_walk_weight",
                                       "covered_walk_drop"])
    def test_dropped_zero_folds_run_the_band_kernel(self, which):
        # an entry that came out 0.0 leaves L_r'L_r and l_n on their plan's
        # band: the folds the recurrence applies run the DIA kernel, each
        # product byte-equal to its CSR view's
        plan, g, _ = dropped_zero_graph(which)
        rng = np.random.default_rng(43)
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        modes = [m for m in VARIANTS if g.l_n is not None or TERMS[m].temporal != "l_n"]
        for mode in modes:
            for key, (fold, _) in block_folds(g, [p], TERMS[mode], CgSchedule.exact()).items():
                banded = [name for name, _ in key[0]] in (["call_rd"], ["l_n"])
                assert (fold.pattern is plan.temporal) == banded == fold.banded, (mode, key)
                v = rng.standard_normal(g.n_nodes)
                with kernel_calls() as calls:
                    got = fold.dot(v)
                assert calls == ["dia_matvec" if banded else "csr_matvec"], (mode, key)
                assert got.tobytes() == (fold.matrix() @ v).tobytes(), (mode, key)

    def test_banded_fold_holds_the_diagonals_only(self):
        g = planned_graph(np.random.default_rng(44), 4)
        fold = folded_system(g, (("call_rd", 0.7),), 0.3, True)
        band = fold.pattern.band
        assert band.which.dtype == np.uint8
        assert fold.data.shape == (len(band.offsets), g.n_nodes)
        np.testing.assert_array_equal(band.offsets, np.arange(-2, 3) * g.n_stations)
        # the same operators without the plan's patterns fold on CSR
        want = folded_system(unplanned(g), (("call_rd", 0.7),), 0.3, True)
        assert want.pattern.band is None
        assert_same_csr(fold.matrix(), want.matrix())
        with pytest.raises(ValueError, match="5 diagonals of 60 needs as many float64 values"):
            Operator(fold.pattern, fold.data[:, :-1])

    @pytest.mark.parametrize("bad", BAD_VECTORS)
    def test_refuses_a_vector_before_either_kernel(self, bad):
        g = planned_graph(np.random.default_rng(45), 4)
        n = g.n_nodes
        v = bad_vector(bad, n)
        for name in ("l_u", "call_rd", "l_n"):
            fold = folded_system(g, ((name, 0.5),), 0.3, True)
            assert (fold.data.ndim == 2) == (name != "l_u")
            with kernel_calls(fail=True), pytest.raises(
                    ValueError, match=f"C-contiguous float64 vector of length {n}"):
                fold.dot(v)

    @pytest.mark.parametrize("first", [1.0, np.inf], ids=["finite", "inf"])
    @pytest.mark.parametrize("bad", BAD_VECTORS)
    def test_apply_refuses_a_vector_before_either_kernel(self, bad, first):
        # banded and CSR operators alike, a non-finite vector too: the
        # kernel's own check refuses it before any kernel runs
        g = planned_graph(np.random.default_rng(45), 4)
        n = g.n_nodes
        v = bad_vector(bad, n, first)
        for name in graphs.OPERATOR_NAMES:
            assert g.ops[name].banded == (name != "l_u")
            with kernel_calls(fail=True), pytest.raises(
                    ValueError, match=f"C-contiguous float64 vector of length {n}"):
                g.apply(name, v)

    @pytest.mark.parametrize("name", ["l_u", "l_rd"], ids=["csr", "band"])
    def test_apply_refuses_what_is_not_a_vector_with_one_error(self, name):
        # one check, the kernel's own, refuses these for a band operator as
        # for a CSR one
        g = planned_graph(np.random.default_rng(45), 2)
        assert g.ops[name].banded == (name == "l_rd")
        for bad in (None, "text", [[1.0]]):
            with kernel_calls(fail=True), pytest.raises(
                    ValueError, match=f"C-contiguous float64 vector of length {g.n_nodes}"):
                g.apply(name, bad)

    def test_verify_check_needs_byte_equal_products(self, monkeypatch):
        # one ulp off in one entry is far inside the check's 1e-13 tolerance;
        # only the byte comparison with the CSR view sees it
        from stforecast import verify

        result = verify.check_lanes_and_folds()
        assert result.passed, result.detail
        assert "each product byte-equal to its CSR view's" in result.detail
        kernel = graphs.dia_matvec

        def one_ulp_off(*args):
            kernel(*args)
            args[-1][0] = np.nextafter(args[-1][0], np.inf)

        monkeypatch.setattr(graphs, "dia_matvec", one_ulp_off)
        result = verify.check_lanes_and_folds()
        assert not result.passed
        assert result.detail.startswith("fold products differ from their CSR views': call_rd")

    def test_exact_cg_names_a_nonfinite_direction_in_its_own_lane(self):
        # the first direction is the starting residual; one inf in lane 1
        # reaches lane 0's last rows through the band's padding (0 * inf),
        # so the failure must name the direction's entry, not A p's first
        g = planned_graph(np.random.default_rng(46), 2)
        fold = folded_system(g, (("call_rd", 0.7),), 0.3, True)
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

    @pytest.mark.parametrize("sched", [CgSchedule.exact(), CgSchedule.unrolled()],
                             ids=["exact", "unrolled"])
    def test_a_nonfinite_start_names_its_own_lane(self, sched):
        # CG's first product by the banded x fold would carry a NaN in lane
        # 1's start into lane 0's last rows; the block refuses the start first
        g = planned_graph(np.random.default_rng(46), 2)
        size = g.n_nodes // 2
        x0 = np.zeros(g.n_nodes)
        x0[size + 1] = np.nan
        y = np.ones(int(g.h_mask.sum()))
        with pytest.raises(NumericFailure) as info:
            admm_block(x0, y, g, [LayerParams(1, 1, 1, 1, 1, 1)] * 3, sched)
        assert str(info.value) == "the block's start is not finite"
        assert (info.value.entry, info.value.lane) == (size + 1, 1)

    @pytest.mark.parametrize("sched", [CgSchedule.exact(), CgSchedule.unrolled()],
                             ids=["exact", "unrolled"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_names_its_node_and_lane(self, monkeypatch, sched, bad):
        # refused before any solve, where a non-finite start is, naming the
        # node of the first bad observation (lane 1's second observed node)
        # and its lane, not a CG failure of layer 0's signal solve
        g = planned_graph(np.random.default_rng(46), 2)
        size, observed = g.n_nodes // 2, int(g.h_mask.sum()) // 2
        y = np.ones(2 * observed)
        y[observed + 1] = bad
        y[observed + 3] = np.nan
        monkeypatch.setattr(solver, "cg_solve", None)  # calling it would fail
        with pytest.raises(NumericFailure) as info:
            admm_block(np.zeros(g.n_nodes), y, g, [LayerParams(1, 1, 1, 1, 1, 1)] * 3, sched)
        assert str(info.value) == "an observation is not finite"
        assert (info.value.entry, info.value.lane) == (size + 1, 1)


def per_step_unrolled(apply_a, b, x0, sched):
    """Unrolled CG with the finiteness check after every step (the reference).

    x and r move by ``daxpy``, entry by entry, as the solver's steps do;
    ``b`` and ``x0`` may be matrices, a column per right-hand side.
    """
    x = np.array(x0, dtype=np.float64)
    r = b - apply_a(x)
    p = r.copy()
    for k in range(sched.iters):
        ap = apply_a(p)
        daxpy(p.ravel(), x.ravel(), a=sched.alphas[k])
        daxpy(ap.ravel(), r.ravel(), a=-sched.alphas[k])
        bad = np.flatnonzero(~np.isfinite(x))
        if len(bad):
            raise NumericFailure("unrolled CG diverged", iteration=k, entry=int(bad[0]))
        p = r + sched.betas[k] * p
    return x


def slice_polynomial(a, slices, sched):
    """Q(A) of the matrix ``a`` over ``slices``, as a block plans it."""
    return SliceBlocks(slices,
                       polynomial_operator(slices.blocks(csr_operator(a.tocsr())), sched))


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
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_names_the_reference_iteration_and_entry(self, seed, iters, polynomial, zeros):
        # the recurrence, or a diverging fold on the polynomial path; with
        # ``zeros``, a schedule with zero alphas, the clamp's lower end: a
        # zero step adds nothing to x, even from a direction that has
        # overflowed, so the checked rerun still names the reference's place
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        # entries grow like (alpha d)^k, so large d overflow after a few steps
        a = sp.diags(10.0 ** rng.uniform(-1, 160, n), format="csr")
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        alphas = rng.uniform(0.05, 0.8, iters)
        if zeros:
            alphas[rng.uniform(size=iters) < 0.4] = 0.0
            alphas[rng.integers(iters)] = 0.0
        sched = CgSchedule.unrolled(iters, alphas, rng.uniform(0, 1, iters))
        apply_g = slice_polynomial(a, Slices(1, n, 1), sched).dot if polynomial else None
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
                assert got.tobytes() == want.tobytes()

    def test_a_zero_step_leaves_x_where_the_direction_overflowed(self):
        # step 0 overflows the residual's first entry, and with it every
        # later direction; steps 1 and 2 have alpha 0, so x keeps step 0's
        # bits, on the recurrence, in the reference and as Q(A)
        a = sp.diags([1e308, 2.0], format="csr")
        b, x0 = np.array([10.0, 1.0]), np.zeros(2)
        sched = CgSchedule.unrolled(3, [0.5, 0.0, 0.0], [0.5, 0.5, 0.5])
        assert not np.isfinite(b - 0.5 * (a @ b)).all()
        want = daxpy(b, x0.copy(), a=0.5)
        assert cg_solve(a.dot, b, x0, sched).tobytes() == want.tobytes()
        assert per_step_unrolled(a.dot, b, x0, sched).tobytes() == want.tobytes()
        poly = slice_polynomial(a, Slices(1, 2, 1), sched)
        assert cg_solve(a.dot, b, x0, sched, poly.dot).tobytes() == want.tobytes()


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
        stack, graphs = lanes_and_alone(rng, heads)
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
            np.tile(x0, heads), np.tile(y, heads), stack, params, sched, mode
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
        # the per-head loop is the dense reference forward, one head at a time
        splits, pg, std = tiny_dataset()
        cfg = small_config(heads=2)
        cfg.solver.mode = mode
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        for s, want in zip(splits.test[:2], oracles.reference_forward(splits.test[:2], ctx)):
            np.testing.assert_allclose(reconstruct(s, ctx), want, rtol=0, atol=1e-10)

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


def diverge_lane(lane):
    """A stand-in for ``multi_head_graphs`` whose graphs blow up in one lane.

    The spatial Laplacian of ``lane`` is scaled by 1e200, on the plan's
    pattern, so the first z_u solve there diverges.
    """
    build = attention.multi_head_graphs

    def diverging(features, plan, bank):
        return diverged(build(features, plan, bank), plan, lane, ("l_u",))

    return diverging


def diverge_lane_in_chunks(monkeypatch, lane, firsts, before=None):
    """Make ``lane`` diverge, as ``diverge_lane`` does, in each chunk of
    ``pipeline.reconstruct_batch`` whose first window is one of ``firsts``,
    whichever thread runs it; the other chunks run untouched. With
    ``before``, a pair (a, b) of such windows, a's chunk starts to diverge
    only once b's chunk has failed (or after 60 s)."""
    forward, build = pipeline._forward, attention.multi_head_graphs
    current, failed = threading.local(), threading.Event()

    def forwarding(samples, ctx):
        current.first = samples[0]
        try:
            return forward(samples, ctx)
        except NumericFailure:
            if before is not None and samples[0] is before[1]:
                failed.set()
            raise

    def diverging(features, plan, bank):
        g = build(features, plan, bank)
        first = current.first
        if not any(first is w for w in firsts):
            return g
        if before is not None and first is before[0]:
            failed.wait(60)
        return diverged(g, plan, lane, ("l_u",))

    monkeypatch.setattr(pipeline, "_forward", forwarding)
    monkeypatch.setattr(attention, "multi_head_graphs", diverging)


def diverge_temporal_lane(lane):
    """A stand-in for ``multi_head_graphs`` whose temporal operators, ``call_rd``
    and ``l_n``, have lane ``lane``'s entries scaled by 1e200, on the plan's
    patterns: their folds run the band kernel."""
    build = attention.multi_head_graphs

    def diverging(features, plan, bank):
        return diverged(build(features, plan, bank), plan, lane, ("call_rd", "l_n"))

    return diverging


def diverged(g, plan, lane, names):
    """``g`` with lane ``lane``'s entries of each operator of ``names`` it has
    scaled by 1e200, on the plan's patterns and in their layouts: every
    entry's column is in its row's lane."""
    size = g.n_nodes // g.lanes
    columns = np.ones(g.n_nodes)
    columns[lane * size : (lane + 1) * size] = 1e200
    ops = dict(g.ops)
    for name in set(names) & set(ops):
        op = ops[name]
        ops[name] = Operator(op.pattern,
                             op.data * (columns if op.banded else columns[op.pattern.indices]))
    out = MixedGraph(g.n_stations, g.n_instants, g.lanes, g.h_mask, **ops)
    assert all(op.pattern is plan.patterns[name] for name, op in out.ops.items())
    return out


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
        chunks = {}  # first window's position -> chunk size, whatever order chunks run in
        forward = pipeline._forward

        def recording(samples, ctx):
            chunks[next(i for i, w in enumerate(windows) if w is samples[0])] = len(samples)
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
            assert [chunks[first] for first in sorted(chunks)] == sizes
            for g, a in zip(got, alone):
                assert g.tobytes() == a.tobytes()

    @pytest.mark.parametrize("per_call,first,window", [(2, 0, 1), (2, 2, 3), (4, 0, 1)])
    def test_diverging_lane_names_window_and_head(self, monkeypatch, per_call, first, window):
        # lane 3 is window 1, head 1 of a chunk; in the chunk of two windows
        # that starts at window 2, that is window 3 of the list
        windows, ctx = window_context(heads=2)
        monkeypatch.setattr(solver, "LANE_NODE_BUDGET", per_call * 2 * ctx.tskel.n_nodes)
        diverge_lane_in_chunks(monkeypatch, 3, [windows[first]])
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
        # builds Q(A) of its 3 folded systems once, from dense slice blocks
        # with no sparse product, then runs 3 CG solves per layer but the
        # last, which solves x only, of one product by A and one by
        # G = Q(A); and L_r x once per block plus L_r' once per layer and
        # L_r once per layer but the last
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
            "cg": 5 * (3 * 24 + 1), "folded": 365, "polynomial": 365, "build": 5 * 3,
            "build_sparse": 0, "apply": 5 * (1 + 25 + 24),
        }


def pool_chunks(monkeypatch, ctx, per_call, cpus=2):
    """Chunks of ``per_call`` windows (2 heads), with ``cpus`` usable CPUs."""
    monkeypatch.setattr(solver, "LANE_NODE_BUDGET", per_call * 2 * ctx.tskel.n_nodes)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)


class TestConcurrentChunks:
    """A batch's chunks side by side on the chunk pool against one after another."""

    @pytest.mark.parametrize("cg_mode", ["unrolled", "exact"])
    def test_equal_to_one_thread(self, monkeypatch, cg_mode):
        windows, ctx = window_context(heads=2, cg_mode=cg_mode)
        windows = windows[:7]  # chunks of 2, 2, 2 and 1 windows
        forward, threads, pooled = pipeline._forward, {}, threading.Event()
        main = threading.current_thread()

        def recording(samples, ctx):
            threads[id(samples[0])] = threading.current_thread()
            if threading.current_thread() is not main:
                pooled.set()
            elif samples[0] is windows[0] and pipeline.usable_cpus() > 1:
                pooled.wait(10)  # so that the pool runs a chunk
            return forward(samples, ctx)

        monkeypatch.setattr(pipeline, "_forward", recording)
        pool_chunks(monkeypatch, ctx, per_call=2, cpus=1)
        count = threading.active_count()
        alone = pipeline.reconstruct_batch(windows, ctx)
        assert threading.active_count() == count
        assert len(threads) == 4 and set(threads.values()) == {main}
        threads.clear()
        pool_chunks(monkeypatch, ctx, per_call=2)
        together = pipeline.reconstruct_batch(windows, ctx)
        assert len(threads) == 4 and threads[id(windows[0])] is main
        assert pooled.is_set()
        assert [r.tobytes() for r in together] == [r.tobytes() for r in alone]

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        windows, ctx = window_context(heads=2)
        pool_chunks(monkeypatch, ctx, per_call=4)
        monkeypatch.setattr(pipeline, "_chunk_pool", lambda: pytest.fail("pooled"))
        assert len(pipeline.reconstruct_batch(windows[:4], ctx)) == 4

    def test_earliest_failing_chunk_names_the_window(self, monkeypatch):
        # lane 3 (window 1, head 1 of a chunk) diverges in the chunks that
        # start at windows 2 and 4, and the second fails first: the error
        # still names window 3, as one chunk after another would
        windows, ctx = window_context(heads=2)
        windows = windows[:6]
        pool_chunks(monkeypatch, ctx, per_call=2)
        diverge_lane_in_chunks(monkeypatch, 3, windows[2::2], before=(windows[2], windows[4]))
        with pytest.raises(NumericFailure) as info:
            pipeline.reconstruct_batch(windows, ctx)
        exc = info.value
        assert (exc.block, exc.window, exc.head, exc.layer, exc.step) == (0, 3, 1, 0, "z_u")

    def test_chunks_share_one_plan(self, monkeypatch):
        windows, ctx = window_context(heads=2)
        pool_chunks(monkeypatch, ctx, per_call=2)
        plan, build = attention.plan_mixed_graph, attention.multi_head_graphs
        planned, used = [], []

        def slow_plan(*key):
            planned.append(key)
            time.sleep(0.05)  # a window in which another chunk would plan too
            return plan(*key)

        def recording(features, plan, bank):
            used.append(plan)
            return build(features, plan, bank)

        monkeypatch.setattr(attention, "plan_mixed_graph", slow_plan)
        monkeypatch.setattr(attention, "multi_head_graphs", recording)
        pipeline.reconstruct_batch(windows[:4], ctx)
        assert len(planned) == 1 and len(ctx.plans) == 1
        (shared,) = ctx.plans.values()
        assert len(used) == 2 * ctx.config.layers.blocks
        assert all(p is shared for p in used)

    def test_callers_on_many_threads(self, monkeypatch):
        # more callers than cores, switching threads every microsecond, on
        # one context: each forecasts as one thread does, and one plan serves
        windows, ctx = window_context(heads=2)
        windows = windows[:6]
        pool_chunks(monkeypatch, ctx, per_call=2, cpus=1)
        want = [r.tobytes() for r in pipeline.reconstruct_batch(windows, ctx)]
        shared = dataclasses.replace(ctx, plans={})
        pool_chunks(monkeypatch, ctx, per_call=2)
        got = {}

        def call(i):
            got[i] = [r.tobytes() for r in pipeline.reconstruct_batch(windows, shared)]

        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert [got.get(i) for i in range(4)] == [want] * 4
        assert len(shared.plans) == 1

    def test_threads_do_not_grow(self, monkeypatch):
        windows, ctx = window_context(heads=2)
        pool_chunks(monkeypatch, ctx, per_call=1)
        pipeline.reconstruct_batch(windows[:3], ctx)
        count, alive = threading.active_count(), set(threading.enumerate())
        for _ in range(5):
            pipeline.reconstruct_batch(windows[:3], ctx)
            assert threading.active_count() == count
            assert set(threading.enumerate()) == alive  # the same threads, reused

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert pipeline.usable_cpus() == (os.cpu_count() or 1)


def split_skeleton_graph(rng, lanes):
    """Lanes of one random graph shape whose stations fall into several
    spatial components (some isolated), with random edge weights per lane."""
    return build_mixed_graph(*split_skeleton_inputs(rng, lanes), with_undirected_temporal=True)


def split_skeleton_inputs(rng, lanes, window=None, stations=None):
    """The weights, skeletons and observed prefix of ``split_skeleton_graph``;
    ``window`` = -1 takes the longest, one less than the instants, and
    ``stations`` fixes the station count."""
    n = int(rng.integers(2, 8)) if stations is None else stations
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


@functools.lru_cache(maxsize=1)
def above_the_old_bound():
    """Two windows of 700 stations x 18 instants, 12 600 nodes each, above
    the 12 000 that once bounded Q(A), and a one-head, one-block, 18-layer
    context of them."""
    cfg = PipelineConfig()
    cfg.layers = LayerSettings(blocks=1, layers=18)
    cfg.heads = HeadSettings(count=1)
    d = cfg.data
    table, pg = data.generate_synthetic(700, d.n_instants + d.stride, 0)
    windows = data.cut_windows(table, d.history, d.horizon, d.stride)[:2]
    return windows, PipelineContext.build(pg, cfg, standardizer=Standardizer.fit(table.values))


def whole_stack_polynomial(stack, sched):
    """Q(A) built out of place, the whole stack at once, with full-size s, v
    and step, every step's A s by matmul (the reference for the chunked
    build in place)."""
    alphas, betas = sched.alphas.tolist(), sched.betas.tolist()
    c, k, _ = stack.shape
    s = np.zeros_like(stack)
    s.reshape(c, k * k)[:, :: k + 1] = alphas[-1]
    v, step = s.copy(), np.empty_like(stack)
    for alpha, beta in zip(alphas[-2::-1], betas[-2::-1]):
        np.matmul(stack, s, out=step)
        v *= beta
        daxpy(step.ravel(), v.ravel(), a=-alpha)
        v.reshape(c, k * k)[:, :: k + 1] += alpha
        s += v
    return s


def whole_stack_three_term(stack, sched):
    """Q(A) in ``polynomial_operator``'s three-term form, built out of place,
    the whole stack at once, with full-size B and s, B formed afresh at
    every step, and the first step's B s_0 by matmul (the reference for the
    chunked build in place)."""
    alphas, betas = sched.alphas.tolist(), sched.betas.tolist()
    c, k, _ = stack.shape

    def diagonal(m):
        return m.reshape(c, k * k)[:, :: k + 1]

    s, prev = np.zeros_like(stack), None
    diagonal(s)[...] = alphas[-1]
    for j, (alpha, beta) in enumerate(zip(alphas[-2::-1], betas[-2::-1]), 1):
        b = stack * -alpha if alpha else np.zeros_like(stack)
        diagonal(b)[...] += 1.0 + beta
        new = b @ s
        if j == 1:
            diagonal(new)[...] += alpha
        elif j == 2:
            diagonal(new)[...] += alpha - beta * alphas[-1]
        else:
            if beta:
                daxpy(prev.ravel(), new.ravel(), a=-beta)
            diagonal(new)[...] += alpha
        s, prev = new, s
    return s


def random_stacks(rng, shapes):
    """Random symmetric (C, k, k) stacks, one per (C, k)."""
    stacks = []
    for c, k in shapes:
        a = rng.uniform(-0.1, 0.1, (c, k, k))
        stacks.append(a + a.transpose(0, 2, 1) + rng.uniform(0.5, 2.0, (c, 1, 1)) * np.eye(k))
    return stacks


def slice_ids(slices):
    """The slice of each node, numbered in ``slices.view`` order."""
    n = slices.lanes * slices.count * slices.size
    ids = np.empty(n, dtype=np.intp)
    ids[slices.view(np.arange(n)).reshape(-1, slices.size)] = np.arange(n // slices.size)[:, None]
    return ids


@functools.lru_cache(maxsize=2)
def two_piece_desk(layers):
    """Desk-sized windows (20 stations) on a road network of two pieces, two
    copies of one 10-station network, and a two-head, one-block context of
    ``layers`` layers."""
    table, _ = data.generate_synthetic(20, 200, 0)
    _, half = data.generate_synthetic(10, 200, 1)
    edges = [(i + shift, j + shift, cost) for shift in (0, 10) for i, j, cost in half.edges.tolist()]
    pg = PhysicalGraph(20, edges)
    cfg = small_config(heads=2, blocks=1, layers=layers)
    windows = data.cut_windows(table, cfg.data.history, cfg.data.horizon, cfg.data.stride)[:3]
    with pytest.warns(UserWarning, match="2 connected components"):
        ctx = PipelineContext.build(pg, cfg, standardizer=Standardizer.fit(table.values))
    return windows, ctx


class TestPolynomialPath:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_recurrence(self, seed, lanes, iters):
        rng = np.random.default_rng(seed)
        g = split_skeleton_graph(rng, lanes)
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        sched = CgSchedule.unrolled(iters, rng.uniform(0.05, 0.8, iters), rng.uniform(0, 1, iters))
        for ops, shift, observed in fold_cases(p):
            fold = folded_system(g, ops, shift, observed)
            a = fold.matrix()
            slices = fold_slices(g, ops)
            poly = SliceBlocks(slices, polynomial_operator(slices.blocks(fold), sched))
            # one (m, m) block per slice of m nodes: n m values
            assert poly.blocks.shape == (g.lanes * slices.count, slices.size, slices.size)
            # Q(A) of the reference recurrence run on the identity, densely
            dense = a.toarray()
            q = per_step_unrolled(lambda v: dense @ v, np.eye(g.n_nodes), np.zeros_like(dense),
                                  sched)
            got = np.column_stack([poly.dot(e) for e in np.eye(g.n_nodes)])
            assert np.abs(got - q).max() <= 1e-12 * np.abs(q).max()
            # nothing outside the slices, and, within one, nothing between
            # the road network's pieces
            ids = slice_ids(slices)
            assert np.all(got[ids[:, None] != ids[None, :]] == 0)
            labels = connected_components(a, directed=False)[1]
            assert np.all(got[labels[:, None] != labels[None, :]] == 0)
            for _ in range(2):
                b, x0 = rng.standard_normal((2, g.n_nodes))
                want = per_step_unrolled(a.dot, b, x0, sched)
                got = cg_solve(a.dot, b, x0, sched, poly.dot)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (ops, shift)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.sampled_from(VARIANTS))
    @settings(max_examples=40, deadline=None)
    def test_stacked_equals_alone(self, seed, heads, mode):
        # 8 layers with one set of scalars: every fold whose slices have at
        # most 8 nodes (all but the direct_unsplit lane) goes polynomial
        rng = np.random.default_rng(seed)
        stack, graphs = lanes_and_alone(rng, heads)
        params = random_params(rng, 1) * 8
        sched = CgSchedule.unrolled(8, rng.uniform(0.05, 0.5, 8), rng.uniform(0, 1, 8))
        n = graphs[0].n_nodes
        x0 = rng.standard_normal(n)
        y = rng.standard_normal(int(graphs[0].h_mask.sum()))
        folds = block_folds(stack, params, TERMS[mode], sched)
        if TERMS[mode].split:
            assert all(g is not None for _, g in folds.values())
        per_head = [admm_block(x0, y, g, params, sched, mode) for g in graphs]
        stacked = admm_block(np.tile(x0, heads), np.tile(y, heads), stack, params, sched, mode)
        assert stacked.tobytes() == np.concatenate(per_head).tobytes()

    def test_windows_stacked_equal_alone_and_the_recurrence(self, monkeypatch):
        # 18 layers: x and z_d (18 instants a station) and z_u (5 stations an
        # instant) all go polynomial; the dense reference forward runs every
        # sub-solve as the recurrence and builds no Q(A)
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
        recurrence = oracles.reference_forward(windows, ctx)
        assert len(builds) == 2 * 3
        for w, got, want in zip(windows, together, recurrence):
            assert got.tobytes() == reconstruct(w, ctx).tobytes()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_diverging_lane_names_the_same_place_as_the_recurrence(self, monkeypatch):
        # 5 layers put z_u (5 stations an instant) on the polynomial path, 4
        # keep it on the recurrence; layer 0 runs the same steps in both
        splits, pg, std = cached_dataset()
        monkeypatch.setattr(attention, "multi_head_graphs", diverge_lane(3))
        builds = []
        build = solver.polynomial_operator
        monkeypatch.setattr(
            solver, "polynomial_operator", lambda *args: builds.append(1) or build(*args)
        )
        places = []
        for layers in (5, 4):
            ctx = PipelineContext.build(pg, small_config(heads=2, layers=layers), standardizer=std)
            with pytest.raises(NumericFailure) as info:
                pipeline._forward(splits.test[:2], ctx)
            exc = info.value
            places.append((exc.block, exc.window, exc.head, exc.layer, exc.step, exc.iteration,
                           exc.entry, str(exc)))
        assert len(builds) == 1  # z_u of block 0, on the polynomial path the first time
        assert places[0] == places[1]
        assert places[0][:5] == (0, 1, 1, 0, "z_u")

    @pytest.mark.parametrize("chunk,counts", [
        (None, (1,)), (None, (solver.POLYNOMIAL_CHUNK - 1,)), (None, (solver.POLYNOMIAL_CHUNK,)),
        (None, (2 * solver.POLYNOMIAL_CHUNK + 5, 3, 1)), (1, (10, 2)), (3, (10, 2)),
    ], ids=["one", "chunk-1", "chunk", "mixed", "chunks-of-1", "chunks-of-3"])
    def test_in_place_build_is_the_whole_stack_build(self, monkeypatch, chunk, counts):
        # each block takes the same matmuls and elementwise steps in its
        # chunk as in the whole stack: Q(A) is bitwise the same, whether the
        # last chunk is full or not, whether B is formed once or at every
        # step, and the first B s_0 taken as B times alpha_{K-1} is bitwise
        # the matmul's
        if chunk is not None:
            monkeypatch.setattr(solver, "POLYNOMIAL_CHUNK", chunk)
        rng = np.random.default_rng(len(counts) + counts[0])
        for iters, constant in ((1, False), (2, False), (3, True), (8, False), (8, True)):
            draw = (rng.uniform(0.05, 0.8), rng.uniform(0, 1)) if constant else \
                (rng.uniform(0.05, 0.8, iters), rng.uniform(0, 1, iters))
            sched = CgSchedule.unrolled(iters, *draw)
            for stack in random_stacks(rng, [(c, k) for c, k in zip(counts, (18, 7, 1))]):
                want = whole_stack_three_term(stack, sched)
                got = polynomial_operator(stack, sched)
                assert got is stack
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("iters", [1, 2, 3, 8])
    @pytest.mark.parametrize("case", ["per-step", "constant", "beta-0", "alpha-0"])
    def test_three_term_build_agrees_with_the_two_term_and_the_recurrence(self, iters, case):
        # the reversed two-term sum and the forward recurrence run on the
        # identity (x0 = 0, r0 = I, a column per node) give the same Q(A)
        rng = np.random.default_rng(iters)
        alphas, betas = rng.uniform(0.05, 0.8, iters), rng.uniform(0, 1, iters)
        if case == "constant":
            alphas, betas = alphas[0], betas[0]
        elif case == "beta-0":
            betas[rng.uniform(size=iters) < 0.5] = 0.0
            betas[-1] = 0.0
        elif case == "alpha-0":
            alphas[rng.uniform(size=iters) < 0.4] = 0.0
            alphas[rng.integers(iters)] = 0.0
        sched = CgSchedule.unrolled(iters, alphas, betas)
        for stack in random_stacks(rng, [(30, 18), (7, 5), (3, 1)]):
            c, k, _ = stack.shape
            eye = np.broadcast_to(np.eye(k), stack.shape).ravel()
            recurrence = solver._unrolled_steps(
                lambda v: (stack @ v.reshape(stack.shape)).ravel(), np.zeros(c * k * k), eye,
                sched, check=False).reshape(stack.shape)
            two_term = whole_stack_polynomial(stack, sched)
            got = polynomial_operator(stack.copy(), sched)
            for want in (two_term, recurrence):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), case

    def test_a_zero_alpha_step_reads_no_entry_of_a(self):
        # only the last step's alpha applies the direction: Q(A) is then a
        # multiple of I, and it is the same from an A of NaN as from any A
        rng = np.random.default_rng(2)
        sched = CgSchedule.unrolled(5, [0.0, 0.0, 0.0, 0.0, 0.6], rng.uniform(0, 1, 5))
        (stack,) = random_stacks(rng, [(4, 6)])
        want = polynomial_operator(stack, sched)
        np.testing.assert_array_equal(want, np.broadcast_to(want[0, 0, 0] * np.eye(6), want.shape))
        got = polynomial_operator(np.full((4, 6, 6), np.nan), sched)
        assert got.tobytes() == want.tobytes()

    def test_build_holds_one_chunk_of_temporaries(self):
        # a stack of 3 chunks and 5 slices more, city-1000's 18 nodes
        # each: beyond its output (written over A) the build allocates one
        # chunk's B and three s and numpy's buffer for the diagonal adds,
        # within a quarter chunk, not two more stacks
        chunk, k = solver.POLYNOMIAL_CHUNK, 18
        sched = CgSchedule.unrolled()
        polynomial_operator(random_stacks(np.random.default_rng(0), [(2, k)])[0], sched)  # warm-up
        (stack,) = random_stacks(np.random.default_rng(1), [(3 * chunk + 5, k)])
        tracemalloc.start()
        try:
            polynomial_operator(stack, sched)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current <= 4.25 * chunk * k * k * 8

    def test_a_block_above_the_old_bound_agrees_with_the_recurrence(self):
        # 12 600 nodes and 18 layers: x and z_d (18 instants a station) take
        # Q(A), and z_u (700 stations an instant) stays on the recurrence
        windows, ctx = above_the_old_bound()
        cfg = ctx.config
        x, _, t_steps = pipeline.initial_signal(windows[0], ctx)
        graph = pipeline.block_graph(ctx, [x], [t_steps])
        assert graph.n_nodes == 12600 > solver.LANE_NODE_BUDGET
        sched = cfg.solver.schedule()
        params = cfg.layers.layer_params(0, cfg.default_rho(ctx.pg.n_stations))
        folds = block_folds(graph, params, TERMS["full"], sched)
        assert sorted((key[0][0][0], poly is not None) for key, (_, poly) in folds.items()) == [
            ("call_rd", True), ("call_rd", True), ("l_u", False)]
        rng = np.random.default_rng(0)
        for key, (a, poly) in folds.items():
            if poly is None:
                continue
            b, x0 = rng.standard_normal((2, graph.n_nodes))
            want = cg_solve(a.dot, b, x0, sched)
            got = cg_solve(a.dot, b, x0, sched, poly.dot)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), key

    def test_a_stack_above_the_old_bound_equals_its_windows_alone(self, monkeypatch):
        # two 12 600-node windows in one stacked call of 25 200 nodes, each
        # on the path it takes alone: byte for byte
        windows, ctx = above_the_old_bound()
        alone = [reconstruct(w, ctx) for w in windows]
        calls, builds = [], []
        forward, build = pipeline._forward, solver.polynomial_operator
        monkeypatch.setattr(pipeline, "_forward",
                            lambda batch, ctx: calls.append(len(batch)) or forward(batch, ctx))
        monkeypatch.setattr(solver, "polynomial_operator",
                            lambda *args: builds.append(1) or build(*args))
        monkeypatch.setattr(solver, "LANE_NODE_BUDGET", 2 * ctx.tskel.n_nodes)
        together = pipeline.reconstruct_batch(windows, ctx)
        assert calls == [2] and len(builds) == 2  # x and z_d of the one block
        for got, want in zip(together, alone):
            assert got.tobytes() == want.tobytes()

    def test_slice_fill_refuses_an_entry_between_slices(self):
        # a spatial slice is one instant's stations: an entry between two
        # instants, in entry order or on a band, fits no slice block
        between = sp.csr_matrix(np.eye(4) + np.eye(4, k=2))
        with pytest.raises(ValueError, match="couples two slices"):
            Slices(1, 2, 2).blocks(csr_operator(between))
        band = Operator(csr_operator(between).pattern.banded(),
                        np.array([[1.0] * 4, [0.0, 0.0, 1.0, 1.0]]))
        with pytest.raises(ValueError, match="couples two slices"):
            Slices(1, 2, 2).blocks(band)
        # the same band is one station's instants, 2 stations apart
        np.testing.assert_array_equal(Slices(1, 2, 2, strided=True).blocks(band),
                                      [[[1.0, 1.0], [0.0, 1.0]]] * 2)

    def test_a_road_network_in_pieces_takes_q_over_whole_instants(self):
        # 20 layers: z_u's slices are one instant's 20 stations, two pieces
        # of 10 each; Q(A) is one dense block per instant, exactly zero
        # between the pieces, and agrees with the recurrence
        windows, ctx = two_piece_desk(20)
        cfg = ctx.config
        x, _, t_steps = pipeline.initial_signal(windows[0], ctx)
        graph = pipeline.block_graph(ctx, [x], [t_steps])
        sched = cfg.solver.schedule()
        params = cfg.layers.layer_params(0, cfg.default_rho(ctx.pg.n_stations))
        folds = block_folds(graph, params, TERMS["full"], sched)
        ((key, (a, poly)),) = [(k, f) for k, f in folds.items() if k[0][0][0] == "l_u"]
        assert poly.blocks.shape == (graph.lanes * graph.n_instants, 20, 20)
        labels = connected_components(a.matrix(), directed=False)[1]
        assert np.bincount(labels).max() == 10
        q = poly.blocks.reshape(-1, 2, 10, 2, 10)
        assert not q[:, 0, :, 1].any() and not q[:, 1, :, 0].any()
        rng = np.random.default_rng(0)
        for key, (a, poly) in folds.items():
            assert poly is not None
            b, x0 = rng.standard_normal((2, graph.n_nodes))
            want = cg_solve(a.dot, b, x0, sched)
            got = cg_solve(a.dot, b, x0, sched, poly.dot)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), key
        got = reconstruct(windows[0], ctx)
        want = oracles.reference_forward(windows[:1], ctx)[0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_pieces_within_the_layer_count_take_the_recurrence(self):
        # 12 layers: each piece (10 stations) is within the layer count, but
        # z_u's slice (20 stations, an instant) is not, so z_u takes the
        # recurrence; so do x and z_d (18 instants a station)
        windows, ctx = two_piece_desk(12)
        cfg = ctx.config
        x, _, t_steps = pipeline.initial_signal(windows[0], ctx)
        graph = pipeline.block_graph(ctx, [x], [t_steps])
        params = cfg.layers.layer_params(0, cfg.default_rho(ctx.pg.n_stations))
        folds = block_folds(graph, params, TERMS["full"], cfg.solver.schedule())
        ((a, poly),) = [f for k, f in folds.items() if k[0][0][0] == "l_u"]
        labels = connected_components(a.matrix(), directed=False)[1]
        assert np.bincount(labels).max() <= len(params) < graph.n_stations
        assert poly is None
        assert all(poly is None for _, poly in folds.values())

    @pytest.mark.parametrize("layers", [12, 20], ids=["recurrence", "polynomial"])
    def test_a_stack_on_a_road_network_in_pieces_equals_its_windows_alone(self, layers):
        windows, ctx = two_piece_desk(layers)
        together = pipeline._forward(windows, ctx)
        for w, got in zip(windows, together):
            assert got.tobytes() == reconstruct(w, ctx).tobytes()


class TestWorkspace:
    # systems of a block that take Q(A) at 18 layers on the tiny data (5
    # stations, 18 instants): x and z_d over a station's 18 instants, z_u
    # over an instant's 5 stations, an x of no operator over single nodes;
    # the unsplit x couples a whole lane of 90 nodes and keeps the recurrence
    POLYNOMIALS = {"full": 3, "no_dgtv": 3, "no_dglr": 2, "undirected_temporal": 3,
                   "direct_unsplit": 0}

    @pytest.mark.parametrize("mode", VARIANTS)
    def test_reused_buffers_give_the_bytes_of_fresh_ones(self, monkeypatch, mode):
        # a 3-block forward refills block 0's stacks in blocks 1 and 2; run
        # with a fresh workspace per block instead, it gives the same bytes.
        # A 1-window forward, then a 2-window one, changes the lane count
        splits, pg, std = cached_dataset()
        cfg = small_config(heads=2, blocks=3, layers=18)
        cfg.solver.mode = mode
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        batches = [splits.test[:1], splits.test[1:3]]
        stacks = []
        build = solver.polynomial_operator
        monkeypatch.setattr(solver, "polynomial_operator",
                            lambda stack, *args: stacks.append(stack) or build(stack, *args))
        systems = self.POLYNOMIALS[mode]
        runs = {}
        for fresh in (False, True):
            if fresh:
                block = solver.admm_block
                monkeypatch.setattr(solver, "admm_block",
                                    lambda *args, workspace=None, **kw: block(*args, **kw))
            runs[fresh] = []
            for batch in batches:
                stacks.clear()
                got = pipeline._forward(batch, ctx)
                assert len(stacks) == 3 * systems
                for i in range(systems):  # system i's stacks in blocks 0, 1 and 2
                    first, *later = stacks[i::systems]
                    assert all(np.shares_memory(first, s) != fresh for s in later)
                for a, b in itertools.combinations(stacks[:systems], 2):
                    assert not np.shares_memory(a, b)  # x and z_d apart
                runs[fresh].append([r.tobytes() for r in got])
        assert runs[False] == runs[True]

    @pytest.mark.parametrize("scale", ["desk", "city-shaped"])
    def test_a_warmed_workspace_allocates_no_stack(self, scale):
        # a second block_folds on a warmed workspace refills its stacks and
        # its chunk scratch: beyond the fold values it returns, it allocates
        # less than one Q(A) stack, where a new workspace allocates them all.
        # City-shaped: 700 slices of 18 instants, over 5 chunks a stack
        if scale == "desk":
            table, pg = data.generate_synthetic(20, 200, 0)
            cfg = PipelineConfig()
            ctx = PipelineContext.build(pg, cfg, standardizer=Standardizer.fit(table.values))
            window = data.cut_windows(table, cfg.data.history, cfg.data.horizon,
                                      cfg.data.stride)[0]
        else:
            (window, _), ctx = above_the_old_bound()
            cfg = ctx.config
        x, _, t_steps = pipeline.initial_signal(window, ctx)
        graph = pipeline.block_graph(ctx, [x], [t_steps])
        params = cfg.layers.layer_params(0, cfg.default_rho(ctx.pg.n_stations))
        args = (graph, params, TERMS["full"], cfg.solver.schedule())
        warmed = solver.Workspace()
        folds = block_folds(*args, warmed)
        stack = min(q.blocks.nbytes for _, q in folds.values() if q is not None)
        del folds
        over = []
        for workspace in (warmed, solver.Workspace()):
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                folds = block_folds(*args, workspace)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            over.append(peak - start - sum(fold.data.nbytes for fold, _ in folds.values()))
            del folds
        assert over[0] < stack < over[1]

    def test_csr_fill_zeroes_its_stack_and_adds_in_entry_order(self):
        # into a stack a former fill left dirty: a stored -0.0 reads 0.0 and
        # repeated entries add in entry order (1e16 + 1 - 1e16 is 0), as
        # toarray has them; each entry's place is kept on the pattern
        data_ = np.array([1e16, 1.0, -1e16, -0.0, 2.0, 3.0, -0.0])
        indices = np.array([0, 0, 0, 1, 1, 3, 2], dtype=np.int32)
        indptr = np.array([0, 4, 5, 6, 7], dtype=np.int32)
        op = csr_operator(sp.csr_matrix((data_, indices, indptr), shape=(4, 4)))
        slices = Slices(1, 2, 2)
        dense = op.matrix().toarray()
        want = np.stack([dense[:2, :2], dense[2:, 2:]])
        assert want[0, 0, 0] == 0.0 and np.signbit(want).sum() == 0
        out = np.full((2, 2, 2), np.nan)
        for _ in range(2):
            assert slices.blocks(op, out) is out
            assert out.tobytes() == want.tobytes()
        assert op.pattern.cache[slices] is slices._places(op.pattern)
        with pytest.raises(ValueError, match="C-contiguous float64 stack"):
            slices.blocks(op, np.empty((2, 2, 4))[..., ::2])  # a copy would take the fill

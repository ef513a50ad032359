"""Heads as lanes: a stacked block-diagonal solve against one solve per head."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stforecast import attention
from stforecast.config import HeadSettings
from stforecast.graphs import (
    MixedGraph,
    PhysicalGraph,
    assemble_random_walk_digraph,
    assemble_undirected_laplacian,
    build_spatial_skeleton,
    build_temporal_skeleton,
    directed_skeleton_from_edges,
)
from stforecast.pipeline import (
    PipelineContext,
    flatten_time_major,
    initial_extrapolation,
    run_forecast,
    unflatten_time_major,
)
from stforecast.solver import (
    TERMS,
    VARIANTS,
    CgSchedule,
    LayerParams,
    NumericFailure,
    admm_block,
    cg_solve,
    folded_system,
    signal_system,
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
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_stacked_per_head_graphs(self, seed, heads, with_l_n, per_head_features):
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
        shape = (heads, n * n_instants, dim) if per_head_features else (n * n_instants, dim)
        feats = rng.standard_normal(shape)
        n_observed = int(rng.integers(1, n_instants))

        stacked = attention.multi_head_graphs(feats, sskel, tskel, bank, n_observed, with_l_n)
        per_head = [
            attention.build_mixed_graph(
                attention.undirected_weights(feats[h] if per_head_features else feats, sskel,
                                             bank.undirected[h]),
                attention.directed_weights(feats[h] if per_head_features else feats, tskel,
                                           bank.directed[h]),
                sskel, tskel, n_observed, with_l_n,
            )
            for h in range(heads)
        ]
        expected = stack_graphs(per_head)
        assert stacked.lanes == heads
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


def fold_cases(p):
    """(ops, shift, observed) of every CG system the solver folds, for layer scalars p."""
    cases = [
        ((("l_u", p.mu_u),), 0.5 * p.rho_u, False),
        ((("call_rd", p.mu_d2),), 0.5 * p.rho_d, False),
        ((("l_n", p.mu_d2),), 0.5 * p.rho_d, False),
    ]
    return cases + [(*signal_system(terms, p), True) for terms in TERMS.values()]


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
            folded = folded_system(g, ops, shift, observed)
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
            folded = folded_system(g, ((name, 0.7),), 0.3, observed=True)
            assert np.shares_memory(folded.indices, op.indices)
            assert np.shares_memory(folded.indptr, op.indptr)
            assert not np.shares_memory(folded.data, op.data)
            np.testing.assert_array_equal(op.data, data)

    def test_memo_returns_the_fold_for_equal_scalars(self):
        g = random_mixed(np.random.default_rng(33))
        memo = {}
        first = folded_system(g, (("l_u", 0.7),), 0.3, memo=memo)
        assert folded_system(g, (("l_u", 0.7),), 0.3, memo=memo) is first
        assert folded_system(g, (("l_u", 0.7),), 0.4, memo=memo) is not first
        assert folded_system(g, (("l_u", 0.7),), 0.3, observed=True, memo=memo) is not first
        assert len(memo) == 3

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


class TestUnrolledFailure:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_names_the_reference_iteration_and_entry(self, seed, iters):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        # entries grow like (alpha d)^k, so large d overflow after a few steps
        d = 10.0 ** rng.uniform(-1, 160, n)
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        sched = CgSchedule.unrolled(iters, rng.uniform(0.05, 0.8, iters), rng.uniform(0, 1, iters))
        try:
            want = per_step_unrolled(lambda v: d * v, b, x0, sched)
        except NumericFailure as ref:
            with pytest.raises(NumericFailure) as info:
                cg_solve(lambda v: d * v, b, x0, sched)
            assert (info.value.iteration, info.value.entry) == (ref.iteration, ref.entry)
        else:
            np.testing.assert_array_equal(cg_solve(lambda v: d * v, b, x0, sched), want)


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
    extrap = initial_extrapolation(
        obs_std,
        sample.target.shape[1],
        method=cfg.data.extrapolation,
        trend_window=cfg.data.trend_window,
        seasonal_period=cfg.data.seasonal_period,
    )
    x = flatten_time_major(np.concatenate([obs_std, extrap], axis=1))
    y = x[: n * t_obs].copy()
    t_steps = np.asarray(sample.timestamps, dtype=np.float64) / ctx.interval
    for b in range(cfg.layers.blocks):
        feats = ctx.feature_map(attention.embed(x, ctx.pg, t_steps, ctx.eigmap), ctx.sskel)
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
        build = attention.multi_head_graphs

        def second_head_diverges(*args, **kwargs):
            g = build(*args, **kwargs)
            lane_scale = np.repeat([1.0, 1e200], g.n_nodes // g.lanes)
            return MixedGraph(
                g.n_stations, g.n_instants, g.n_observed,
                l_u=sp.diags(lane_scale) @ g.l_u, w_rd=g.w_rd, l_rd=g.l_rd, lanes=g.lanes,
            )

        monkeypatch.setattr(attention, "multi_head_graphs", second_head_diverges)
        with pytest.raises(NumericFailure) as info:
            run_forecast(splits.test[0], ctx)
        exc = info.value
        assert (exc.block, exc.head, exc.layer, exc.step) == (0, 1, 0, "z_u")
        assert exc.iteration is not None
        message = str(exc)
        assert message.startswith("unrolled CG diverged (")
        for part in ("block 0", "head 1", "layer 0", "step z_u", f"cg iteration {exc.iteration}"):
            assert message.count(part) == 1, message

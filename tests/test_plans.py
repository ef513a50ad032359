"""Planned operator assembly: the plan-and-fill operators against the direct
COO assembly, the zero entries scipy drops, and plan reuse in the forward
pass and the tuner."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stforecast import attention, data, graphs, pipeline, tuning
from stforecast.attention import build_mixed_graph, fill_mixed_graph, plan_mixed_graph
from stforecast.config import PipelineConfig
from stforecast.graphs import (
    DegenerateDegreeError,
    assemble_random_walk_digraph,
    directed_skeleton_from_edges,
    plan_random_walk_digraph,
)
from stforecast.oracles import coo_operators
from stforecast.solver import TERMS, CgSchedule, LayerParams, block_folds, cg_solve

from test_lanes import dropped_zero_graph, split_skeleton_inputs

OPERATORS = ("l_u", "w_rd", "l_rd", "l_rd_t", "call_rd", "l_n")


def assert_bitwise(got: sp.csr_matrix, want: sp.csr_matrix, name: str):
    assert got.shape == want.shape, name
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)


def assert_matches_reference(graph, sskel, tskel, wu, wd, with_l_n):
    want = coo_operators(sskel, tskel, wu, wd, with_l_n)
    assert set(want) == set(OPERATORS if with_l_n else OPERATORS[:-1])
    for name, mat in want.items():
        assert_bitwise(getattr(graph, name), mat, name)
    if not with_l_n:
        assert graph.l_n is None


class TestPlannedAssembly:
    @given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 3, 8)), st.booleans(),
           st.sampled_from((None, -1)))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_coo_reference(self, seed, lanes, with_l_n, window):
        # stations in several spatial pieces, some isolated; short windows
        # and the longest, one less than the instants
        wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(
            np.random.default_rng(seed), lanes, window
        )
        graph = build_mixed_graph(wu, wd, sskel, tskel, n_observed, with_l_n)
        assert graph.lanes == lanes
        assert_matches_reference(graph, sskel, tskel, wu, wd, with_l_n)

    def test_refills_share_the_plan(self):
        # one plan, two sets of weights: both equal the reference, and every
        # operator keeps the plan's pattern and index arrays
        rng = np.random.default_rng(5)
        wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(rng, 3, -1)
        plan = plan_mixed_graph(sskel, tskel, 3, n_observed, True)
        for _ in range(2):
            wu, wd = rng.uniform(0.2, 1.5, wu.shape), rng.uniform(0.2, 1.5, wd.shape)
            graph = fill_mixed_graph(plan, wu, wd)
            assert_matches_reference(graph, sskel, tskel, wu, wd, True)
            for name in ("l_u", "w_rd", "l_rd", "call_rd", "l_n"):
                assert graph.patterns[name] is plan.patterns[name], name
                assert np.shares_memory(getattr(graph, name).indices, plan.patterns[name].indices)
            assert graph.h_mask is plan.h_mask

    def test_zero_spatial_weights_stored(self):
        # a zero weight stores -0.0 off the diagonal, as the reference does
        rng = np.random.default_rng(6)
        wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(rng, 2)
        wu[..., ::2] = 0.0
        graph = build_mixed_graph(wu, wd, sskel, tskel, n_observed, False)
        assert_matches_reference(graph, sskel, tskel, wu, wd, False)

    def test_lane_count_must_match_the_plan(self):
        wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(np.random.default_rng(7), 2)
        plan = plan_mixed_graph(sskel, tskel, 3, n_observed, False)
        with pytest.raises(ValueError, match="2 lanes for a plan of 3"):
            fill_mixed_graph(plan, wu, wd)


class TestPlannedErrors:
    def setup_method(self):
        self.wu, self.wd, self.sskel, self.tskel, self.n_observed = split_skeleton_inputs(
            np.random.default_rng(8), 2
        )
        self.plan = plan_mixed_graph(self.sskel, self.tskel, 2, self.n_observed, True)

    def test_negative_spatial_weight(self):
        self.wu[1, 0, 0] = -0.5
        with pytest.raises(ValueError, match="negative edge weight"):
            fill_mixed_graph(self.plan, self.wu, self.wd)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_directed_weight(self, bad):
        self.wd[1, -1] = bad
        with pytest.raises(ValueError, match="directed edge weights must be positive"):
            fill_mixed_graph(self.plan, self.wu, self.wd)

    def test_zero_in_degree(self):
        # a temporal skeleton that lists no source leaves the instant-0 nodes
        # without incoming weight
        tskel = self.tskel
        bad = tskel.__class__(
            n_nodes=tskel.n_nodes, src=tskel.src, dst=tskel.dst, lag=tskel.lag,
            sources=np.zeros(0, dtype=np.int64), n_stations=tskel.n_stations,
            n_instants=tskel.n_instants, window=tskel.window,
        )
        plan = plan_mixed_graph(self.sskel, bad, 2, self.n_observed, False)
        with pytest.raises(DegenerateDegreeError, match="zero incoming weight"):
            fill_mixed_graph(plan, self.wu, self.wd)
        with pytest.raises(DegenerateDegreeError):
            assemble_random_walk_digraph(plan_random_walk_digraph(bad), np.ones(bad.n_edges))

    def test_weights_must_fit_the_plans_slices(self):
        one_slice = self.wu.reshape(-1, self.sskel.n_edges)[:1]
        with pytest.raises(ValueError, match=f"in {self.plan.l_u.n_slices} slices"):
            graphs.assemble_undirected_laplacian(self.plan.l_u, one_slice)


class TestDroppedZeros:
    """scipy stores no entry of I - W_r, L_r'L_r or l_n that comes out exactly
    0.0; an operator that drops one gets a pattern of its own, and its folds
    work out their own components."""

    def check_folds(self, graph):
        # every system, on its polynomial, against its operators and the recurrence
        p = LayerParams(0.5, 0.6, 0.7, 1.0, 1.1, 1.2)
        sched = CgSchedule.unrolled(4, 0.3, 0.2)
        rng = np.random.default_rng(0)
        modes = ("full", "undirected_temporal") if graph.l_n is not None else ("full",)
        folds = {}
        for mode in modes:
            folds.update(block_folds(graph, [p] * graph.n_nodes, TERMS[mode], sched))
        for (ops, shift, observed), (a, poly) in folds.items():
            v = rng.standard_normal(graph.n_nodes)
            want = shift * v + sum(coef * (getattr(graph, name) @ v) for name, coef in ops)
            if observed:
                want[graph.h_mask] += v[graph.h_mask]
            np.testing.assert_allclose(a.dot(v), want, rtol=0, atol=1e-14)
            assert poly is not None
            b, x0 = rng.standard_normal((2, graph.n_nodes))
            np.testing.assert_allclose(cg_solve(a.dot, b, x0, sched, poly.dot),
                                       cg_solve(a.dot, b, x0, sched), rtol=0, atol=1e-12)

    def test_cancelling_call_rd_entry(self):
        plan, graph, inputs = dropped_zero_graph("cancelling_call_rd")
        assert graph.call_rd.nnz < plan.patterns["call_rd"].nnz
        assert graph.call_rd[1, 2] == 0.0
        assert graph.patterns["call_rd"] is not plan.patterns["call_rd"]
        assert graph.patterns["l_rd"] is plan.patterns["l_rd"]
        assert_matches_reference(graph, *inputs, False)
        self.check_folds(graph)

    def test_underflowing_walk_weight(self):
        plan, graph, inputs = dropped_zero_graph("underflowing_walk_weight")
        for name in ("l_rd", "call_rd", "l_n"):
            assert getattr(graph, name).nnz < plan.patterns[name].nnz, name
            assert graph.patterns[name] is not plan.patterns[name], name
        assert graph.patterns["w_rd"] is plan.patterns["w_rd"]
        assert_matches_reference(graph, *inputs, True)
        self.check_folds(graph)

    def test_single_node_source_row(self):
        # a source row's W_r entry is its self-loop, 1 - 1 = 0: planned away
        plan = plan_random_walk_digraph(directed_skeleton_from_edges(1, []))
        w_rd, l_rd = assemble_random_walk_digraph(plan, np.zeros(0))
        assert w_rd.nnz == 1 and l_rd.nnz == 0 and plan.l_rd.nnz == 0


def desk_context():
    table, pg = data.generate_synthetic(20, 200, 0)
    cfg = PipelineConfig()
    ctx = pipeline.PipelineContext.build(pg, cfg, standardizer=pipeline.Standardizer.fit(table.values))
    windows = data.cut_windows(table, cfg.data.history, cfg.data.horizon, cfg.data.stride)
    return pg, cfg, ctx, windows


class TestPlanReuse:
    def test_one_plan_per_lane_count(self, monkeypatch):
        # the default 5 x 25 x 4 model: context set-up builds no plan; one
        # window (4 lanes) and two (8 lanes) each build theirs once, and
        # connected_components runs only while a plan is built
        pg, cfg, ctx, windows = desk_context()
        assert ctx.plans == {}
        built, building, components = [], [], []
        plan, components_of = attention.plan_mixed_graph, graphs.connected_components

        def counting_plan(*args):
            built.append(args[2])
            building.append(1)
            try:
                return plan(*args)
            finally:
                building.pop()

        def counting_components(*args, **kwargs):
            components.append(bool(building))
            return components_of(*args, **kwargs)

        monkeypatch.setattr(attention, "plan_mixed_graph", counting_plan)
        monkeypatch.setattr(graphs, "connected_components", counting_components)
        for _ in range(2):
            pipeline.run_forecast(windows[0], ctx)
            pipeline.reconstruct_batch(windows[1:3], ctx)
        assert built == [4, 8]
        assert sorted(key[2] for key in ctx.plans) == [4, 8]
        # the l_u and call_rd fold patterns of each plan
        assert components == [True] * 4

    def test_tune_candidates_share_the_base_plan(self, monkeypatch):
        pg, cfg, _, windows = desk_context()
        built, contexts = [], []
        plan, batch = attention.plan_mixed_graph, pipeline.reconstruct_batch
        monkeypatch.setattr(attention, "plan_mixed_graph", lambda *a: built.append(a) or plan(*a))
        monkeypatch.setattr(
            pipeline, "reconstruct_batch", lambda s, ctx: contexts.append(ctx) or batch(s, ctx)
        )
        tuning.tune_spsa(cfg, pg, windows[:4], iterations=1, eval_samples=1)
        assert len(contexts) == 3 and len({id(c) for c in contexts}) == 3
        assert len(built) == 1
        assert all(c.plans is contexts[0].plans for c in contexts)

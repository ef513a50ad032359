"""Heads as lanes: a stacked block-diagonal solve against one solve per head."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stforecast import attention
from stforecast.graphs import MixedGraph
from stforecast.pipeline import (
    PipelineContext,
    flatten_time_major,
    initial_extrapolation,
    run_forecast,
    unflatten_time_major,
)
from stforecast.solver import VARIANTS, CgSchedule, LayerParams, NumericFailure, admm_block

from test_graphs import random_mixed
from test_pipeline import small_config, tiny_dataset

STACKED_OPS = ("l_u", "w_rd", "l_rd", "call_rd", "l_rd_t", "l_n")


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
        stacked = MixedGraph.stack(graphs)
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
        assert MixedGraph.stack([g]) is g

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="share"):
            MixedGraph.stack([random_mixed(rng, n_stations=3), random_mixed(rng, n_stations=4)])

    def test_lane_of(self):
        rng = np.random.default_rng(2)
        g = random_mixed(rng)
        stacked = MixedGraph.stack([g, random_mixed(rng), random_mixed(rng)])
        assert [stacked.lane_of(e) for e in (0, g.n_nodes - 1, g.n_nodes, 3 * g.n_nodes - 1)] == [
            0, 0, 1, 2,
        ]
        assert stacked.lane_of(None) is None
        assert g.lane_of(None) == 0


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
            np.tile(x0, heads), np.tile(y, heads), MixedGraph.stack(graphs), params, sched, mode
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
        graphs = attention.multi_head_graphs(
            feats, ctx.sskel, ctx.tskel, ctx.bank, n_observed=t_obs,
            with_undirected_temporal=cfg.solver.mode == "undirected_temporal",
        )
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
            good, bad = build(*args, **kwargs)
            bad = MixedGraph(
                bad.n_stations, bad.n_instants, bad.n_observed,
                l_u=bad.l_u * 1e200, w_rd=bad.w_rd, l_rd=bad.l_rd,
            )
            return [good, bad]

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

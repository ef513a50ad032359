"""Forecast orchestration: first guess, standardization, blocks, metrics."""

from dataclasses import replace

import numpy as np
import pytest

from stforecast import data as dmod
from stforecast import tuning
from stforecast.attention import DegenerateWeightError
from stforecast.config import PipelineConfig
from stforecast.pipeline import (
    PipelineContext,
    Standardizer,
    component_centrality,
    evaluate,
    evenly_spaced_subset,
    forecast_metrics,
    huber_loss,
    initial_signal,
    persistence_forecast,
    reconstruct,
    run_forecast,
    unflatten_time_major,
)


class TestStandardizer:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(10, 60, (100, 5))
        std = Standardizer.fit(values)
        mat = rng.uniform(10, 60, (5, 18))
        np.testing.assert_allclose(std.inverse(std.transform(mat)), mat, atol=1e-12)

    def test_constant_station_flagged(self):
        values = np.ones((50, 2))
        values[:, 1] = np.linspace(0, 1, 50)
        std = Standardizer.fit(values)
        assert std.std[0] == 1.0


def tiny_dataset(seed=0, n_stations=5, steps=260, period=24, noise=1.0):
    table, pg = dmod.generate_synthetic(n_stations, steps, seed, period=period, noise=noise)
    samples = dmod.cut_windows(table, 12, 6, 3)
    splits = dmod.split_windows(samples, (0.6, 0.2, 0.2))
    std = Standardizer.fit(table.values)
    return splits, pg, std


def small_config(**kw):
    cfg = PipelineConfig.from_dict(
        {
            "graph": {"k": 2, "window": 3},
            "layers": {"blocks": kw.get("blocks", 2), "layers": kw.get("layers", 4)},
            "heads": {"count": kw.get("heads", 2)},
            "data": {"horizon": 6, "history": 12},
        }
    )
    return cfg


class TestInitialSignal:
    def test_hold_last(self):
        splits, pg, std = tiny_dataset()
        ctx = PipelineContext.build(pg, small_config(), standardizer=std)
        s = splits.test[0]
        x, y, _ = initial_signal(s, ctx)
        obs_std = std.transform(s.observed)
        np.testing.assert_array_equal(
            unflatten_time_major(x, s.n_stations),
            np.concatenate([obs_std, np.repeat(obs_std[:, -1:], 6, axis=1)], axis=1),
        )
        np.testing.assert_array_equal(y, x[: s.observed.size])

    def test_interval_must_match_the_windows(self):
        # 60 s windows with the 300 s default left in place would get time
        # codes 5x off: the forecast and the tuner refuse them, naming both
        splits, pg, std = tiny_dataset()
        cfg = small_config(blocks=1, layers=2, heads=1)
        windows = [replace(s, timestamps=s.timestamps // 5) for s in splits.val[:2]]
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        for call in (lambda: run_forecast(windows[0], ctx),
                     lambda: tuning.tune_spsa(cfg, pg, windows, std, iterations=1)):
            with pytest.raises(ValueError, match="timestamps are 60 s apart, but the "
                                                 "context's sampling interval is 300 s"):
                call()
        ctx = PipelineContext.build(pg, cfg, standardizer=std, interval=60.0)
        _, _, t_steps = initial_signal(windows[0], ctx)
        np.testing.assert_array_equal(t_steps, windows[0].timestamps / 60.0)


class TestFeatureMapSettings:
    def test_bias_applied_with_seeded_projection(self):
        _, pg, _ = tiny_dataset()
        bias = [0.5, -1.0, 2.0, 0.0, 3.0, -0.25]
        plain = PipelineContext.build(pg, small_config())
        cfg = small_config()
        cfg.graph.projection_bias = bias
        biased = PipelineContext.build(pg, cfg)
        emb = np.random.default_rng(0).standard_normal((10, plain.feature_map.projection.shape[1]))
        np.testing.assert_array_equal(biased.feature_map.projection, plain.feature_map.projection)
        np.testing.assert_allclose(
            biased.feature_map(emb) - plain.feature_map(emb), np.tile(bias, (10, 1)), atol=1e-12
        )


class TestRunForecast:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_station_units_move_the_forecast_alike(self, seed):
        # a per-station a y + b (a > 0) on the signal: the standardizer fitted
        # on the training span takes it out, so each forecast is a f + b
        cfg = small_config(blocks=3, layers=5, heads=1)
        table, pg = dmod.generate_synthetic(8, 200, seed)
        a, b = np.random.default_rng(seed).uniform((0.1, -100.0), (10.0, 100.0), (8, 2)).T
        forecasts = []
        for values in (table.values, table.values * a + b):
            splits, std = dmod.split_dataset(replace(table, values=values), cfg.data)
            ctx = PipelineContext.build(pg, cfg, standardizer=std)
            forecasts.append(np.stack(evaluate(splits.test, ctx, max_samples=4)["predictions"]))
        want = forecasts[0] * a[:, None] + b[:, None]
        assert np.abs(forecasts[1] - want).max() <= 1e-11 * np.abs(want).max()

    def test_zero_blocks_returns_extrapolation(self):
        splits, pg, std = tiny_dataset()
        cfg = small_config(blocks=0)
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        s = splits.test[0]
        pred = run_forecast(s, ctx)
        np.testing.assert_allclose(pred, persistence_forecast(s), atol=1e-10)

    def test_zero_residual_bypasses_blocks(self):
        splits, pg, std = tiny_dataset()
        cfg = small_config(blocks=3)
        cfg.layers.residual[:] = 0.0
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        s = splits.test[0]
        pred = run_forecast(s, ctx)
        np.testing.assert_allclose(pred, persistence_forecast(s), atol=1e-10)

    def test_single_head_merge_degenerate(self):
        splits, pg, std = tiny_dataset()
        s = splits.test[0]
        cfg1 = small_config(heads=1)
        cfg1.heads.merge = np.array([1.0])
        ctx1 = PipelineContext.build(pg, cfg1, standardizer=std)
        pred1 = run_forecast(s, ctx1)
        assert pred1.shape == (5, 6)

    def test_identical_heads_merge_invariance(self):
        splits, pg, std = tiny_dataset()
        s = splits.test[0]
        preds = []
        for merge in ([0.5, 0.5], [0.9, 0.1]):
            cfg = small_config(heads=2)
            cfg.heads.metric_scale_u = np.array([1.0, 1.0])
            cfg.heads.metric_scale_d = np.array([1.0, 1.0])
            cfg.heads.merge = np.array(merge)
            ctx = PipelineContext.build(pg, cfg, standardizer=std)
            preds.append(run_forecast(s, ctx))
        np.testing.assert_allclose(preds[0], preds[1], atol=1e-8)

    def test_deterministic(self):
        splits, pg, std = tiny_dataset()
        cfg = small_config()
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        s = splits.test[0]
        assert np.array_equal(run_forecast(s, ctx), run_forecast(s, ctx))

    def test_reconstruct_contains_prediction(self):
        splits, pg, std = tiny_dataset()
        cfg = small_config()
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        s = splits.test[0]
        recon = reconstruct(s, ctx)
        np.testing.assert_allclose(recon[:, 12:], run_forecast(s, ctx), atol=1e-12)

    def test_degenerate_weights_name_block_head_instant(self):
        # a huge metric factor on head 1 at instant 3 spreads the distances so
        # far apart that every weight around some station underflows to zero
        splits, pg, std = tiny_dataset()
        cfg = small_config(heads=2)
        huge = (1e6 * np.eye(cfg.graph.feature_dim)).tolist()
        cfg.heads.metric_overrides = [{"head": 1, "instant": 3, "factor": huge}]
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        with pytest.raises(DegenerateWeightError) as info:
            run_forecast(splits.test[0], ctx)
        exc = info.value
        assert isinstance(exc, ValueError)  # the tuner scores ValueError as a failed candidate
        assert (exc.block, exc.head, exc.instant) == (0, 1, 3)
        message = str(exc)
        assert message.startswith("zero attention mass (")
        for part in ("block 0", "head 1", "instant 3"):
            assert message.count(part) == 1, message

    def test_window_mismatch_rejected(self):
        splits, pg, std = tiny_dataset()
        cfg = small_config()
        cfg.data.history = 10
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        with pytest.raises(ValueError, match="history"):
            run_forecast(splits.test[0], ctx)


class TestEvaluate:
    def test_persistence_baseline_reported(self):
        splits, pg, std = tiny_dataset()
        cfg = small_config(blocks=1)
        ctx = PipelineContext.build(pg, cfg, standardizer=std)
        rep = evaluate(splits.test, ctx, max_samples=2)
        s = splits.test[0]
        np.testing.assert_array_equal(
            persistence_forecast(s), np.repeat(s.observed[:, -1:], 6, axis=1)
        )
        assert rep["persistence_rmse"] > 0

    @pytest.mark.parametrize("count", [0, -2])
    def test_sample_count_below_one_rejected(self, count):
        splits, pg, std = tiny_dataset()
        ctx = PipelineContext.build(pg, small_config(blocks=1), standardizer=std)
        message = f"max_samples must be at least 1, got {count}"
        with pytest.raises(ValueError, match=message):
            evenly_spaced_subset(splits.test, count)
        with pytest.raises(ValueError, match=message):
            evaluate(splits.test, ctx, max_samples=count)


class TestMetrics:
    def test_perfect_prediction(self):
        target = np.full((2, 3), 5.0)
        assert forecast_metrics(target, target) == (0.0, 0.0, 0.0)

    def test_unit_offset(self):
        target = np.full((2, 3), 2.0)
        rmse, mae, mape = forecast_metrics(target + 1.0, target)
        assert (rmse, mae, mape) == (1.0, 1.0, 50.0)

    def test_matches_recomputation_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(5, 50, (4, 7))
        target = rng.uniform(5, 50, (4, 7))
        rmse, mae, mape = forecast_metrics(pred, target, mape_floor=1.0)
        # independent elementwise recomputation
        se, ae, pe = [], [], []
        for i in range(4):
            for j in range(7):
                e = pred[i, j] - target[i, j]
                se.append(e * e)
                ae.append(abs(e))
                if abs(target[i, j]) > 1.0:
                    pe.append(abs(e) / abs(target[i, j]))
        assert rmse == pytest.approx(np.sqrt(np.mean(se)))
        assert mae == pytest.approx(np.mean(ae))
        assert mape == pytest.approx(100 * np.mean(pe))

    def test_mape_floor_excludes_near_zero(self):
        pred = np.array([[1.0, 10.0]])
        target = np.array([[0.5, 10.0]])
        _, _, mape = forecast_metrics(pred, target, mape_floor=1.0)
        assert mape == 0.0  # only the 10.0 entry qualifies

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            forecast_metrics(np.zeros((0,)), np.zeros((0,)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forecast_metrics(np.zeros(3), np.zeros(4))


class TestHuber:
    def test_zero_error(self):
        assert huber_loss(np.ones(5), np.ones(5)) == 0.0

    def test_boundary(self):
        assert huber_loss(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)

    def test_linear_branch(self):
        assert huber_loss(np.array([3.0]), np.array([0.0])) == pytest.approx(2.5)

    def test_mixed_mean(self):
        # errors 0.5 and 2 with threshold 1: (0.125 + 1.5) / 2
        val = huber_loss(np.array([0.5, 2.0]), np.zeros(2))
        assert val == pytest.approx((0.125 + 1.5) / 2)


class TestPerron:
    def test_uniform_regular_graph(self):
        # a 4-cycle with unit weights is 2-regular: the Perron vector is uniform
        w = np.zeros((4, 4))
        for i in range(4):
            w[i, (i + 1) % 4] = w[(i + 1) % 4, i] = 1.0
        v = component_centrality(w)
        np.testing.assert_allclose(v, 0.25, atol=1e-9)

    def test_star_center_dominates(self):
        # 4-node star: eigenvector (sqrt(3), 1, 1, 1) up to scale
        w = np.zeros((4, 4))
        w[0, 1:] = w[1:, 0] = 1.0
        v = component_centrality(w)
        want = np.array([np.sqrt(3.0), 1.0, 1.0, 1.0])
        np.testing.assert_allclose(v, want / want.sum(), atol=1e-9)
        assert v[0] == v.max()

    def test_disconnected_components_each_sum_to_one(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 2.0
        v = component_centrality(w)
        assert v[:2].sum() == pytest.approx(1.0) and v[2:].sum() == pytest.approx(1.0)
        np.testing.assert_allclose(v, 0.5, atol=1e-12)
        # components of 1, 2, 2 and 3 stations on shuffled ids: each is the
        # Perron vector of its own block solved alone, bit for bit
        rng = np.random.default_rng(0)
        pieces = np.split(rng.permutation(8), [1, 3, 5])
        w = np.zeros((8, 8))
        for piece in pieces:
            block = np.triu(rng.uniform(0.5, 2.0, (len(piece), len(piece))), 1)
            w[np.ix_(piece, piece)] = block + block.T
        v = component_centrality(w)
        for piece in pieces:
            idx = np.sort(piece)
            alone = np.abs(np.linalg.eigh(w[np.ix_(idx, idx)])[1][:, -1])
            assert v[idx].tobytes() == (alone / alone.sum()).tobytes()

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            component_centrality(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_unit_l1_norm_positive(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0.1, 1.0, (6, 6))
        w = np.triu(w, 1)
        w = w + w.T
        v = component_centrality(w)
        assert v.sum() == pytest.approx(1.0)
        assert (v > 0).all()

    def test_single_node_trivial(self):
        np.testing.assert_array_equal(component_centrality(np.zeros((1, 1))), [1.0])

    def test_near_degenerate_slice(self):
        # a unit-weight 3-clique and a 5-clique of weight 0.5 share the top
        # eigenvalue 2; one 1e-7 edge joins them and leaves a gap of 5e-8
        eps, lam0 = 1e-7, 2.0
        w = np.zeros((8, 8))
        w[:3, :3] = 1.0
        w[3:, 3:] = 0.5
        np.fill_diagonal(w, 0.0)
        w[0, 3] = w[3, 0] = eps
        v = component_centrality(w)
        spectrum = np.linalg.eigvalsh(w)
        lam = v @ w @ v / (v @ v)
        assert abs(lam - spectrum[-1]) <= 1e-12
        assert np.abs(w @ v - lam * v).max() <= 1e-12 * v.max()
        # closed form: at the top eigenvalue lam0 + d, clique c's bridge end p_c
        # and other members q_c = w_c p_c / (w_c + d) satisfy
        # d (1 + lam0 / (w_c + d)) p_c = eps p_other
        d = eps
        for _ in range(5):
            d = eps / np.sqrt((1 + lam0 / (1 + d)) * (1 + lam0 / (0.5 + d)))
        p_b = d * (1 + lam0 / (1 + d)) / eps
        want = np.array([1.0, *[1 / (1 + d)] * 2, p_b, *[0.5 * p_b / (0.5 + d)] * 4])
        # a backward-stable eigensolver is accurate to about eps * ||w|| / gap
        tol = 4 * np.finfo(float).eps * spectrum[-1] / (spectrum[-1] - spectrum[-2])
        np.testing.assert_allclose(v, want / want.sum(), rtol=0, atol=tol)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            component_centrality(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_isolated_stations_each_sum_to_one(self):
        # one edge and three isolated stations: four components
        w = np.zeros((5, 5))
        w[0, 1] = w[1, 0] = 1.0
        v = component_centrality(w)
        assert v[:2].sum() == pytest.approx(1.0)
        np.testing.assert_array_equal(v[2:], 1.0)


class TestEvaluateEdgeCases:
    def test_empty_sample_list_rejected(self):
        splits, pg, std = tiny_dataset()
        ctx = PipelineContext.build(pg, small_config(blocks=0), standardizer=std)
        with pytest.raises(ValueError, match="no samples"):
            evaluate([], ctx)

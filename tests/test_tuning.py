"""SPSA core behavior and config packing."""

import json

import numpy as np
import pytest

from stforecast import data as dmod
from stforecast.config import PipelineConfig
from stforecast.pipeline import Standardizer
from stforecast.tuning import (
    DEFAULT_TUNABLES,
    TUNABLES,
    make_projection,
    pack_config,
    spsa_minimize,
    tune_spsa,
    unpack_config,
)


class TestSpsaCore:
    def test_quadratic_converges(self):
        loss = lambda t: float((t[0] - 2.0) ** 2)
        best, best_loss, trace = spsa_minimize(
            loss, np.array([1.0]), iterations=200, seed=0, step=0.5
        )
        assert abs(best[0] - 2.0) <= 0.2  # within 10% of the optimum
        assert best_loss <= 0.05

    def test_best_seen_monotone(self):
        rng = np.random.default_rng(1)
        noisy = lambda t: float(np.sum(t**2) + 0.1 * rng.standard_normal())
        _, _, trace = spsa_minimize(noisy, np.array([1.0, -2.0]), 100, seed=2)
        assert trace.best_is_monotone()

    def test_nonfinite_rejected_and_perturbation_halved(self):
        calls = {"n": 0}

        def loss(t):
            calls["n"] += 1
            if calls["n"] in (2, 3):  # poison the first perturbation pair
                return float("nan")
            return float(t[0] ** 2)

        best, _, trace = spsa_minimize(loss, np.array([1.0]), 3, seed=3)
        assert trace.iterations[0]["rejected"]
        assert not trace.iterations[1]["rejected"]
        assert np.isfinite(best).all()

    def test_projection_applied(self):
        loss = lambda t: float(t[0] ** 2)
        project = lambda t: np.maximum(t, 0.5)
        best, _, _ = spsa_minimize(loss, np.array([2.0]), 100, seed=4, project=project)
        assert best[0] >= 0.5

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            spsa_minimize(lambda t: float("inf"), np.array([1.0]), 5)


class TestPackUnpack:
    def test_round_trip(self):
        cfg = PipelineConfig.from_dict(
            {"layers": {"blocks": 2, "layers": 3}, "heads": {"count": 2}}
        )
        theta = pack_config(cfg, DEFAULT_TUNABLES, n_stations=10)
        rebuilt = unpack_config(cfg, DEFAULT_TUNABLES, theta)
        theta2 = pack_config(rebuilt, DEFAULT_TUNABLES, n_stations=10)
        np.testing.assert_allclose(theta, theta2)

    def test_dimension_capped(self):
        cfg = PipelineConfig.from_dict(
            {"layers": {"blocks": 20, "layers": 1}, "heads": {"count": 4}}
        )
        with pytest.raises(ValueError, match="> 100"):
            pack_config(cfg, DEFAULT_TUNABLES, n_stations=10)

    def test_projection_bounds(self):
        cfg = PipelineConfig.from_dict(
            {"layers": {"blocks": 2, "layers": 2}, "heads": {"count": 2}}
        )
        project = make_projection(cfg, DEFAULT_TUNABLES)
        theta = pack_config(cfg, DEFAULT_TUNABLES, n_stations=10)
        wild = project(theta - 100.0)
        rebuilt = unpack_config(cfg, DEFAULT_TUNABLES, wild)
        assert rebuilt.layers.mu_u.min() >= 1e-6
        assert rebuilt.layers.rho.min() >= 1e-6
        assert rebuilt.layers.residual.min() >= 0.0
        assert float(np.asarray(rebuilt.solver.cg_alpha)) <= 0.8
        assert float(np.asarray(rebuilt.solver.cg_beta)) >= 0.0

    # (tunable, lower bound, upper bound) as the tuner promises them
    BOUNDS = [
        *[(name, 1e-6, np.inf) for name in ("mu_u", "mu_d2", "mu_d1", "rho", "rho_u", "rho_d")],
        ("residual", 0.0, 1.0),
        ("merge", -np.inf, np.inf),
        ("metric_scale_u", 1e-3, np.inf),
        ("metric_scale_d", 1e-3, np.inf),
        ("cg_alpha", 0.0, 0.8),
        ("cg_beta", 0.0, np.inf),
    ]

    def test_bounds_cover_every_tunable(self):
        assert [name for name, _, _ in self.BOUNDS] == list(TUNABLES) == list(DEFAULT_TUNABLES)

    @pytest.mark.parametrize("name,lower,upper", BOUNDS)
    def test_each_tunable_clipped_to_its_bound(self, name, lower, upper):
        cfg = PipelineConfig.from_dict(
            {"layers": {"blocks": 2, "layers": 3}, "heads": {"count": 3}}
        )
        project = make_projection(cfg, (name,))
        theta = pack_config(cfg, (name,), n_stations=10)
        for shift, bound in ((-1e9, lower), (1e9, upper)):
            clipped = project(theta + shift)
            want = theta + shift if np.isinf(bound) else np.full_like(theta, bound)
            np.testing.assert_array_equal(clipped, want)
            # the clipped vector is a valid config, and packs back to itself
            rebuilt = unpack_config(cfg, (name,), clipped)
            np.testing.assert_array_equal(pack_config(rebuilt, (name,), n_stations=10), want)
        inside = project(theta)
        np.testing.assert_array_equal(inside, theta)
        assert np.isnan(project(np.full_like(theta, np.nan))).all()

    def test_unknown_tunable_rejected(self):
        with pytest.raises(ValueError, match="unknown tunable 'mu_x'"):
            pack_config(PipelineConfig(), ("mu_x",), n_stations=10)

    def test_unpack_sets_per_block_tables(self):
        cfg = PipelineConfig.from_dict(
            {"layers": {"blocks": 2, "layers": 3}, "heads": {"count": 1}}
        )
        theta = pack_config(cfg, ("mu_u",), n_stations=4)
        theta = theta + np.array([1.0, 2.0])
        out = unpack_config(cfg, ("mu_u",), theta)
        np.testing.assert_allclose(out.layers.mu_u[0], 4.0)
        np.testing.assert_allclose(out.layers.mu_u[1], 5.0)


class TestConfigRoundTrip:
    def test_save_load_preserves_values(self, tmp_path):
        cfg = PipelineConfig.from_dict(
            {
                "layers": {"blocks": 2, "layers": 3, "mu_u": [1.0, 2.0], "residual": 0.4},
                "heads": {"count": 2, "merge": [0.7, 0.3]},
                "solver": {"cg_mode": "exact", "cg_tol": 1e-9},
                "data": {"horizon": 12, "extrapolation": "seasonal-naive"},
            }
        )
        path = tmp_path / "config.json"
        cfg.save(path)
        back = PipelineConfig.load(path)
        assert back.to_dict() == cfg.to_dict()

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            PipelineConfig.from_dict({"wat": {}})

    def test_bad_key_names_section(self):
        with pytest.raises(ValueError, match="section 'solver'"):
            PipelineConfig.from_dict({"solver": {"bogus": 1}})

    def test_unknown_cg_mode_rejected(self):
        with pytest.raises(ValueError, match="section 'solver': unknown cg_mode 'exakt'"):
            PipelineConfig.from_dict({"solver": {"cg_mode": "exakt"}})

    @pytest.mark.parametrize(
        "section,bad,message",
        [
            ("layers", {"mu_u": None}, "mu_u must be a number or a table, not null"),
            ("layers", {"mu_d2": None}, "mu_d2 must be a number or a table, not null"),
            ("layers", {"mu_d1": None}, "mu_d1 must be a number or a table, not null"),
            ("layers", {"blocks": 2, "layers": 2, "mu_d2": [[1.0, 2.0], [3.0, -0.5]]},
             "mu_d2 must be nonnegative"),
            ("layers", {"rho": 0.0}, "rho must be positive"),
            ("layers", {"blocks": 2, "rho_d": [1.0, -1.0]}, "rho_d must be positive"),
            ("heads", {"count": 2, "metric_scale_u": [1.0]},
             "metric_scale_u must have one entry per head (2)"),
            ("heads", {"count": 3, "metric_scale_d": [1.0, 1.0, 1.0, 1.0]},
             "metric_scale_d must have one entry per head (3)"),
            ("heads", {"count": 2, "metric_scale_d": 1.0},
             "metric_scale_d must have one entry per head (2)"),
            ("solver", {"cg_iters": 0}, "unrolled mode needs a positive iteration count"),
            ("solver", {"cg_iters": -1}, "unrolled mode needs a positive iteration count"),
            ("solver", {"cg_iters": 4, "cg_beta": [0.1, 0.2]},
             "cg_beta has 2 entries; expected a scalar or cg_iters = 4 entries"),
            ("graph", {"projection": [[0.0] * 16] * 5},
             "projection must be feature_dim x (1 + spatial_dim + 10) = 6 x 16, got shape (5, 16)"),
            ("graph", {"spatial_dim": 3, "projection": [[0.0] * 16] * 6},
             "projection must be feature_dim x (1 + spatial_dim + 10) = 6 x 14, got shape (6, 16)"),
            ("graph", {"projection": [[0.0, 1.0], [2.0]]},
             "projection must be feature_dim x (1 + spatial_dim + 10) = 6 x 16, got [[0.0, 1.0], [2.0]]"),
            ("graph", {"feature_dim": 4, "projection_bias": [0.0] * 6},
             "projection_bias must have feature_dim = 4 entries, got shape (6,)"),
            ("graph", {"projection_bias": [0.0] * 5 + [float("nan")]},
             "projection_bias must be finite"),
            ("tuner", {"iterations": -1}, "iterations must be nonnegative, got -1"),
            ("tuner", {"eval_samples": 0}, "eval_samples must be at least 1, got 0"),
            ("tuner", {"step": 0.0}, "step must be positive, got 0.0"),
            ("tuner", {"perturb": -0.1}, "perturb must be positive, got -0.1"),
        ],
        ids=[
            "null-mu_u", "null-mu_d2", "null-mu_d1", "negative-mu_d2", "zero-rho",
            "negative-rho_d", "short-scale_u", "long-scale_d", "scalar-scale_d", "zero-cg_iters",
            "negative-cg_iters", "cg_beta-length", "short-projection", "projection-vs-spatial_dim",
            "ragged-projection", "long-projection_bias", "nan-projection_bias",
            "negative-iterations", "zero-eval_samples", "zero-step", "negative-perturb",
        ],
    )
    def test_bad_value_rejected_at_load(self, section, bad, message):
        with pytest.raises(ValueError) as info:
            PipelineConfig.from_dict({section: bad})
        assert str(info.value).startswith(f"config section '{section}': {message}")

    def test_null_rho_and_exact_mode_still_load(self):
        cfg = PipelineConfig.from_dict(
            {"layers": {"rho": None, "mu_u": 0.0}, "solver": {"cg_mode": "exact", "cg_iters": 0}}
        )
        assert cfg.layers.rho is None
        assert (cfg.layers.mu_u == 0.0).all()

    def test_saved_json_keeps_field_order(self, tmp_path):
        cfg = PipelineConfig.from_dict({"layers": {"blocks": 2, "layers": 2, "rho": [0.5, 0.7]}})
        path = tmp_path / "config.json"
        cfg.save(path)
        doc = json.loads(path.read_text())
        assert list(doc) == ["graph", "solver", "layers", "heads", "tuner", "data"]
        assert list(doc["layers"]) == [
            "blocks", "layers", "mu_u", "mu_d2", "mu_d1", "rho", "rho_u", "rho_d", "residual"
        ]
        assert doc["layers"]["rho"] == [[0.5, 0.5], [0.7, 0.7]]
        assert doc["layers"]["rho_u"] is None
        assert doc["data"]["ratios"] == [0.6, 0.2, 0.2]

    def test_array_valued_fields_serialize(self):
        cfg = PipelineConfig()
        cfg.heads.metric_overrides = [{"head": 0, "instant": 1, "factor": np.eye(6)}]
        doc = json.loads(json.dumps(cfg.to_dict()))
        assert doc["heads"]["metric_overrides"][0]["factor"] == np.eye(6).tolist()


class TestMetricOverrides:
    FACTOR = np.eye(6).tolist()

    @pytest.mark.parametrize("head", [2, -1, "0", None])
    def test_bad_head_rejected_at_load(self, head):
        entry = {"head": head, "instant": 0, "factor": self.FACTOR}
        with pytest.raises(ValueError, match=r"section 'heads': metric_overrides\[1\]: head"):
            PipelineConfig.from_dict(
                {"heads": {"count": 2, "metric_overrides": [
                    {"head": 1, "lag": 1, "factor": self.FACTOR}, entry]}}
            )

    @pytest.mark.parametrize(
        "entry,match",
        [
            ({"head": 0, "instant": 18}, r"instant must be an integer in \[0, 17\], got 18"),
            ({"head": 0, "instant": -1}, "instant"),
            ({"head": 0, "lag": 0}, r"lag must be an integer in \[1, 6\], got 0"),
            ({"head": 0, "lag": 7}, "lag"),
            ({"head": 0}, "needs an 'instant' or 'lag' key"),
            ({"head": 0, "instant": 2, "factor": [[1.0]]}, "factor must be 6x6"),
            ({"head": 0, "lag": 2, "factor": [[1.0, 0.0], [0.0]]}, "factor must be 6x6"),
            ({"head": 0, "lag": 2, "factor": None}, "factor must be 6x6"),
        ],
    )
    def test_bad_slot_or_factor_rejected_by_build_bank(self, entry, match):
        cfg = PipelineConfig.from_dict(
            {"heads": {"count": 2, "metric_overrides": [{"factor": self.FACTOR, **entry}]}}
        )
        with pytest.raises(ValueError, match=r"metric_overrides\[0\]") as info:
            cfg.heads.build_bank(cfg.data.n_instants, cfg.graph.window, cfg.graph.feature_dim)
        assert info.match(match)

    def test_valid_overrides_installed(self):
        cfg = PipelineConfig.from_dict({"heads": {"count": 2, "metric_overrides": [
            {"head": 1, "instant": 17, "factor": (2 * np.eye(6)).tolist()},
            {"head": 0, "lag": 6, "factor": (3 * np.eye(6)).tolist()},
        ]}})
        bank = cfg.heads.build_bank(cfg.data.n_instants, cfg.graph.window, cfg.graph.feature_dim)
        np.testing.assert_array_equal(bank.undirected[1, 17], 2 * np.eye(6))
        np.testing.assert_array_equal(bank.directed[0, 5], 3 * np.eye(6))


class TestTuneSpsa:
    def make_setup(self):
        table, pg = dmod.generate_synthetic(4, 150, seed=5, period=24)
        samples = dmod.cut_windows(table, 12, 6, 3)
        splits = dmod.split_windows(samples, (0.6, 0.2, 0.2))
        std = Standardizer.fit(table.values)
        cfg = PipelineConfig.from_dict(
            {
                "graph": {"k": 2, "window": 2},
                "layers": {"blocks": 1, "layers": 3},
                "heads": {"count": 1},
                "tuner": {"iterations": 6, "eval_samples": 2},
                "data": {"seasonal_period": 24},
            }
        )
        return cfg, pg, splits, std

    def test_zero_iterations_unchanged(self):
        cfg, pg, splits, std = self.make_setup()
        out, trace = tune_spsa(cfg, pg, splits.val, standardizer=std, iterations=0)
        assert out is cfg
        assert trace.best_losses == []

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"iterations": -1}, "iterations must be nonnegative, got -1"),
            ({"eval_samples": 0}, "eval_samples must be at least 1, got 0"),
            ({"eval_samples": -1}, "eval_samples must be at least 1, got -1"),
            ({"iterations": 0, "eval_samples": 0}, "eval_samples must be at least 1, got 0"),
        ],
    )
    def test_bad_counts_rejected(self, kwargs, message):
        cfg, pg, splits, std = self.make_setup()
        with pytest.raises(ValueError, match=message):
            tune_spsa(cfg, pg, splits.val, standardizer=std, **kwargs)

    def test_best_seen_non_increasing(self):
        cfg, pg, splits, std = self.make_setup()
        out, trace = tune_spsa(cfg, pg, splits.val, standardizer=std)
        assert trace.best_is_monotone()
        assert trace.best_losses[-1] <= trace.best_losses[0]
        # returned config is usable
        assert out.layers.mu_u.shape == (1, 3)

    def test_deterministic_under_seed(self):
        cfg, pg, splits, std = self.make_setup()
        _, t1 = tune_spsa(cfg, pg, splits.val, standardizer=std, iterations=4, seed=9)
        _, t2 = tune_spsa(cfg, pg, splits.val, standardizer=std, iterations=4, seed=9)
        assert t1.best_losses == t2.best_losses

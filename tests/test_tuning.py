"""SPSA core behavior and config packing."""

import json

import numpy as np
import pytest

from stforecast import data as dmod
from stforecast import pipeline, tuning
from stforecast.config import HeadSettings, PipelineConfig
from stforecast.graphs import NumericFailure
from stforecast.pipeline import Standardizer
from stforecast.tuning import (
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
        theta = pack_config(cfg, n_stations=10)
        rebuilt = unpack_config(cfg, theta)
        theta2 = pack_config(rebuilt, n_stations=10)
        np.testing.assert_allclose(theta, theta2)

    def test_dimension_capped(self):
        cfg = PipelineConfig.from_dict(
            {"layers": {"blocks": 20, "layers": 1}, "heads": {"count": 4}}
        )
        with pytest.raises(ValueError, match="> 100"):
            pack_config(cfg, n_stations=10)

    def test_projection_bounds(self):
        cfg = PipelineConfig.from_dict(
            {"layers": {"blocks": 2, "layers": 2}, "heads": {"count": 2}}
        )
        project = make_projection(cfg)
        theta = pack_config(cfg, n_stations=10)
        wild = project(theta - 100.0)
        rebuilt = unpack_config(cfg, wild)
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
        assert [name for name, _, _ in self.BOUNDS] == list(TUNABLES)

    @staticmethod
    def slot(cfg, name):
        """Where tunable ``name`` sits in the packed vector of ``cfg``."""
        start = 0
        for other, size in tuning._tunable_layout(cfg):
            if other == name:
                return slice(start, start + size)
            start += size

    @pytest.mark.parametrize("name,lower,upper", BOUNDS)
    def test_each_tunable_clipped_to_its_bound(self, name, lower, upper):
        cfg = PipelineConfig.from_dict(
            {"layers": {"blocks": 2, "layers": 3}, "heads": {"count": 3}}
        )
        project = make_projection(cfg)
        theta = pack_config(cfg, n_stations=10)
        at = self.slot(cfg, name)
        for shift, bound in ((-1e9, lower), (1e9, upper)):
            moved = theta.copy()
            moved[at] += shift
            clipped = project(moved)
            want = moved[at] if np.isinf(bound) else np.full_like(moved[at], bound)
            np.testing.assert_array_equal(clipped[at], want)
            # the other tunables are inside their bounds and stay as they are
            np.testing.assert_array_equal(np.delete(clipped, at), np.delete(theta, at))
            # the clipped vector is a valid config, and packs back to itself
            rebuilt = unpack_config(cfg, clipped)
            np.testing.assert_array_equal(pack_config(rebuilt, n_stations=10)[at], want)
        inside = project(theta)
        np.testing.assert_array_equal(inside, theta)
        assert np.isnan(project(np.full_like(theta, np.nan))).all()

    def test_unpack_sets_per_block_tables(self):
        cfg = PipelineConfig.from_dict(
            {"layers": {"blocks": 2, "layers": 3}, "heads": {"count": 1}}
        )
        theta = pack_config(cfg, n_stations=4)
        theta[self.slot(cfg, "mu_u")] += np.array([1.0, 2.0])
        out = unpack_config(cfg, theta)
        np.testing.assert_allclose(out.layers.mu_u[0], 4.0)
        np.testing.assert_allclose(out.layers.mu_u[1], 5.0)


MU = "a finite number >= 0 or a list of them"  # the rule of mu_u, mu_d2 and mu_d1
RHO = "a finite number > 0 or a list of them or null"  # and of rho, rho_u and rho_d


class TestConfigRoundTrip:
    def test_save_load_preserves_values(self, tmp_path):
        cfg = PipelineConfig.from_dict(
            {
                "layers": {"blocks": 2, "layers": 3, "mu_u": [1.0, 2.0], "residual": 0.4},
                "heads": {"count": 2, "merge": [0.7, 0.3]},
                "solver": {"cg_mode": "exact", "cg_iters": 3, "cg_alpha": [0.0, 0.4, 0.8]},
                "data": {"horizon": 12, "mape_floor": 0.5},
            }
        )
        path = tmp_path / "config.json"
        cfg.save(path)
        back = PipelineConfig.load(path)
        assert back.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("text,where", [
        ('{"solver": {"cg_iters": 8, "cg_iters": 2}, "layers": {"blocks": 1}, '
         '"layers": {"blocks": 3}}', "config section 'layers'"),
        ('{"solver": {"cg_iters": 8, "cg_iters": 2}}', "config section 'solver': key 'cg_iters'"),
        ('{"heads": {"count": 1, "metric_overrides": [{"head": 0, "lag": 1, "lag": 2}]}}',
         "config section 'heads': key 'metric_overrides[0].lag'"),
    ], ids=["section", "key", "override-key"])
    def test_name_given_twice_rejected_at_load(self, tmp_path, text, where):
        # json alone keeps the last value of a repeated name, at any depth
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            PipelineConfig.load(path)
        assert str(info.value) == f"{path}: {where} given twice"

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            PipelineConfig.from_dict({"wat": {}})

    def test_integer_fields_take_integers_or_their_null(self):
        cfg = PipelineConfig.from_dict(
            {"solver": {"cg_iters": 3}, "tuner": {"eval_samples": None}, "graph": {"k": 3}}
        )
        assert (cfg.solver.cg_iters, cfg.tuner.eval_samples, cfg.graph.k) == (3, None, 3)
        with pytest.raises(ValueError, match="section 'graph': k must be an integer >= 1, "
                                             "got null"):
            PipelineConfig.from_dict({"graph": {"k": None}})

    def test_bad_key_names_section(self):
        with pytest.raises(ValueError, match="section 'solver'"):
            PipelineConfig.from_dict({"solver": {"bogus": 1}})

    def test_unknown_cg_mode_rejected(self):
        with pytest.raises(ValueError, match="section 'solver': cg_mode must be one of "
                           '"unrolled", "exact", got "exakt"'):
            PipelineConfig.from_dict({"solver": {"cg_mode": "exakt"}})

    @pytest.mark.parametrize(
        "section,bad,message",
        [
            ("layers", {"mu_u": None}, f"mu_u must be {MU}, got null"),
            ("layers", {"mu_d2": None}, f"mu_d2 must be {MU}, got null"),
            ("layers", {"mu_d1": None}, f"mu_d1 must be {MU}, got null"),
            ("layers", {"blocks": 2, "layers": 2, "mu_d2": [[1.0, 2.0], [3.0, -0.5]]},
             f"mu_d2 must be {MU}, got [[1.0, 2.0], [3.0, -0.5]]"),
            ("layers", {"rho": 0.0}, f"rho must be {RHO}, got 0.0"),
            ("layers", {"blocks": 2, "rho_d": [1.0, -1.0]},
             f"rho_d must be {RHO}, got [1.0, -1.0]"),
            ("heads", {"count": 2, "metric_scale_u": [1.0]},
             "metric_scale_u must have one entry per head (2)"),
            ("heads", {"count": 3, "metric_scale_d": [1.0, 1.0, 1.0, 1.0]},
             "metric_scale_d must have one entry per head (3)"),
            ("heads", {"count": 2, "metric_scale_d": 1.0},
             "metric_scale_d must have one entry per head (2)"),
            ("solver", {"cg_iters": 0}, "cg_iters must be an integer >= 1 in unrolled mode, got 0"),
            ("solver", {"cg_iters": -1},
             "cg_iters must be an integer >= 1 in unrolled mode, got -1"),
            ("solver", {"cg_iters": 4, "cg_beta": [0.1, 0.2]},
             "cg_beta has 2 entries; expected a scalar or cg_iters = 4 entries"),
            # graph.projection is deleted: a config naming it, with any shape,
            # is rejected as an unknown key
            ("graph", {"projection": [[0.0] * 16] * 5},
             f"unknown key 'projection' (value {json.dumps([[0.0] * 16] * 5)})"),
            ("graph", {"spatial_dim": 3, "projection": [[0.0] * 16] * 6},
             f"unknown key 'projection' (value {json.dumps([[0.0] * 16] * 6)})"),
            ("graph", {"projection": [[0.0, 1.0], [2.0]]},
             "unknown key 'projection' (value [[0.0, 1.0], [2.0]])"),
            ("graph", {"feature_dim": 4, "projection_bias": [0.0] * 6},
             "projection_bias must have feature_dim = 4 entries, got shape (6,)"),
            ("graph", {"projection_bias": [0.0] * 5 + [float("nan")]},
             "projection_bias must be a finite number or a list of them or null, "
             "got [0.0, 0.0, 0.0, 0.0, 0.0, NaN]"),
            ("tuner", {"iterations": -1}, "iterations must be an integer >= 0, got -1"),
            ("tuner", {"eval_samples": 0}, "eval_samples must be an integer >= 1 or null, got 0"),
            # tuner.step and tuner.perturb are deleted, as are solver.exact_cap
            # and solver.cg_tol: a config naming one is rejected as an unknown key
            ("tuner", {"step": 0.0}, "unknown key 'step' (value 0.0)"),
            ("tuner", {"perturb": -0.1}, "unknown key 'perturb' (value -0.1)"),
            ("tuner", {"decay_exponent": 0.602}, "unknown key 'decay_exponent' (value 0.602)"),
            ("tuner", {"perturb_exponent": 0.101},
             "unknown key 'perturb_exponent' (value 0.101)"),
            ("solver", {"bogus": 1}, "unknown key 'bogus' (value 1)"),
            ("layers", [1], "expected a JSON object of settings, got [1]"),
            ("data", {"stride": 1.5}, "stride must be an integer >= 1, got 1.5"),
            ("layers", {"blocks": False}, "blocks must be an integer >= 0, got false"),
            ("solver", {"exact_cap": 2.0}, "unknown key 'exact_cap' (value 2.0)"),
            ("data", {"history": 0}, "history must be an integer >= 1, got 0"),
            ("data", {"extrapolation": "linear-trend"},
             "unknown key 'extrapolation' (value \"linear-trend\")"),
            ("data", {"trend_window": 6}, "unknown key 'trend_window' (value 6)"),
            ("data", {"seasonal_period": 288}, "unknown key 'seasonal_period' (value 288)"),
            ("graph", {"window": 0}, "window must be an integer >= 1, got 0"),
            ("graph", {"window": 18},
             "window must satisfy 1 <= window < history + horizon = 18, got 18"),
            ("graph", {"spatial_dim": -1}, "spatial_dim must be an integer >= 0, got -1"),
            ("solver", {"exact_cap": 0}, "unknown key 'exact_cap' (value 0)"),
            ("layers", {"blocks": 2, "residual": [0.1, 0.2, 0.3]},
             "residual must be a number, a per-block list of length 2 or a 2 x 1 table, "
             "got [0.1, 0.2, 0.3]"),
            ("layers", {"residual": None},
             "residual must be a finite number in [0, 1] or a list of them, got null"),
            ("layers", {"residual": float("nan")},
             "residual must be a finite number in [0, 1] or a list of them, got NaN"),
            ("data", {"ratios": [0.5, 0.7, -0.2]},
             "ratios must be three nonnegative numbers summing to 1, got [0.5, 0.7, -0.2]"),
        ],
        ids=[
            "null-mu_u", "null-mu_d2", "null-mu_d1", "negative-mu_d2", "zero-rho",
            "negative-rho_d", "short-scale_u", "long-scale_d", "scalar-scale_d", "zero-cg_iters",
            "negative-cg_iters", "cg_beta-length", "short-projection", "projection-vs-spatial_dim",
            "ragged-projection", "long-projection_bias", "nan-projection_bias",
            "negative-iterations", "zero-eval_samples", "zero-step", "negative-perturb",
            "unknown-decay_exponent", "unknown-perturb_exponent",
            "unknown-key", "section-not-an-object", "fractional-stride", "boolean-blocks",
            "float-exact_cap", "zero-history", "unknown-extrapolation", "unknown-trend_window",
            "unknown-seasonal_period",
            "zero-window", "window-of-every-instant", "negative-spatial_dim", "zero-exact_cap",
            "long-residual", "null-residual", "nan-residual", "negative-ratio",
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

    BAD_ENTRIES = pytest.mark.parametrize(
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

    @BAD_ENTRIES
    def test_bad_slot_or_factor_rejected_by_build_bank(self, entry, match):
        # a head section built on its own meets the same rules when its bank is built
        heads = HeadSettings(count=2, metric_overrides=[{"factor": self.FACTOR, **entry}])
        with pytest.raises(ValueError, match=r"metric_overrides\[0\]") as info:
            heads.build_bank(18, 6, 6)
        assert info.match(match)

    @BAD_ENTRIES
    def test_bad_slot_or_factor_rejected_at_load(self, entry, match):
        prefix = r"^config section 'heads': metric_overrides\[0\]"
        with pytest.raises(ValueError, match=prefix) as info:
            PipelineConfig.from_dict(
                {"heads": {"count": 2, "metric_overrides": [{"factor": self.FACTOR, **entry}]}}
            )
        assert info.match(match)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (5, "metric_overrides must be a list of objects, got 5"),
            ([5], "metric_overrides[0] must be an object with a head, an instant or a lag and a "
                  "factor, got 5"),
            ([{"head": True, "instant": 0}], "metric_overrides[0]: head must be an integer in "
                                              "[0, 1], got true"),
            ([{"head": 0, "lag": 1, "factor": (np.eye(6) * np.nan).tolist()}],
             "metric_overrides[0]: factor must be 6x6 and finite"),
            ([{"head": 0, "instant": 2, "lag": 3, "factor": np.eye(6).tolist()}],
             "metric_overrides[0]: give an instant or a lag, not both; got instant 2 and lag 3"),
            ([{"head": 0, "instant": 2, "lag": 3, "factor": np.eye(6).tolist(), "scale": 9}],
             "metric_overrides[0]: unknown key 'scale' (value 9)"),
        ],
        ids=["not-a-list", "entry-not-an-object", "boolean-head", "nan-factor",
             "instant-and-lag", "unknown-key"],
    )
    def test_malformed_overrides_rejected_at_load(self, overrides, message):
        with pytest.raises(ValueError) as info:
            PipelineConfig.from_dict({"heads": {"count": 2, "metric_overrides": overrides}})
        assert str(info.value) == f"config section 'heads': {message}"

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

    def test_starting_point_raises_what_failed(self, monkeypatch):
        # windows of history 10 under a config of history 12: the error the
        # forward pass gives, after the one starting evaluation
        cfg, pg, _splits, std = self.make_setup()
        table, _pg = dmod.generate_synthetic(4, 150, seed=5, period=24)
        short = dmod.cut_windows(table, 10, 6, 3)
        calls = []
        batch = pipeline.reconstruct_batch
        monkeypatch.setattr(pipeline, "reconstruct_batch",
                            lambda *args: calls.append(1) or batch(*args))
        with pytest.raises(ValueError, match="sample window does not match"):
            tune_spsa(cfg, pg, short, standardizer=std)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "owner,name,error,raised",
        [
            (tuning, "unpack_config", ValueError("rejected by a rule"), False),
            (pipeline, "reconstruct_batch", NumericFailure("diverged"), False),
            (pipeline, "reconstruct_batch", ValueError("a bug"), True),
        ],
        ids=["rule-rejects-candidate", "forward-pass-numeric-failure", "forward-pass-bug"],
    )
    def test_only_rejected_or_failing_candidates_score_nan(self, monkeypatch, owner, name,
                                                           error, raised):
        cfg, pg, splits, std = self.make_setup()
        real, calls = getattr(owner, name), []

        def failing(*args):
            calls.append(1)
            if len(calls) in (2, 3):  # the first iteration's two candidates, after the start
                raise error
            return real(*args)

        monkeypatch.setattr(owner, name, failing)
        if raised:
            with pytest.raises(ValueError, match="a bug"):
                tune_spsa(cfg, pg, splits.val, standardizer=std, iterations=1)
        else:
            _, trace = tune_spsa(cfg, pg, splits.val, standardizer=std, iterations=1)
            assert trace.iterations[0]["rejected"]
            assert np.isnan(trace.iterations[0]["loss_plus"])

    def test_best_seen_non_increasing(self):
        cfg, pg, splits, std = self.make_setup()
        out, trace = tune_spsa(cfg, pg, splits.val, standardizer=std)
        assert trace.best_is_monotone()
        assert trace.best_losses[-1] <= trace.best_losses[0]
        # returned config is usable
        assert out.layers.mu_u.shape == (1, 3)

    def test_config_at_the_projection_bounds_loads_and_tunes(self, tmp_path):
        # the largest alpha and the smallest beta the tuner's projection
        # keeps load as written, run, and the tuned config loads back
        cfg, pg, splits, std = self.make_setup()
        doc = {**cfg.to_dict(), "solver": {"cg_alpha": 0.8, "cg_beta": 0.0}}
        (tmp_path / "bounds.json").write_text(json.dumps(doc))
        cfg = PipelineConfig.load(tmp_path / "bounds.json")
        assert (cfg.solver.cg_alpha, cfg.solver.cg_beta) == (0.8, 0.0)
        out, trace = tune_spsa(cfg, pg, splits.val, standardizer=std, iterations=1)
        assert not trace.iterations[0]["rejected"]
        assert np.isfinite(trace.best_losses).all()
        out.save(tmp_path / "tuned.json")
        assert PipelineConfig.load(tmp_path / "tuned.json").to_dict() == out.to_dict()

    def test_deterministic_under_seed(self):
        cfg, pg, splits, std = self.make_setup()
        cfg.tuner.seed = 9
        _, t1 = tune_spsa(cfg, pg, splits.val, standardizer=std, iterations=4)
        _, t2 = tune_spsa(cfg, pg, splits.val, standardizer=std, iterations=4)
        assert t1.best_losses == t2.best_losses

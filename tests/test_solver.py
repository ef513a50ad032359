"""Conjugate gradient, the ADMM layer updates, and the block variants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import daxpy

from stforecast import oracles, solver
from stforecast.priors import PriorWeights, glr, objective
from stforecast.solver import (
    TERMS,
    VARIANTS,
    AdmmState,
    CgSchedule,
    LayerParams,
    NumericFailure,
    admm_block,
    cg_solve,
    update_multipliers,
    update_phi,
    update_x,
    update_zd,
    update_zu,
)

from test_graphs import random_mixed


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(np.linspace(1.0, cond, n)) @ q.T


EXACT = CgSchedule.exact(tol=1e-10)


class TestCgSolve:
    def test_identity_returns_rhs(self):
        b = np.array([1.0, -2.0, 3.0])
        x = cg_solve(lambda v: v, b, np.zeros(3), CgSchedule.exact(tol=1e-12, iters=1))
        np.testing.assert_array_equal(x, b)

    def test_diagonal_system(self):
        a = np.diag([1.0, 2.0, 4.0])
        x = cg_solve(lambda v: a @ v, np.ones(3), np.zeros(3), CgSchedule.exact(tol=1e-12, iters=3))
        np.testing.assert_allclose(x, [1.0, 0.5, 0.25], atol=1e-12)
        assert np.linalg.norm(a @ x - np.ones(3)) < 1e-12

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 50)
        b = rng.standard_normal(50)
        x = cg_solve(lambda v: a @ v, b, np.zeros(50), EXACT)
        np.testing.assert_allclose(x, oracles.dense_solve(a, b), atol=1e-8)

    def test_residual_monotone_until_tolerance(self):
        # truncated reruns reproduce the CG trajectory deterministically
        rng = np.random.default_rng(1)
        for n in (20, 120, 200):
            a = random_spd(rng, n)
            b = rng.standard_normal(n)
            prev = np.linalg.norm(b)
            for k in range(1, 25):
                xk = cg_solve(lambda v: a @ v, b, np.zeros(n), CgSchedule.exact(tol=1e-14, iters=k))
                res = np.linalg.norm(a @ xk - b)
                if prev <= 1e-10:
                    break
                assert res < prev
                prev = res

    def test_unrolled_runs_exact_count(self):
        # zero step sizes leave the initial guess untouched, no early exit
        sched = CgSchedule.unrolled(iters=4, alphas=0.0, betas=0.0)
        x0 = np.array([5.0, 6.0])
        x = cg_solve(lambda v: v, np.ones(2), x0, sched)
        np.testing.assert_array_equal(x, x0)

    def test_unrolled_fixed_steps_reduce_residual(self):
        rng = np.random.default_rng(2)
        a = np.diag(rng.uniform(0.5, 2.0, 12))
        b = rng.standard_normal(12)
        sched = CgSchedule.unrolled(iters=8)
        x = cg_solve(lambda v: a @ v, b, np.zeros(12), sched)
        assert np.linalg.norm(a @ x - b) < np.linalg.norm(b)

    def test_alpha_clamped(self):
        sched = CgSchedule.unrolled(iters=2, alphas=[5.0, -1.0], betas=[-2.0, 0.5])
        np.testing.assert_array_equal(sched.alphas, [0.8, 0.0])
        np.testing.assert_array_equal(sched.betas, [0.0, 0.5])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unrolled_divergence_reports_iteration(self):
        a = np.diag([1000.0, 2000.0])
        sched = CgSchedule.unrolled(iters=600, alphas=0.8, betas=0.0)
        with pytest.raises(NumericFailure, match="cg iteration"):
            cg_solve(lambda v: a @ v, np.ones(2), np.zeros(2), sched)

    @staticmethod
    def _counted(a):
        calls = []

        def apply_a(v):
            calls.append(1)
            return a @ v

        return apply_a, calls

    @pytest.mark.parametrize("iters", [1, 2, 8])
    def test_unrolled_recurrence_takes_iters_products(self, iters):
        # the starting residual, then one product for every step but the last
        rng = np.random.default_rng(iters)
        a = random_spd(rng, 6)
        apply_a, calls = self._counted(a)
        x = cg_solve(apply_a, rng.standard_normal(6), np.zeros(6), CgSchedule.unrolled(iters))
        assert len(calls) == iters
        assert np.all(np.isfinite(x))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("iters", [3, 30, 600])
    def test_checked_rerun_names_the_step_with_every_product_taken(self, iters):
        # the reference runs every step in full, its last product included
        a = np.diag([1000.0, 2000.0, 3.0])
        sched = CgSchedule.unrolled(iters=iters, alphas=0.8, betas=0.3)
        b = np.array([1.0, -1.0, 1.0])
        x, r = np.zeros(3), b.copy()
        p, want = r.copy(), None
        for k in range(iters):  # x and r move by daxpy, as the solver's steps do
            ap = a @ p
            daxpy(p, x, a=0.8)
            daxpy(ap, r, a=-0.8)
            bad = np.flatnonzero(~np.isfinite(x))
            if len(bad):
                want = (k, int(bad[0]))
                break
            p = r + 0.3 * p
        apply_a, calls = self._counted(a)
        if want is None:
            np.testing.assert_array_equal(cg_solve(apply_a, b, np.zeros(3), sched), x)
            assert len(calls) == iters
            return
        with pytest.raises(NumericFailure) as info:
            cg_solve(apply_a, b, np.zeros(3), sched)
        assert (info.value.iteration, info.value.entry) == want

    @pytest.mark.parametrize("sched", [CgSchedule.exact(iters=0), CgSchedule.unrolled(iters=3)],
                             ids=["exact", "unrolled"])
    def test_result_is_finite_or_raises(self, sched):
        # exact CG capped at no step returns its start unless it checks it
        x0 = np.array([1.0, np.nan, 2.0])
        with pytest.raises(NumericFailure) as info:
            cg_solve(lambda v: 2.0 * v, np.ones(3), x0, sched)
        assert info.value.entry == 1

    def test_exact_rejects_indefinite(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(NumericFailure, match="curvature"):
            cg_solve(lambda v: a @ v, np.array([1.0, 1.0]), np.zeros(2), EXACT)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            CgSchedule(mode="unrolled", iters=3)
        with pytest.raises(ValueError):
            CgSchedule(mode="nope")


class TestLayerParams:
    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            LayerParams(1, 1, 1, rho=0.0, rho_u=1, rho_d=1)

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            LayerParams(-1, 1, 1, rho=1, rho_u=1, rho_d=1)


class TestZUpdates:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.g = random_mixed(rng, n_stations=4, n_instants=5, window=2, n_observed=3)
        self.state = AdmmState.initial(rng.standard_normal(self.g.n_nodes), self.g)
        self.state.gamma_u = rng.standard_normal(self.g.n_nodes)
        self.state.gamma_d = rng.standard_normal(self.g.n_nodes)

    def test_zu_identity_when_mu_zero(self):
        p = LayerParams(0.0, 1.0, 0.0, 1.0, 2.0, 1.0)
        z = update_zu(self.state, self.g, p, EXACT)
        np.testing.assert_allclose(z, self.state.gamma_u / 2.0 + self.state.x, atol=1e-10)

    def test_zu_passes_constants(self):
        state = AdmmState.initial(np.full(self.g.n_nodes, 2.5), self.g)
        p = LayerParams(1.7, 1.0, 0.0, 1.0, 1.0, 1.0)
        z = update_zu(state, self.g, p, EXACT)
        np.testing.assert_allclose(z, state.x, atol=1e-9)

    def test_zu_matches_spectral_oracle(self):
        p = LayerParams(1.3, 0.7, 0.5, 1.0, 0.9, 1.1)
        z = update_zu(self.state, self.g, p, CgSchedule.exact(tol=1e-13))
        want = oracles.spectral_lowpass(
            self.g.l_u, 2 * p.mu_u / p.rho_u, self.state.gamma_u / p.rho_u + self.state.x
        )
        np.testing.assert_allclose(z, want, atol=1e-8)

    def test_zd_identity_when_mu_zero(self):
        p = LayerParams(1.0, 0.0, 0.0, 1.0, 1.0, 2.0)
        z = update_zd(self.state, self.g, p, EXACT)
        np.testing.assert_allclose(z, self.state.gamma_d / 2.0 + self.state.x, atol=1e-10)

    def test_zd_passes_constants(self):
        state = AdmmState.initial(np.full(self.g.n_nodes, -1.25), self.g)
        p = LayerParams(1.0, 2.3, 0.0, 1.0, 1.0, 1.0)
        z = update_zd(state, self.g, p, EXACT)
        np.testing.assert_allclose(z, state.x, atol=1e-9)

    def test_zd_matches_spectral_oracle(self):
        p = LayerParams(1.3, 0.7, 0.5, 1.0, 0.9, 1.1)
        z = update_zd(self.state, self.g, p, CgSchedule.exact(tol=1e-13))
        want = oracles.spectral_lowpass(
            self.g.call_rd, 2 * p.mu_d2 / p.rho_d, self.state.gamma_d / p.rho_d + self.state.x
        )
        np.testing.assert_allclose(z, want, atol=1e-8)


def full_x_system(g, state, p, y):
    """The full variant's x system written out densely: H'H + 0.5 rho L_r'L_r
    + 0.5 (rho_u + rho_d) I and its right-hand side."""
    a = (np.diag(g.h_mask.astype(float)) + 0.5 * p.rho * g.call_rd.toarray()
         + 0.5 * (p.rho_u + p.rho_d) * np.eye(g.n_nodes))
    rhs = (g.l_rd.toarray().T @ (0.5 * state.gamma + 0.5 * p.rho * state.phi)
           - 0.5 * state.gamma_u + 0.5 * p.rho_u * state.z_u
           - 0.5 * state.gamma_d + 0.5 * p.rho_d * state.z_d + g.lift_observed(y))
    return a, rhs


class TestUpdateX:
    def test_tiny_rho_limit_projects_observations(self):
        # the temporal coupling rho must vanish faster than rho_u + rho_d,
        # otherwise the smooth extension survives the limit at the same order
        rng = np.random.default_rng(4)
        g = random_mixed(rng, n_stations=3, n_instants=4, window=2, n_observed=2)
        y = rng.standard_normal(int(g.h_mask.sum()))
        state = AdmmState.initial(np.zeros(g.n_nodes), g)
        state.phi[:] = 0.0
        p = LayerParams(0, 0, 0, rho=1e-12, rho_u=1e-6, rho_d=1e-6)
        x = update_x(state, g, p, g.lift_observed(y), CgSchedule.exact(tol=1e-12))
        np.testing.assert_allclose(x[g.h_mask], y, atol=1e-5)
        np.testing.assert_allclose(x[~g.h_mask], 0.0, atol=1e-5)

    def test_single_station_two_instants_2x2_oracle(self):
        # one station, two instants: the whole system is a hand-checkable 2x2
        from stforecast.attention import build_mixed_graph
        from stforecast.graphs import PhysicalGraph, build_spatial_skeleton, build_temporal_skeleton

        sskel = build_spatial_skeleton(PhysicalGraph(1, ()), 1)
        tskel = build_temporal_skeleton(1, 2, 1)
        g = build_mixed_graph(np.zeros((2, 0)), np.ones(1), sskel, tskel, 1,
                              with_undirected_temporal=False)
        y = np.array([3.0])
        state = AdmmState.initial(np.array([1.0, -2.0]), g)
        state.gamma = np.array([0.2, -0.1])
        state.z_u = np.array([0.4, 0.6])
        state.z_d = np.array([-0.3, 0.9])
        state.gamma_u = np.array([0.05, -0.2])
        state.gamma_d = np.array([0.15, 0.25])
        p = LayerParams(0.7, 0.9, 0.3, rho=1.4, rho_u=0.6, rho_d=1.2)
        x = update_x(state, g, p, g.lift_observed(y), CgSchedule.exact(tol=1e-14))
        a, rhs = full_x_system(g, state, p, y)
        np.testing.assert_allclose(x, oracles.dense_solve(a, rhs), atol=1e-10)

    def test_two_station_two_instant_dense_oracle(self):
        rng = np.random.default_rng(5)
        g = random_mixed(rng, n_stations=2, n_instants=2, window=1, n_observed=1)
        y = rng.standard_normal(2)
        state = AdmmState.initial(rng.standard_normal(4), g)
        state.gamma = rng.standard_normal(4)
        state.gamma_u = rng.standard_normal(4)
        state.gamma_d = rng.standard_normal(4)
        state.z_u = rng.standard_normal(4)
        state.z_d = rng.standard_normal(4)
        p = LayerParams(0.5, 0.5, 0.5, rho=1.2, rho_u=0.8, rho_d=1.1)
        x = update_x(state, g, p, g.lift_observed(y), CgSchedule.exact(tol=1e-13))
        a, rhs = full_x_system(g, state, p, y)
        np.testing.assert_allclose(x, oracles.dense_solve(a, rhs), atol=1e-8)

    @pytest.mark.parametrize("mode", VARIANTS)
    def test_variant_dense_oracle(self, mode):
        # each variant's signal system and rhs, written out densely
        rng = np.random.default_rng(29)
        g = random_mixed(rng, n_stations=2, n_instants=3, window=2, n_observed=2)
        n = g.n_nodes
        y = rng.standard_normal(int(g.h_mask.sum()))
        state = AdmmState.initial(rng.standard_normal(n), g)
        state.gamma, state.gamma_u, state.gamma_d, state.z_u, state.z_d = (
            rng.standard_normal(n) for _ in range(5)
        )
        p = LayerParams(0.6, 0.7, 0.5, rho=1.2, rho_u=0.8, rho_d=1.1)
        h, eye = np.diag(g.h_mask.astype(float)), np.eye(n)
        c, l_u = g.call_rd.toarray(), g.l_u.toarray()
        l1 = g.l_rd.toarray().T @ (0.5 * state.gamma + 0.5 * p.rho * state.phi)
        zu = -0.5 * state.gamma_u + 0.5 * p.rho_u * state.z_u
        zd = -0.5 * state.gamma_d + 0.5 * p.rho_d * state.z_d
        hy = g.lift_observed(y)
        a, rhs = {
            "full": (h + 0.5 * p.rho * c + 0.5 * (p.rho_u + p.rho_d) * eye, l1 + zu + zd + hy),
            "no_dgtv": (h + 0.5 * (p.rho_u + p.rho_d) * eye, zu + zd + hy),
            "no_dglr": (h + 0.5 * p.rho * c + 0.5 * p.rho_u * eye, l1 + zu + hy),
            "undirected_temporal": (h + 0.5 * (p.rho_u + p.rho_d) * eye, zu + zd + hy),
            "direct_unsplit": (h + p.mu_u * l_u + (p.mu_d2 + 0.5 * p.rho) * c, l1 + hy),
        }[mode]
        x = update_x(state, g, p, g.lift_observed(y), CgSchedule.exact(tol=1e-13), TERMS[mode])
        np.testing.assert_allclose(x, oracles.dense_solve(a, rhs), atol=1e-8)

    def test_linear_system_residual(self):
        rng = np.random.default_rng(6)
        g = random_mixed(rng)
        y = rng.standard_normal(int(g.h_mask.sum()))
        state = AdmmState.initial(rng.standard_normal(g.n_nodes), g)
        p = LayerParams(1, 1, 1, 1.0, 1.0, 1.0)
        x = update_x(state, g, p, g.lift_observed(y), CgSchedule.exact(tol=1e-12))
        a, rhs = full_x_system(g, state, p, y)
        assert np.linalg.norm(a @ x - rhs) < 1e-8


class TestUpdatePhi:
    def make_graph(self):
        return random_mixed(np.random.default_rng(7))

    def test_zero_delta(self):
        g = self.make_graph()
        x = np.ones(g.n_nodes)  # L x = 0
        phi = update_phi(g.apply("l_rd", x), np.zeros(g.n_nodes), LayerParams(1, 1, 1, 1, 1, 1))
        np.testing.assert_array_equal(phi, np.zeros(g.n_nodes))

    def test_no_shrink_when_mu_zero(self):
        rng = np.random.default_rng(8)
        g = self.make_graph()
        x = rng.standard_normal(g.n_nodes)
        gamma = rng.standard_normal(g.n_nodes)
        p = LayerParams(1, 1, 0.0, rho=2.0, rho_u=1, rho_d=1)
        phi = update_phi(g.apply("l_rd", x), gamma, p)
        np.testing.assert_allclose(phi, g.apply("l_rd", x) - gamma / 2.0, atol=1e-14)

    def test_halfway_shrink(self):
        # delta = 1.5 with threshold 0.5 shrinks to exactly 1.0
        p = LayerParams(0, 0, 1.0, rho=2.0, rho_u=1, rho_d=1)  # threshold 0.5
        assert update_phi(np.array([1.5]), np.array([0.0]), p)[0] == 1.0
        grid = oracles.soft_threshold_grid(1.5, 0.0, 1.0, 2.0)
        assert abs(grid - 1.0) < 1e-3

    @given(
        st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
        st.floats(0, 2), st.floats(0.5, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_grid_search(self, shift, gamma, mu, rho):
        phi = update_phi(np.array([shift]), np.array([gamma]), LayerParams(0, 0, mu, rho, 1, 1))
        grid = oracles.soft_threshold_grid(shift, gamma, mu, rho, step=1e-4)
        assert abs(phi[0] - grid) <= 1e-3


class TestMultipliers:
    def test_zero_residuals_leave_multipliers(self):
        rng = np.random.default_rng(9)
        g = random_mixed(rng)
        x = np.ones(g.n_nodes)  # L_r x = 0
        state = AdmmState.initial(x, g)
        p = LayerParams(1, 1, 1, 1.3, 0.7, 2.1)
        # |gamma| < mu_d1 keeps delta = -gamma/rho inside the threshold, so
        # phi = 0 = L_r x, and z_u = z_d = x: every split residual is zero
        state.gamma = rng.uniform(-0.9, 0.9, g.n_nodes)
        state.gamma_u = rng.standard_normal(g.n_nodes)
        state.gamma_d = rng.standard_normal(g.n_nodes)
        clipped = g.apply("l_rd", x)
        state.phi = update_phi(clipped, state.gamma, p, clipped)
        np.testing.assert_array_equal(state.phi, 0.0)
        gamma, gamma_u, gamma_d = update_multipliers(state, clipped, p)
        np.testing.assert_allclose(gamma, state.gamma, atol=1e-14)
        np.testing.assert_allclose(gamma_u, state.gamma_u, atol=1e-14)
        np.testing.assert_allclose(gamma_d, state.gamma_d, atol=1e-14)

    def test_unit_residual_increments(self):
        g = random_mixed(np.random.default_rng(10))
        n = g.n_nodes
        state = AdmmState.initial(np.zeros(n), g)
        p = LayerParams(1, 1, 1, 1.0, 1.0, 1.0)
        x = np.zeros(n)
        # delta = 2 at threshold 1: phi = 1 = L_r x + 1
        state.gamma = np.full(n, -2.0)
        clipped = g.apply("l_rd", x)
        state.phi = update_phi(clipped, state.gamma, p, clipped)
        state.z_u, state.z_d = x - 1.0, x - 1.0
        np.testing.assert_array_equal(state.phi, 1.0)
        gamma, gamma_u, gamma_d = update_multipliers(state, clipped, p)
        np.testing.assert_allclose(gamma, state.gamma + 1.0)
        np.testing.assert_allclose(gamma_u, np.ones(n))
        np.testing.assert_allclose(gamma_d, np.ones(n))

    def test_matches_recomputation(self):
        # the l1 multiplier is -rho clip(delta, -t, t): the textbook ascent
        # gamma + rho (phi - L_r x) from phi = update_phi, and within mu_d1
        rng = np.random.default_rng(11)
        g = random_mixed(rng)
        n = g.n_nodes
        state = AdmmState.initial(rng.standard_normal(n), g)
        state.gamma, state.gamma_u, state.gamma_d = (
            rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)
        )
        x, zu, zd = (rng.standard_normal(n) for _ in range(3))
        state.x, state.z_u, state.z_d = x, zu, zd
        p = LayerParams(1, 1, 0.6, 0.9, 1.7, 0.4)
        clipped = g.apply("l_rd", x)
        state.phi = update_phi(clipped, state.gamma, p, clipped)
        gamma, gamma_u, gamma_d = update_multipliers(state, clipped, p)
        textbook = state.gamma + 0.9 * (state.phi - g.l_rd.toarray() @ x)
        np.testing.assert_allclose(gamma, textbook, rtol=0, atol=1e-14 * (1 + np.abs(textbook).max()))
        assert np.abs(gamma).max() <= 0.6
        assert 0 < np.count_nonzero(np.abs(gamma) < 0.6) < n  # inside and on the threshold
        np.testing.assert_allclose(gamma_u, state.gamma_u + 1.7 * (x - zu))
        np.testing.assert_allclose(gamma_d, state.gamma_d + 0.4 * (x - zd))

    @pytest.mark.parametrize("mode", ["full", "direct_unsplit"])
    @pytest.mark.parametrize("cg", ["exact", "unrolled"])
    def test_every_layer_takes_the_textbook_ascent(self, monkeypatch, mode, cg):
        # after every layer of a block, the closed form equals gamma + rho
        # (phi - L_r x) of that layer's phi and x, and lies in [-mu_d1, mu_d1]
        rng = np.random.default_rng(12)
        g, y = tiny_instance(rng)
        params = [LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
                  for _ in range(6)]
        sched = CgSchedule.exact(tol=1e-12) if cg == "exact" else CgSchedule.unrolled(8)
        ascend, checked = solver.update_multipliers, []

        def textbook_checked(state, clipped, p, terms):
            want = state.gamma + p.rho * (state.phi - g.l_rd.toarray() @ state.x)
            got = ascend(state, clipped, p, terms)
            scale = 1 + np.abs(state.gamma).max() + p.rho * np.abs(state.phi).max()
            np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-13 * scale)
            assert np.abs(got[0]).max() <= p.mu_d1
            checked.append(p)
            return got

        monkeypatch.setattr(solver, "update_multipliers", textbook_checked)
        admm_block(g.lift_observed(y), y, g, params, sched, mode)
        assert checked == params[:-1]  # the last layer updates x only


def tiny_instance(rng, **kw):
    g = random_mixed(
        rng,
        n_stations=kw.get("n_stations", int(rng.integers(2, 5))),
        n_instants=kw.get("n_instants", int(rng.integers(3, 6))),
        window=2,
        n_observed=2,
    )
    y = rng.standard_normal(int(g.h_mask.sum()))
    return g, y


class TestAdmmBlock:
    def test_fidelity_only_restores_observations(self):
        rng = np.random.default_rng(12)
        g, y = tiny_instance(rng)
        params = [LayerParams(0, 0, 0, 1e-9, 1e-9, 1e-9)]
        x = admm_block(np.zeros(g.n_nodes), y, g, params, CgSchedule.exact(tol=1e-12))
        np.testing.assert_allclose(x[g.h_mask], y, atol=1e-5)

    def test_smooth_fixed_point_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        w = PriorWeights(0.8, 0.6, 0.0)
        for _ in range(5):
            g, y = tiny_instance(rng)
            params = [LayerParams(w.mu_u, w.mu_d2, 0.0, 1.0, 1.0, 1.0)] * 200
            x = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12))
            x_star = oracles.smooth_minimizer(g, y, w)
            gap = objective(x, y, g, w) - objective(x_star, y, g, w)
            assert abs(gap) < 1e-6

    def test_smooth_fixed_point_satisfies_normal_equations(self):
        rng = np.random.default_rng(14)
        w = PriorWeights(1.2, 0.9, 0.0)
        g, y = tiny_instance(rng)
        params = [LayerParams(w.mu_u, w.mu_d2, 0.0, 1.0, 1.0, 1.0)] * 400
        x = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12))
        resid = oracles.smooth_system(g, w) @ x - g.lift_observed(y)
        assert np.linalg.norm(resid) < 1e-6

    def test_l1_fixed_point_matches_prox_gradient_oracle(self):
        rng = np.random.default_rng(15)
        w = PriorWeights(0.6, 0.5, 0.4)
        for _ in range(3):
            g, y = tiny_instance(rng)
            params = [LayerParams(w.mu_u, w.mu_d2, w.mu_d1, 1.0, 1.0, 1.0)] * 500
            x = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12))
            x_star = oracles.prox_grad_minimizer(g, y, w, step_tol=1e-8)
            gap = objective(x, y, g, w) - objective(x_star, y, g, w)
            assert abs(gap) < 1e-4

    def test_primal_feasibility_within_500_layers(self):
        rng = np.random.default_rng(16)
        for _ in range(3):
            g, y = tiny_instance(rng)
            params = [LayerParams(0.7, 0.5, 0.3, 1.0, 1.0, 1.0)] * 500
            trace = []
            admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12), "full", trace)
            last = trace[-1]
            assert last["res_phi"] < 1e-5
            assert last["res_zu"] < 1e-5
            assert last["res_zd"] < 1e-5

    def test_trace_residuals_decay(self):
        rng = np.random.default_rng(17)
        g, y = tiny_instance(rng)
        params = [LayerParams(0.8, 0.6, 0.0, 1.0, 1.0, 1.0)] * 200
        trace = []
        admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12), "full", trace)
        for key in ("res_zu", "res_zd"):
            series = [t[key] for t in trace]
            assert series[50] < series[5] < series[0]
            assert series[-1] < 1e-8
        objs = [t["objective"] for t in trace]
        assert objs[-1] <= objs[0]

    def test_determinism_bitwise(self):
        rng_a, rng_b = np.random.default_rng(18), np.random.default_rng(18)
        g_a, y_a = tiny_instance(rng_a)
        g_b, y_b = tiny_instance(rng_b)
        params = [LayerParams(1, 1, 1, 1.0, 1.0, 1.0)] * 30
        sched = CgSchedule.unrolled(iters=8)
        x_a = admm_block(g_a.lift_observed(y_a), y_a, g_a, params, sched)
        x_b = admm_block(g_b.lift_observed(y_b), y_b, g_b, params, sched)
        assert np.array_equal(x_a, x_b)

    def test_mode_validation(self):
        g, y = tiny_instance(np.random.default_rng(19))
        with pytest.raises(ValueError, match="^unknown solver variant 'bogus'$"):
            admm_block(np.zeros(g.n_nodes), y, g, [LayerParams(1, 1, 1, 1, 1, 1)], EXACT, "bogus")

    def test_empty_params_rejected(self):
        g, y = tiny_instance(np.random.default_rng(20))
        with pytest.raises(ValueError, match="^need at least one layer$"):
            admm_block(np.zeros(g.n_nodes), y, g, [], EXACT)

    def test_undirected_temporal_needs_l_n(self):
        # a graph planned without l_n runs every variant but this one
        g, y = tiny_instance(np.random.default_rng(20))
        assert g.l_n is None
        with pytest.raises(ValueError,
                           match=r"^graph has no undirected temporal Laplacian \(l_n\)$"):
            admm_block(np.zeros(g.n_nodes), y, g, [LayerParams(1, 1, 1, 1, 1, 1)], EXACT,
                       "undirected_temporal")

    def test_numeric_failure_carries_layer_and_step(self):
        g, y = tiny_instance(np.random.default_rng(21))
        params = [LayerParams(1000.0, 1, 1, 1.0, 1.0, 1.0)] * 3
        sched = CgSchedule.unrolled(iters=400, alphas=0.8, betas=0.0)
        with pytest.raises(NumericFailure) as exc_info:
            admm_block(np.ones(g.n_nodes) * 1e3, y, g, params, sched)
        assert exc_info.value.layer is not None
        assert exc_info.value.step is not None

    @pytest.mark.parametrize("case, message", [
        ("exact", "CG curvature is not positive (layer 0, step x, cg iteration 0)"),
        ("unrolled", "unrolled CG diverged (layer 0, step x, cg iteration 0)"),
        ("phi", "non-finite values (layer 1, step phi)"),
    ])
    def test_non_finite_sub_step_names_layer_and_step(self, monkeypatch, case, message):
        # a finite start so large that its product by the signal system
        # overflows fails the first layer's signal solve, in either CG
        # mode; a non-finite phi is checked by the layer itself, here in
        # layer 1 of 3 (the last layer updates x only)
        g, y = tiny_instance(np.random.default_rng(25))
        x0 = np.zeros(g.n_nodes)
        sched = CgSchedule.exact() if case == "exact" else CgSchedule.unrolled(iters=3)
        if case == "phi":
            update_phi_of = solver.update_phi
            calls = []

            def failing_second(*args):
                calls.append(1)
                out = update_phi_of(*args)
                if len(calls) == 2:
                    out[-1] = np.inf
                return out

            monkeypatch.setattr(solver, "update_phi", failing_second)
        else:
            x0 = np.full(g.n_nodes, 1e308)
        with pytest.raises(NumericFailure) as info:
            admm_block(x0, y, g, [LayerParams(1, 1, 1, 1, 1, 1)] * 3, sched)
        assert str(info.value) == message
        assert info.value.lane == 0

    def test_refuses_observations_of_another_length(self):
        g, y = tiny_instance(np.random.default_rng(25))
        n = len(y)
        with pytest.raises(ValueError,
                           match=rf"^observations of shape \({n - 1},\) for {n} observed nodes$"):
            admm_block(np.zeros(g.n_nodes), y[:-1], g, [LayerParams(1, 1, 1, 1, 1, 1)], EXACT)


class TestVariants:
    def test_no_dgtv_equals_full_with_zero_l1(self):
        rng = np.random.default_rng(22)
        for _ in range(3):
            g, y = tiny_instance(rng)
            base = dict(mu_u=0.9, mu_d2=0.7, rho=1.0, rho_u=1.0, rho_d=1.0)
            p_full = [LayerParams(mu_d1=0.0, **base)] * 300
            p_abl = [LayerParams(mu_d1=0.0, **base)] * 300
            x_full = admm_block(g.lift_observed(y), y, g, p_full, CgSchedule.exact(tol=1e-12), "full")
            x_abl = admm_block(g.lift_observed(y), y, g, p_abl, CgSchedule.exact(tol=1e-12), "no_dgtv")
            w = PriorWeights(0.9, 0.7, 0.0)
            gap = objective(x_full, y, g, w) - objective(x_abl, y, g, w)
            assert abs(gap) < 1e-6

    def test_no_dglr_matches_its_own_oracle(self):
        rng = np.random.default_rng(23)
        g, y = tiny_instance(rng)
        w = PriorWeights(0.8, 0.0, 0.5)
        params = [LayerParams(w.mu_u, 0.0, w.mu_d1, 1.0, 1.0, 1.0)] * 500
        x = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12), "no_dglr")
        x_star = oracles.prox_grad_minimizer(g, y, w, step_tol=1e-8)
        gap = objective(x, y, g, w) - objective(x_star, y, g, w)
        assert abs(gap) < 1e-4

    def test_undirected_temporal_matches_dense_oracle(self):
        rng = np.random.default_rng(24)
        g, y = self._graph_with_ln(rng)
        mu_u, mu_n = 0.8, 0.7
        params = [LayerParams(mu_u, mu_n, 0.0, 1.0, 1.0, 1.0)] * 300
        x = admm_block(
            g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12), "undirected_temporal"
        )
        x_star = oracles.undirected_temporal_minimizer(g, y, mu_u, mu_n)

        def obj(v):
            resid = y - g.project_observed(v)
            return float(resid @ resid) + mu_u * glr(v, g.l_u) + mu_n * glr(v, g.l_n)

        assert abs(obj(x) - obj(x_star)) < 1e-6

    def test_direct_unsplit_reaches_smooth_fixed_point(self):
        rng = np.random.default_rng(25)
        g, y = tiny_instance(rng)
        w = PriorWeights(0.9, 0.6, 0.0)
        params = [LayerParams(w.mu_u, w.mu_d2, 0.0, 1.0, 1.0, 1.0)] * 200
        x = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12), "direct_unsplit")
        resid = oracles.smooth_system(g, w) @ x - g.lift_observed(y)
        assert np.linalg.norm(resid) < 1e-6

    def test_direct_unsplit_l1_agrees_with_full(self):
        rng = np.random.default_rng(26)
        g, y = tiny_instance(rng)
        w = PriorWeights(0.6, 0.5, 0.3)
        params = [LayerParams(w.mu_u, w.mu_d2, w.mu_d1, 1.0, 1.0, 1.0)] * 400
        x_direct = admm_block(
            g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12), "direct_unsplit"
        )
        x_full = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12), "full")
        gap = objective(x_direct, y, g, w) - objective(x_full, y, g, w)
        assert abs(gap) < 1e-6

    def test_undirected_temporal_requires_ln(self):
        g, y = tiny_instance(np.random.default_rng(27))
        assert g.l_n is None
        with pytest.raises(ValueError, match="l_n"):
            admm_block(
                np.zeros(g.n_nodes), y, g,
                [LayerParams(1, 1, 0, 1, 1, 1)], EXACT, "undirected_temporal",
            )

    @pytest.mark.parametrize("mode", VARIANTS)
    def test_trace_record(self, mode):
        dropped = {
            "full": (),
            "no_dgtv": ("res_phi",),
            "no_dglr": ("res_zd",),
            "undirected_temporal": ("res_phi",),
            "direct_unsplit": ("res_zu", "res_zd"),
        }[mode]
        g, y = self._graph_with_ln(np.random.default_rng(28))
        p = LayerParams(0.8, 0.6, 0.4, 1.0, 1.0, 1.0)
        trace = []
        x = admm_block(g.lift_observed(y), y, g, [p] * 3, EXACT, mode, trace)
        assert [rec["layer"] for rec in trace] == [0, 1, 2]
        for key in ("res_phi", "res_zu", "res_zd"):
            values = np.array([rec[key] for rec in trace])
            if key in dropped:
                assert np.all(np.isnan(values)), key
            else:
                assert np.all(np.isfinite(values)), key
        if mode == "undirected_temporal":
            resid = y - g.project_observed(x)
            want = float(resid @ resid) + p.mu_u * glr(x, g.l_u) + p.mu_d2 * glr(x, g.l_n)
        else:
            weights = {
                "full": PriorWeights(p.mu_u, p.mu_d2, p.mu_d1),
                "no_dgtv": PriorWeights(p.mu_u, p.mu_d2, 0.0),
                "no_dglr": PriorWeights(p.mu_u, 0.0, p.mu_d1),
                "direct_unsplit": PriorWeights(p.mu_u, p.mu_d2, p.mu_d1),
            }[mode]
            want = objective(x, y, g, weights)
        assert trace[-1]["objective"] == pytest.approx(want, rel=1e-12)

    @staticmethod
    def _graph_with_ln(rng):
        from stforecast.attention import MetricBank, build_mixed_graph, directed_weights, undirected_weights
        from stforecast.graphs import PhysicalGraph, build_spatial_skeleton, build_temporal_skeleton

        n_stations, n_instants = 3, 4
        edges = tuple(
            (i, j, float(rng.uniform(0.5, 2)))
            for i in range(n_stations) for j in range(i + 1, n_stations)
        )
        pg = PhysicalGraph(n_stations, edges)
        sskel = build_spatial_skeleton(pg, 2)
        tskel = build_temporal_skeleton(n_stations, n_instants, 2)
        feats = rng.standard_normal((n_stations * n_instants, 4))
        bank = MetricBank.default(n_instants, 2, feature_dim=4, heads=1)
        wu = undirected_weights(feats, sskel, bank.undirected[0])
        wd = directed_weights(feats, tskel, bank.directed[0])
        g = build_mixed_graph(wu, wd, sskel, tskel, n_observed=2, with_undirected_temporal=True)
        y = rng.standard_normal(int(g.h_mask.sum()))
        return g, y

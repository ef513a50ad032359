"""Variational terms, the dense spectrum oracle, and the reconstruction objective."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stforecast.graphs import PhysicalGraph, build_spatial_skeleton, directed_skeleton_from_edges
from stforecast.oracles import dense_spectrum
from stforecast.priors import (
    PriorWeights,
    dglr,
    dgtv,
    glr,
    objective,
)

from test_graphs import laplacian, random_mixed, random_walk


def random_undirected(rng, n=10):
    edges = tuple(
        (i, j, float(rng.uniform(0.1, 2))) for i in range(n) for j in range(i + 1, n)
        if rng.uniform() < 0.4
    ) or ((0, 1, 1.0),)
    pg = PhysicalGraph(n, edges)
    skel = build_spatial_skeleton(pg, 3)
    weights = rng.uniform(0.1, 2, (1, skel.n_edges))
    return skel, weights, laplacian(skel, weights)


class TestGlr:
    def test_constant_is_zero(self):
        rng = np.random.default_rng(0)
        _, _, lap = random_undirected(rng)
        assert glr(np.full(10, 3.7), lap) < 1e-12

    def test_two_node_unit(self):
        pg = PhysicalGraph(2, ((0, 1, 1.0),))
        lap = laplacian(build_spatial_skeleton(pg, 1), np.array([[1.0]]))
        assert glr(np.array([0.0, 1.0]), lap) == pytest.approx(1.0)

    def test_matches_pairwise_sum_oracle(self):
        rng = np.random.default_rng(1)
        skel, weights, lap = random_undirected(rng)
        x = rng.standard_normal(10)
        oracle = sum(
            w * (x[i] - x[j]) ** 2
            for (i, j), w in zip(skel.edges, weights[0])
        )
        assert glr(x, lap) == pytest.approx(oracle, abs=1e-10)

    def test_shape_mismatch(self):
        _, _, lap = random_undirected(np.random.default_rng(2))
        with pytest.raises(ValueError):
            glr(np.zeros(3), lap)


def fig_dag_forward():
    """3-node DAG: node 2 has parents 0 and 1 with equal weights."""
    skel = directed_skeleton_from_edges(3, [(0, 2), (1, 2)])
    return random_walk(skel, np.ones(2))[1]


def fig_dag_reversed():
    skel = directed_skeleton_from_edges(3, [(2, 0), (2, 1)])
    return random_walk(skel, np.ones(2))[1]


class TestDglr:
    def test_constant_is_zero(self):
        assert dglr(np.ones(3), fig_dag_forward()) == pytest.approx(0.0, abs=1e-15)

    def test_forward_dag_annihilates_parent_average(self):
        assert dglr(np.array([2.0, 0.0, 1.0]), fig_dag_forward()) == pytest.approx(0.0, abs=1e-15)

    def test_reversed_dag_sees_variation(self):
        assert dglr(np.array([2.0, 0.0, 1.0]), fig_dag_reversed()) == pytest.approx(2.0)

    def test_quadratic_form_agreement(self):
        rng = np.random.default_rng(3)
        g = random_mixed(rng, n_stations=4, n_instants=5)
        for _ in range(20):
            x = rng.standard_normal(g.n_nodes)
            quad = float(x @ (g.call_rd @ x))
            assert dglr(x, g.l_rd) == pytest.approx(quad, abs=1e-10)

    def test_child_sum_oracle(self):
        rng = np.random.default_rng(4)
        skel = directed_skeleton_from_edges(5, [(0, 2), (1, 2), (2, 3), (1, 3), (3, 4)])
        weights = rng.uniform(0.5, 2, 5)
        w_rd, l_rd = random_walk(skel, weights)
        x = rng.standard_normal(5)
        wbar = w_rd.toarray()
        oracle = sum(
            (x[j] - wbar[j] @ x) ** 2 for j in range(5) if j not in (0, 1)
        )
        assert dglr(x, l_rd) == pytest.approx(oracle, abs=1e-12)

    @given(
        arrays(np.float64, 6, elements=st.floats(-10, 10)),
        st.floats(-4, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_law(self, x, alpha):
        g = random_mixed(np.random.default_rng(7), n_stations=2, n_instants=3, window=1)
        base = dglr(x, g.l_rd)
        assert dglr(alpha * x, g.l_rd) == pytest.approx(alpha**2 * base, abs=1e-10 * (1 + base))


class TestDgtv:
    def test_constant_is_zero(self):
        assert dgtv(np.ones(3), fig_dag_forward()) == pytest.approx(0.0, abs=1e-15)

    def test_two_node_chain(self):
        skel = directed_skeleton_from_edges(2, [(0, 1)])
        _, l_rd = random_walk(skel, np.ones(1))
        assert dgtv(np.array([0.0, 3.0]), l_rd) == pytest.approx(3.0)

    def test_per_child_oracle(self):
        rng = np.random.default_rng(5)
        skel = directed_skeleton_from_edges(5, [(0, 2), (1, 2), (2, 3), (1, 3), (3, 4)])
        weights = rng.uniform(0.5, 2, 5)
        w_rd, l_rd = random_walk(skel, weights)
        x = rng.standard_normal(5)
        wbar = w_rd.toarray()
        oracle = sum(abs(x[j] - wbar[j] @ x) for j in range(5) if j not in (0, 1))
        assert dgtv(x, l_rd) == pytest.approx(oracle, abs=1e-12)

    @given(
        arrays(np.float64, 6, elements=st.floats(-10, 10)),
        st.floats(-4, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_law(self, x, alpha):
        g = random_mixed(np.random.default_rng(8), n_stations=2, n_instants=3, window=1)
        base = dgtv(x, g.l_rd)
        assert dgtv(alpha * x, g.l_rd) == pytest.approx(abs(alpha) * base, abs=1e-10 * (1 + base))

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        g = random_mixed(rng)
        for _ in range(20):
            x = rng.standard_normal(g.n_nodes)
            assert dgtv(x, g.l_rd) >= 0.0
            assert dglr(x, g.l_rd) >= 0.0


class TestObjective:
    def test_interpolation_with_zero_weights(self):
        rng = np.random.default_rng(10)
        g = random_mixed(rng)
        x = rng.standard_normal(g.n_nodes)
        y = g.project_observed(x)
        assert objective(x, y, g, PriorWeights(0, 0, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_pure_fidelity(self):
        rng = np.random.default_rng(11)
        g = random_mixed(rng)
        x = rng.standard_normal(g.n_nodes)
        y = rng.standard_normal(int(g.h_mask.sum()))
        resid = y - x[g.h_mask]
        assert objective(x, y, g, PriorWeights(0, 0, 0)) == pytest.approx(resid @ resid)

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(12)
        g = random_mixed(rng)
        x = rng.standard_normal(g.n_nodes)
        y = rng.standard_normal(int(g.h_mask.sum()))
        w = PriorWeights(0.7, 1.3, 0.4)
        resid = y - x[g.h_mask]
        expected = (
            float(resid @ resid)
            + 0.7 * float(x @ (g.l_u @ x))
            + 1.3 * float(np.sum((g.l_rd @ x) ** 2))
            + 0.4 * float(np.sum(np.abs(g.l_rd @ x)))
        )
        assert objective(x, y, g, w) == pytest.approx(expected, rel=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PriorWeights(-1, 0, 0)

    def test_mask_mismatch(self):
        g = random_mixed(np.random.default_rng(13))
        with pytest.raises(ValueError):
            objective(np.zeros(g.n_nodes), np.zeros(3), g, PriorWeights(0, 0, 0))


class TestSpectrum:
    def test_identity(self):
        vals, _vecs = dense_spectrum(np.eye(5))
        np.testing.assert_allclose(vals, np.ones(5))

    def test_two_node_laplacian(self):
        vals, _vecs = dense_spectrum(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(vals, [0.0, 2.0], atol=1e-12)

    def test_path4_closed_form(self):
        # path-graph Laplacian eigenvalues are 2 - 2 cos(k pi / N)
        pg = PhysicalGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
        lap = laplacian(build_spatial_skeleton(pg, 2), np.ones((1, 3)))
        expected = sorted(2 - 2 * np.cos(k * np.pi / 4) for k in range(4))
        np.testing.assert_allclose(dense_spectrum(lap)[0], expected, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((30, 30))
        a = a + a.T
        vals, vecs = dense_spectrum(a)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(30)).max() < 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            dense_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_size_limit(self):
        with pytest.raises(ValueError, match="dense limit"):
            dense_spectrum(np.eye(600))

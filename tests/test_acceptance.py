"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The end-to-end criterion (10) is the slow one (about two minutes); all
timing bounds asserted here are generous compared to typical hardware.
"""

import time

import numpy as np
import pytest

from stforecast import data as dmod
from stforecast import oracles
from stforecast.attention import MetricBank, build_mixed_graph, directed_weights, undirected_weights
from stforecast.config import PipelineConfig
from stforecast.graphs import (
    PhysicalGraph,
    build_spatial_skeleton,
    build_temporal_skeleton,
    directed_skeleton_from_edges,
)
from stforecast.pipeline import PipelineContext, Standardizer, evaluate
from stforecast.priors import PriorWeights, dglr, objective
from stforecast.solver import AdmmState, CgSchedule, LayerParams, admm_block, cg_solve, update_zd, update_zu
from stforecast.tuning import tune_spsa
from stforecast.verify import line_graph

from test_graphs import random_mixed, random_walk


def report(num, message):
    print(f"ACCEPTANCE {num:>2} PASS: {message}")


def test_criterion_01_line_digraph_symmetrization_exact():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 33):
        path = np.zeros((n, n))
        for i in range(n - 1):
            path[i, i] += 1
            path[i + 1, i + 1] += 1
            path[i, i + 1] = path[i + 1, i] = -1
        call = line_graph(n).call_rd.toarray()
        worst = max(worst, np.abs(call - path).max())
    elapsed = time.perf_counter() - start
    assert worst == 0.0
    assert elapsed < 1.0
    report(1, f"line graphs N=2..32 exact (max dev {worst}, {elapsed * 1e3:.0f} ms)")


def test_criterion_02_four_node_golden_matrices():
    graph = line_graph(4)
    w_gold = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], float)
    l_gold = np.array(
        [[0, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]], float
    )
    call_gold = np.array(
        [[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]], float
    )
    np.testing.assert_array_equal(graph.w_rd.toarray(), w_gold)
    np.testing.assert_array_equal(graph.l_rd.toarray(), l_gold)
    np.testing.assert_array_equal(graph.call_rd.toarray(), call_gold)
    report(2, "4-node golden matrices entrywise exact")


def test_criterion_03_directionality_examples():
    x = np.array([2.0, 0.0, 1.0])
    fwd = directed_skeleton_from_edges(3, [(0, 2), (1, 2)])
    _, l_fwd = random_walk(fwd, np.ones(2))
    rev = directed_skeleton_from_edges(3, [(2, 0), (2, 1)])
    _, l_rev = random_walk(rev, np.ones(2))
    assert dglr(x, l_fwd) == pytest.approx(0.0, abs=1e-15)
    assert dglr(x, l_rev) == pytest.approx(2.0, abs=1e-12)
    report(3, "parents-average DAG gives 0, reversed DAG gives 2")


def test_criterion_04_prox_oracle_1000_cases():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        shift = rng.uniform(-1.5, 1.5)
        gamma = rng.uniform(-1.5, 1.5)
        mu = rng.uniform(0.0, 2.0)
        rho = rng.uniform(0.5, 3.0)
        delta = shift - gamma / rho
        closed = np.sign(delta) * max(abs(delta) - mu / rho, 0.0)
        grid = oracles.soft_threshold_grid(shift, gamma, mu, rho, step=1e-4)
        worst = max(worst, abs(closed - grid))
    assert worst <= 1e-3
    # closed-form identity cases are exact
    assert np.sign(0.0) * max(0.0 - 0.5, 0.0) == 0.0  # zero input stays zero
    for delta in (-2.0, 0.3, 1.7):
        assert np.sign(delta) * max(abs(delta) - 0.0, 0.0) == delta  # no shrink at mu=0
    report(4, f"1000 soft-threshold cases within 1e-3 of grid argmin (worst {worst:.1e})")


def test_criterion_05_smooth_fixed_points():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        g = random_mixed(
            rng,
            n_stations=int(rng.integers(2, 5)),
            n_instants=int(rng.integers(3, 6)),
            window=2,
            n_observed=2,
        )
        y = rng.standard_normal(int(g.h_mask.sum()))
        w = PriorWeights(rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5), 0.0)
        params = [LayerParams(w.mu_u, w.mu_d2, 0.0, 1.0, 1.0, 1.0)] * 200
        x = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12))
        gap = objective(x, y, g, w) - objective(oracles.smooth_minimizer(g, y, w), y, g, w)
        worst = max(worst, abs(gap))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 5.0
    report(5, f"20 smooth instances within 1e-6 of dense solve (worst {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_06_l1_oracle():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        g = random_mixed(
            rng,
            n_stations=int(rng.integers(2, 5)),
            n_instants=int(rng.integers(3, 6)),
            window=2,
            n_observed=2,
        )
        y = rng.standard_normal(int(g.h_mask.sum()))
        w = PriorWeights(rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2), rng.uniform(0.1, 0.8))
        params = [LayerParams(w.mu_u, w.mu_d2, w.mu_d1, 1.0, 1.0, 1.0)] * 500
        x = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12))
        x_star = oracles.prox_grad_minimizer(g, y, w, step_tol=1e-8)
        gap = objective(x, y, g, w) - objective(x_star, y, g, w)
        worst = max(worst, abs(gap))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    report(6, f"10 l1 instances within 1e-4 of prox-gradient oracle (worst {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_07_spectral_filter_checks():
    rng = np.random.default_rng(104)
    g = random_mixed(rng, n_stations=4, n_instants=16, window=3, n_observed=10)
    assert g.n_nodes == 64
    worst = 0.0
    for _ in range(3):
        state = AdmmState.initial(rng.standard_normal(64), g)
        state.gamma_u = rng.standard_normal(64)
        state.gamma_d = rng.standard_normal(64)
        p = LayerParams(
            rng.uniform(0.5, 2), rng.uniform(0.5, 2), 0.3,
            1.0, rng.uniform(0.5, 2), rng.uniform(0.5, 2),
        )
        sched = CgSchedule.exact(tol=1e-13)
        zu = update_zu(state, g, p, sched)
        zu_want = oracles.spectral_lowpass(
            g.l_u, 2 * p.mu_u / p.rho_u, state.gamma_u / p.rho_u + state.x
        )
        zd = update_zd(state, g, p, sched)
        zd_want = oracles.spectral_lowpass(
            g.call_rd, 2 * p.mu_d2 / p.rho_d, state.gamma_d / p.rho_d + state.x
        )
        worst = max(worst, np.abs(zu - zu_want).max(), np.abs(zd - zd_want).max())
    assert worst < 1e-8
    report(7, f"z-updates match spectral low-pass forms on 64 nodes (worst {worst:.1e})")


def test_criterion_08_cg_against_dense_elimination():
    rng = np.random.default_rng(105)
    worst_res, worst_dev = 0.0, 0.0
    for n in (20, 50, 120, 200):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q @ np.diag(rng.uniform(1.0, 20.0, n)) @ q.T
        b = rng.standard_normal(n)
        x = cg_solve(lambda v: a @ v, b, np.zeros(n), CgSchedule.exact(tol=1e-10))
        worst_res = max(worst_res, np.linalg.norm(a @ x - b))
        worst_dev = max(worst_dev, np.abs(x - oracles.dense_solve(a, b)).max())
    assert worst_res < 1e-8
    assert worst_dev < 1e-8
    report(8, f"SPD systems n<=200: residual {worst_res:.1e}, vs elimination {worst_dev:.1e}")


def test_criterion_09_ablation_consistency():
    rng = np.random.default_rng(106)
    # no_dgtv fixed point equals the full solver at mu_d1 = 0
    worst_abl = 0.0
    for _ in range(3):
        g = random_mixed(rng, n_stations=3, n_instants=4, window=2, n_observed=2)
        y = rng.standard_normal(int(g.h_mask.sum()))
        w = PriorWeights(0.9, 0.7, 0.0)
        params = [LayerParams(0.9, 0.7, 0.0, 1.0, 1.0, 1.0)] * 300
        x_full = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12), "full")
        x_abl = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12), "no_dgtv")
        worst_abl = max(worst_abl, abs(objective(x_full, y, g, w) - objective(x_abl, y, g, w)))
    assert worst_abl < 1e-6

    # undirected-temporal variant converges to its own dense oracle
    n_stations, n_instants = 3, 4
    edges = tuple(
        (i, j, float(rng.uniform(0.5, 2)))
        for i in range(n_stations) for j in range(i + 1, n_stations)
    )
    pg = PhysicalGraph(n_stations, edges)
    sskel = build_spatial_skeleton(pg, 2)
    tskel = build_temporal_skeleton(n_stations, n_instants, 2)
    feats = rng.standard_normal((12, 4))
    bank = MetricBank.default(n_instants, 2, feature_dim=4)
    wu = undirected_weights(feats, sskel, bank.undirected[0])
    wd = directed_weights(feats, tskel, bank.directed[0])
    g = build_mixed_graph(wu, wd, sskel, tskel, n_observed=2, with_undirected_temporal=True)
    y = rng.standard_normal(int(g.h_mask.sum()))
    mu_u, mu_n = 0.8, 0.7
    params = [LayerParams(mu_u, mu_n, 0.0, 1.0, 1.0, 1.0)] * 300
    x = admm_block(g.lift_observed(y), y, g, params, CgSchedule.exact(tol=1e-12), "undirected_temporal")
    x_star = oracles.undirected_temporal_minimizer(g, y, mu_u, mu_n)

    def obj(v):
        resid = y - g.project_observed(v)
        return (
            float(resid @ resid)
            + mu_u * float(v @ (g.l_u @ v))
            + mu_n * float(v @ (g.l_n @ v))
        )

    gap_un = abs(obj(x) - obj(x_star))
    assert gap_un < 1e-6
    report(9, f"no_dgtv gap {worst_abl:.1e}; undirected-temporal oracle gap {gap_un:.1e}")


def test_criterion_10_end_to_end_desk_scale():
    """Default pipeline beats persistence by >= 10%; SPSA (<= 300 iterations,
    here 40) improves the validation Huber loss by >= 5% on its fixed
    validation subset; the whole run stays far under 10 minutes."""
    start = time.perf_counter()
    table, pg = dmod.generate_synthetic(20, 2000, seed=0)
    samples = dmod.cut_windows(table, 12, 6, 3)
    splits = dmod.split_windows(samples, (0.6, 0.2, 0.2))
    train_end = int(np.searchsorted(table.timestamps, splits.train[-1].timestamps[-1])) + 1
    std = Standardizer.fit(table.values[:train_end])
    cfg = PipelineConfig()

    ctx = PipelineContext.build(pg, cfg, standardizer=std)
    rep = evaluate(splits.test, ctx, max_samples=12)
    margin = 1.0 - rep["rmse"] / rep["persistence_rmse"]
    assert margin >= 0.10, f"default pipeline margin {margin:.1%} below 10%"

    best, trace = tune_spsa(
        cfg, pg, splits.val, standardizer=std, iterations=40, eval_samples=4
    )
    improvement = (trace.best_losses[0] - trace.best_losses[-1]) / trace.best_losses[0]
    assert improvement >= 0.05, f"SPSA improvement {improvement:.1%} below 5%"

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        10,
        f"persistence margin {margin:.1%}, SPSA improvement {improvement:.1%}, "
        f"{elapsed:.0f}s total",
    )


def test_criterion_11_graph_invariants():
    rng = np.random.default_rng(107)
    checked = 0
    for _ in range(12):
        g = random_mixed(
            rng,
            n_stations=int(rng.integers(2, 5)),
            n_instants=int(rng.integers(3, 8)),
            window=int(rng.integers(1, 3)),
            n_observed=2,
        )
        if g.n_nodes > 64:
            continue
        checked += 1
        row_sums = np.asarray(g.w_rd.sum(axis=1)).ravel()
        assert np.abs(row_sums - 1.0).max() <= 1e-12
        one = np.ones(g.n_nodes)
        for mat in (g.l_u, g.call_rd):
            assert (mat - mat.T).count_nonzero() == 0  # symmetry exact
            assert np.linalg.eigvalsh(mat.toarray())[0] >= -1e-10
        assert np.abs(g.apply("l_u", one)).max() <= 1e-12
        assert np.abs(g.apply("l_rd", one)).max() <= 1e-12
        assert np.abs(g.apply("call_rd", one)).max() <= 1e-12
    assert checked >= 10
    report(11, f"row-sum/symmetry/PSD/constant checks hold on {checked} graphs")

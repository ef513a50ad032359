"""Every fast path of a forecast against the dense reference forward
(``oracles.reference_forward``): one window and one head at a time, with no
plan, band, fold, lane, Q(A) or workspace."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stforecast import attention, data, graphs, oracles, pipeline, solver, verify
from stforecast.config import HeadSettings, LayerSettings, PipelineConfig, SolverSettings
from stforecast.graphs import PhysicalGraph
from stforecast.pipeline import PipelineContext, Standardizer


def drawn_case(seed, stations, windows, pieces):
    """Seeded windows and road network; with ``pieces``, every road between the
    lower and the upper half of the station ids dropped."""
    d = data.DataSettings()
    table, pg = data.generate_synthetic(stations, d.n_instants + d.stride * (windows - 1), seed)
    if pieces:
        half = stations // 2
        pg = PhysicalGraph(stations, [e for e in pg.edges.tolist()
                                      if (e[0] < half) == (e[1] < half)])
    samples = data.cut_windows(table, d.history, d.horizon, d.stride)[:windows]
    return samples, pg, Standardizer.fit(table.values)


@pytest.mark.filterwarnings("ignore:road graph has")
@given(mode=st.sampled_from(solver.VARIANTS), cg_mode=st.sampled_from(["unrolled", "exact"]),
       blocks=st.sampled_from([1, 2]), layers=st.sampled_from([1, 3, 18]),
       heads=st.sampled_from([1, 2]), stations=st.integers(2, 25),
       cg_iters=st.sampled_from([1, 2, 8]), windows=st.integers(1, 4), table=st.booleans(),
       pieces=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
@example(mode="full", cg_mode="unrolled", blocks=1, layers=18, heads=1, stations=2, cg_iters=8,
         windows=2, table=False, pieces=True, seed=0)
def test_forecasts_equal_the_reference(mode, cg_mode, blocks, layers, heads, stations, cg_iters,
                                       windows, table, pieces, seed):
    # a batch through the fast paths equals the reference to 1e-10 relative
    # in unrolled CG and 1e-8 in exact CG, and in unrolled CG each window of
    # it is bitwise the window alone. ``table``: mu and rho differ in every
    # layer, so that no two layers share a system
    samples, pg, standardizer = drawn_case(seed, stations, windows, pieces)
    rng = np.random.default_rng(seed)
    scalars = {name: rng.uniform(0.5, 4.0 if name.startswith("mu") else 2.0, (blocks, layers))
               for name in ("mu_u", "mu_d2", "mu_d1", "rho", "rho_u", "rho_d")} if table else {}
    cfg = PipelineConfig(solver=SolverSettings(mode=mode, cg_mode=cg_mode, cg_iters=cg_iters),
                         layers=LayerSettings(blocks=blocks, layers=layers, **scalars),
                         heads=HeadSettings(count=heads))
    ctx = PipelineContext.build(pg, cfg, standardizer=standardizer)
    batch = pipeline._forward(samples, ctx)
    tol = 1e-10 if cg_mode == "unrolled" else 1e-8
    for got, want in zip(batch, oracles.reference_forward(samples, ctx), strict=True):
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
    for sample, got in zip(samples, batch):
        assert cg_mode == "exact" or got.tobytes() == pipeline.reconstruct(sample, ctx).tobytes()


def test_the_reference_runs_no_fast_path(monkeypatch):
    # with every fast path refusing to run, the reference still gives the
    # model's forecast (18 layers: x, z_u and z_d take Q(A) in the model)
    samples, pg, standardizer = drawn_case(0, 6, 2, pieces=False)
    cfg = PipelineConfig(layers=LayerSettings(blocks=2, layers=18), heads=HeadSettings(count=1))
    ctx = PipelineContext.build(pg, cfg, standardizer=standardizer)
    want = pipeline._forward(samples, ctx)
    for owner, name in [(attention, "plan_mixed_graph"), (attention, "fill_mixed_graph"),
                        (solver, "block_folds"), (solver, "polynomial_operator"),
                        (solver, "cg_solve"), (solver.Slices, "blocks"),
                        (graphs.Operator, "dot"), (graphs.MixedGraph, "apply")]:
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: pytest.fail("a fast path ran"))
    for got, ref in zip(oracles.reference_forward(samples, ctx), want, strict=True):
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_verify_check_fails_on_swapped_q(monkeypatch):
    # every Q(A) with slices 2i and 2i + 1 swapped (each lane has an even
    # count of them at desk): a batch still equals its windows alone, bit for
    # bit, but no longer the reference
    build = solver.polynomial_operator

    def swapped(stack, *args):
        q = build(stack, *args)
        q[:] = q.reshape(-1, 2, *q.shape[1:])[:, ::-1].copy().reshape(q.shape)
        return q

    monkeypatch.setattr(solver, "polynomial_operator", swapped)
    result = verify.check_reference_forward()
    assert not result.passed
    assert "batch vs alone bitwise unrolled" in result.detail

"""Self-check suite: invariants and oracle agreements, printable as a table.

Each check returns a CheckResult; the CLI ``verify`` subcommand runs them all
and exits nonzero if any fails. The pytest suite covers the same ground (and
more) with assertions; this module exists so a deployed build can be probed
without a test harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracles, pipeline, priors, solver
from .attention import (
    MetricBank,
    build_mixed_graph,
    directed_weights,
    embed,
    fill_mixed_graph,
    orient_columns,
    plan_mixed_graph,
    smallest_eigenpairs,
    undirected_weights,
)
from .config import HeadSettings, LayerSettings, PipelineConfig, SolverSettings
from .data import cut_windows, generate_synthetic, split_dataset
from .graphs import (
    MixedGraph,
    PhysicalGraph,
    assemble_random_walk_digraph,
    build_spatial_skeleton,
    build_temporal_skeleton,
    directed_skeleton_from_edges,
    plan_random_walk_digraph,
    unit_laplacian,
)
from .priors import PriorWeights
from .solver import CgSchedule, LayerParams, admm_block, cg_solve


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def line_graph(n: int) -> MixedGraph:
    """Directed line over n nodes, unit weights, unit self-loop at the source,
    as a forecast's graph: one station's n instants, window 1."""
    sskel = build_spatial_skeleton(PhysicalGraph(1, ()), 1)
    plan = plan_mixed_graph(sskel, build_temporal_skeleton(1, n, 1), 1, 1, False)
    return fill_mixed_graph(plan, np.zeros((n, 0)), np.ones(n - 1))


def path_laplacian(n: int) -> np.ndarray:
    lap = np.zeros((n, n))
    for i in range(n - 1):
        lap[i, i] += 1
        lap[i + 1, i + 1] += 1
        lap[i, i + 1] -= 1
        lap[i + 1, i] -= 1
    return lap


def random_mixed_graph(
    rng: np.random.Generator,
    n_stations: int = 3,
    n_instants: int = 4,
    window: int = 2,
    n_observed: int = 2,
    k: int = 2,
) -> MixedGraph:
    """Small random instance with positive attention-style weights."""
    pos = rng.uniform(size=(n_stations, 2))
    edges = tuple(
        (i, j, float(np.hypot(*(pos[i] - pos[j]))))
        for i in range(n_stations)
        for j in range(i + 1, n_stations)
    )
    pg = PhysicalGraph(n_stations, edges)
    sskel = build_spatial_skeleton(pg, min(k, n_stations - 1))
    tskel = build_temporal_skeleton(n_stations, n_instants, window)
    feats = rng.standard_normal((n_stations * n_instants, 4))
    bank = MetricBank.default(n_instants, window, feature_dim=4, heads=1)
    wu = undirected_weights(feats, sskel, bank.undirected[0])
    wd = directed_weights(feats, tskel, bank.directed[0])
    return build_mixed_graph(wu, wd, sskel, tskel, n_observed)


def check_line_graph_symmetrization() -> CheckResult:
    """Symmetrized DAG operator of a directed line == undirected path Laplacian."""
    worst = 0.0
    for n in range(2, 33):
        call = line_graph(n).call_rd.toarray()
        worst = max(worst, float(np.abs(call - path_laplacian(n)).max()))
    return CheckResult(
        "line-digraph symmetrization equals path Laplacian (N=2..32)",
        worst == 0.0,
        f"max entrywise deviation {worst:.1e}",
    )


def check_four_node_line_matrices() -> CheckResult:
    """Golden 4-node directed-line operators, entrywise."""
    graph = line_graph(4)
    w_gold = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
    l_gold = np.eye(4) - w_gold
    call_gold = np.array(
        [[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]], dtype=float
    )
    dev = max(
        float(np.abs(graph.w_rd.toarray() - w_gold).max()),
        float(np.abs(graph.l_rd.toarray() - l_gold).max()),
        float(np.abs(graph.call_rd.toarray() - call_gold).max()),
    )
    return CheckResult("4-node line golden matrices", dev == 0.0, f"max deviation {dev:.1e}")


def check_directionality() -> CheckResult:
    """The l2 temporal prior respects edge direction on a 3-node DAG."""
    x = np.array([2.0, 0.0, 1.0])
    fwd, rev = (  # parents 0 and 1 averaged into 2, then the edges reversed
        priors.dglr(x, assemble_random_walk_digraph(plan_random_walk_digraph(
            directed_skeleton_from_edges(3, edges)), np.ones(2)).matrix())
        for edges in ([(0, 2), (1, 2)], [(2, 0), (2, 1)]))
    ok = abs(fwd) < 1e-15 and abs(rev - 2.0) < 1e-12
    return CheckResult(
        "directionality: parents-average vs reversed DAG",
        ok,
        f"forward {fwd:.2e} (want 0), reversed {rev:.6f} (want 2)",
    )


def check_soft_threshold(n_cases: int = 1000, seed: int = 11) -> CheckResult:
    """``solver.update_phi`` on one entry matches scalar grid search."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        # draws keep the optimum strictly inside the [-5, 5] grid
        shift = rng.uniform(-1.5, 1.5)
        gamma = rng.uniform(-1.5, 1.5)
        mu = rng.uniform(0, 2)
        rho = rng.uniform(0.5, 3)
        phi = solver.update_phi(np.array([shift]), np.array([gamma]),
                                LayerParams(0, 0, mu, rho, 1, 1))[0]
        grid = oracles.soft_threshold_grid(shift, gamma, mu, rho, step=1e-3)
        worst = max(worst, abs(phi - grid))
    return CheckResult(
        f"update_phi soft-threshold vs grid argmin ({n_cases} cases)",
        worst <= 1e-3 + 1e-9,
        f"max |update_phi - grid| = {worst:.2e}",
    )


def check_cg_against_dense(seed: int = 3) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (20, 80, 200):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q @ np.diag(rng.uniform(1.0, 10.0, n)) @ q.T
        b = rng.standard_normal(n)
        x = cg_solve(lambda v: a @ v, b, np.zeros(n), CgSchedule.exact(tol=1e-10))
        worst = max(worst, float(np.abs(x - oracles.dense_solve(a, b)).max()))
    return CheckResult(
        "exact CG vs dense elimination (n<=200)", worst < 1e-8, f"max deviation {worst:.1e}"
    )


def check_spectral_filters(seed: int = 5) -> CheckResult:
    """z-updates equal their eigendecomposition low-pass forms."""
    rng = np.random.default_rng(seed)
    graph = random_mixed_graph(rng, n_stations=4, n_instants=5, window=2, n_observed=3)
    n = graph.n_nodes
    p = LayerParams(mu_u=1.3, mu_d2=0.7, mu_d1=0.5, rho=1.0, rho_u=0.9, rho_d=1.1)
    state = solver.AdmmState.initial(rng.standard_normal(n), graph)
    state.gamma_u = rng.standard_normal(n)
    state.gamma_d = rng.standard_normal(n)
    sched = CgSchedule.exact(tol=1e-13)
    zu = solver.update_zu(state, graph, p, sched)
    zu_oracle = oracles.spectral_lowpass(
        graph.l_u, 2.0 * p.mu_u / p.rho_u, state.gamma_u / p.rho_u + state.x
    )
    zd = solver.update_zd(state, graph, p, sched)
    zd_oracle = oracles.spectral_lowpass(
        graph.call_rd, 2.0 * p.mu_d2 / p.rho_d, state.gamma_d / p.rho_d + state.x
    )
    dev = max(float(np.abs(zu - zu_oracle).max()), float(np.abs(zd - zd_oracle).max()))
    return CheckResult("z-updates match spectral low-pass forms", dev < 1e-8, f"max dev {dev:.1e}")


def check_smooth_fixed_point(n_instances: int = 5, seed: int = 9) -> CheckResult:
    """ADMM with exact CG reaches the dense minimizer of the smooth objective."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        graph = random_mixed_graph(rng, n_stations=3, n_instants=4, window=2, n_observed=2)
        y = rng.standard_normal(int(graph.h_mask.sum()))
        w = PriorWeights(mu_u=0.8, mu_d2=0.6, mu_d1=0.0)
        params = [
            LayerParams(w.mu_u, w.mu_d2, 0.0, rho=1.0, rho_u=1.0, rho_d=1.0)
        ] * 200
        x = admm_block(
            graph.lift_observed(y), y, graph, params, CgSchedule.exact(tol=1e-12)
        )
        gap = priors.objective(x, y, graph, w) - priors.objective(
            oracles.smooth_minimizer(graph, y, w), y, graph, w
        )
        worst = max(worst, abs(gap))
    return CheckResult(
        f"smooth-case ADMM objective vs dense oracle ({n_instances} instances)",
        worst < 1e-6,
        f"max objective gap {worst:.1e}",
    )


def check_graph_invariants(seed: int = 13, n_graphs: int = 10) -> CheckResult:
    rng = np.random.default_rng(seed)
    msgs = []
    ok = True
    for _ in range(n_graphs):
        g = random_mixed_graph(
            rng,
            n_stations=int(rng.integers(2, 5)),
            n_instants=int(rng.integers(3, 6)),
            window=2,
            n_observed=2,
        )
        row_sums = np.asarray(g.w_rd.sum(axis=1)).ravel()
        if np.abs(row_sums - 1.0).max() > 1e-12:
            ok, msgs = False, msgs + ["row sums"]
        for mat in (g.l_u, g.call_rd):
            if (mat - mat.T).count_nonzero() != 0:
                ok, msgs = False, msgs + ["symmetry"]
            if np.linalg.eigvalsh(mat.toarray())[0] < -1e-10:
                ok, msgs = False, msgs + ["PSD"]
        one = np.ones(g.n_nodes)
        if np.abs(g.apply("l_u", one)).max() > 1e-12:
            ok, msgs = False, msgs + ["L_u constant"]
        if np.abs(g.apply("call_rd", one)).max() > 1e-12:
            ok, msgs = False, msgs + ["temporal constant"]
    return CheckResult(
        f"graph invariants on {n_graphs} random builds",
        ok,
        "all hold" if ok else "violated: " + ", ".join(sorted(set(msgs))),
    )


def check_sparse_eigenmap(n_stations: int = 300, dim: int = 5, seed: int = 17,
                          pieces: tuple[int, ...] = (40, 60, 90)) -> CheckResult:
    """The eigenmap solve agrees with dense ``eigh`` on seeded road graphs, to 1e-10.

    On a connected ``n_stations``-station graph, solved by shift-invert
    Lanczos, the eigenpairs must match vector by vector. On separate road
    networks of ``pieces`` stations side by side, each solved by a stacked
    dense ``eigh``, the eigenvalues and the space the vectors span must match:
    each component adds a copy of eigenvalue 0, and dense ``eigh`` of the
    whole graph mixes the copies. ``dim + 1`` splits no repeated eigenvalue
    of the default pieces.
    """
    _table, pg = generate_synthetic(n_stations, 1, seed)
    tables, offset = [], 0
    for k, size in enumerate(pieces):
        table = generate_synthetic(size, 1, seed + 1 + k)[1].edges.copy()
        table["from"] += offset
        table["to"] += offset
        tables.append(table)
        offset += size
    dev = 0.0
    for graph, by_vector in ((pg, True), (PhysicalGraph(offset, np.concatenate(tables)), False)):
        lap = unit_laplacian(graph)
        d_vals, d_vecs = oracles.dense_spectrum(lap)
        d_vals, d_vecs = d_vals[: dim + 1], d_vecs[:, : dim + 1]
        s_vals, s_vecs = smallest_eigenpairs(lap, dim + 1)
        if by_vector:
            gap = orient_columns(s_vecs) - orient_columns(d_vecs)
        else:
            gap = s_vecs @ s_vecs.T - d_vecs @ d_vecs.T
        dev = max(dev, float(np.abs(s_vals - d_vals).max()), float(np.abs(gap).max()))
    return CheckResult(
        f"eigenmap solve vs dense eigh ({n_stations}-station road graph; "
        f"{len(pieces)} separate networks)",
        dev <= 1e-10,
        f"max deviation {dev:.1e}",
    )


def _lane_rows(mat, lane: int, size: int):
    """Lane ``lane``'s rows of a lane-stacked CSR operator, with lane-local columns."""
    lo, hi = mat.indptr[lane * size], mat.indptr[(lane + 1) * size]
    indptr = mat.indptr[lane * size : (lane + 1) * size + 1] - lo
    return indptr, mat.indices[lo:hi] - lane * size, mat.data[lo:hi]


def _desk_starts(seed: int):
    """The set-up of the lane and plan checks: the default model in the
    undirected-temporal mode on seeded desk data (20 stations), its context,
    and the start signals and instants of its first two windows."""
    cfg = PipelineConfig()
    cfg.solver.mode = "undirected_temporal"
    table, pg = generate_synthetic(20, 2000, seed)
    samples = cut_windows(table, cfg.data.history, cfg.data.horizon, cfg.data.stride)[:2]
    ctx = pipeline.PipelineContext.build(pg, cfg)
    starts = [pipeline.initial_signal(s, ctx) for s in samples]
    return cfg, pg, ctx, [x for x, _, _ in starts], [t for _, _, t in starts]


def check_lanes_and_folds(seed: int = 0) -> CheckResult:
    """Stacked windows and heads equal each built alone; folded CG systems equal their products.

    On the seeded desk graph (20 stations, the default model in the
    undirected-temporal mode, so that ``l_n`` is built too, and its first two
    windows), each lane of every operator of ``multi_head_graphs`` must
    equal, bit for bit, the graph of that window and head built alone, and
    every folded system of the first block's layer scalars, in every solver
    variant, applied by its ``graphs.Operator`` as the solver applies it (the
    temporal ones by the DIA kernel on their band), must equal its unfolded
    operator products to 1e-13 relative, and its CSR view's product byte
    for byte.
    """
    cfg, pg, ctx, xs, t_steps = _desk_starts(seed)
    graph = pipeline.block_graph(ctx, xs, t_steps)
    size = graph.n_nodes // graph.lanes
    mismatched = []
    for lane in range(graph.lanes):
        w, h = divmod(lane, ctx.bank.heads)
        alone = pipeline.block_graph(ctx, xs[w : w + 1], t_steps[w : w + 1], bank=ctx.bank.head(h))
        for name in ("l_u", "w_rd", "l_rd", "l_rd_t", "call_rd", "l_n"):
            got, want = _lane_rows(getattr(graph, name), lane, size), getattr(alone, name)
            same = all(
                a.tobytes() == b.tobytes()
                for a, b in zip(got, (want.indptr, want.indices, want.data))
            )
            if not same:
                mismatched.append(f"window {w} head {h} {name}")

    p = cfg.layers.layer_params(0, cfg.default_rho(pg.n_stations))[0]
    folds = {}
    for terms in solver.TERMS.values():
        folds.update(solver.block_folds(graph, [p], terms, CgSchedule.exact()))
    v = np.random.default_rng(seed).standard_normal(graph.n_nodes)
    worst = 0.0
    unequal = []
    for (ops, shift, observed), (fold, _) in folds.items():
        want = shift * v + sum(coef * (getattr(graph, name) @ v) for name, coef in ops)
        scale = (abs(shift) + 1.0) * np.abs(v) + sum(
            abs(coef) * (abs(getattr(graph, name)) @ np.abs(v)) for name, coef in ops
        )
        if observed:
            want[graph.h_mask] += v[graph.h_mask]
        got = fold.dot(v)
        worst = max(worst, float(np.abs(got - want).max() / scale.max()))
        if got.tobytes() != (fold.matrix() @ v).tobytes():
            unequal.append("+".join(name for name, _ in ops) or "identity")
    banded = sum(fold.data.ndim == 2 for fold, _ in folds.values())
    if mismatched:
        detail = f"lanes differ: {', '.join(mismatched)}"
    elif unequal:
        detail = f"fold products differ from their CSR views': {', '.join(unequal)}"
    else:
        detail = (f"lanes bitwise equal; folds max relative deviation {worst:.1e}, each "
                  f"product byte-equal to its CSR view's ({banded} of {len(folds)} on a band)")
    return CheckResult(
        f"lane-stacked assembly and folded CG systems ({len(xs)} windows x "
        f"{ctx.bank.heads} heads, desk graph)",
        not mismatched and not unequal and worst <= 1e-13,
        detail,
    )


def check_planned_assembly(seed: int = 0) -> CheckResult:
    """Operators filled into the context's plans equal the direct COO assembly, bit for bit.

    On the seeded desk graph (20 stations): the first window's graph in the
    default mode (4 lanes, no ``l_n``), and in the undirected-temporal mode
    the first two windows' graphs, once each and together (8 lanes), and the
    first window's again on a reused plan. Each operator must equal
    ``oracles.coo_operators`` of the same weights in every index dtype and
    byte, W_r as I - L_r, and hold its plan's ``Pattern``, each temporal one
    (L_r, L_r', L_r'L_r, ``l_n``) as its band's diagonals. ``MixedGraph.apply``
    of L_r and L_r' (scipy's DIA kernel) must equal the reference's CSR
    products byte for byte, on a vector with exact zeros of both signs.
    """
    _, pg, ctx, xs, t_steps = _desk_starts(seed)
    default = pipeline.PipelineContext.build(pg, PipelineConfig())
    rng = np.random.default_rng(seed)
    mismatched, graphs = [], 0
    for c, pick in [(default, [0]), *((ctx, pick) for pick in ([0], [1], [0, 1], [0]))]:
        graph = pipeline.block_graph(c, [xs[i] for i in pick], [t_steps[i] for i in pick])
        plan = next(p for p in c.plans.values() if p.lanes == graph.lanes)
        feats = np.stack([c.feature_map(embed(xs[i], t_steps[i], c.eigmap)) for i in pick])
        want = oracles.coo_operators(
            c.sskel, c.tskel, undirected_weights(feats, c.sskel, c.bank.undirected),
            directed_weights(feats, c.tskel, c.bank.directed), with_l_n=c is ctx,
        )
        v = rng.standard_normal(graph.n_nodes)
        v[::7], v[3::11] = -0.0, 0.0
        at = f"{c.config.solver.mode} windows {pick}"
        graphs += 1
        mismatched += [f"{at} {name} off its plan" for name, op in graph.ops.items()
                       if op.pattern is not plan.patterns[name]]
        mismatched += [f"{at} {name} off its band" for name, op in graph.ops.items()
                       if name != "l_u" and not op.banded]
        mismatched += [f"{at} {name}" for name, mat in want.items()
                       if not _same_csr(getattr(graph, name), mat)]
        mismatched += [f"{at} {name} product" for name in ("l_rd", "l_rd_t")
                       if graph.apply(name, v).tobytes() != (want[name] @ v).tobytes()]
    return CheckResult(
        f"planned operator assembly vs the COO reference ({graphs} desk graphs, "
        f"{len(default.plans) + len(ctx.plans)} plans)",
        not mismatched and len(default.plans) == 1 and len(ctx.plans) == 2,
        f"operators differ: {', '.join(mismatched)}" if mismatched
        else "every operator bitwise equal in each graph and on its plan, the temporal ones "
             "on their bands; L_r x and L_r' v byte-equal",
    )


def _same_csr(got, want) -> bool:
    """Whether two CSR matrices match in each index array's dtype and every byte."""
    return all(getattr(got, part).dtype == getattr(want, part).dtype
               and getattr(got, part).tobytes() == getattr(want, part).tobytes()
               for part in ("indptr", "indices", "data"))


def check_reference_forward(seed: int = 0) -> CheckResult:
    """Forecasts equal the dense reference forward; a batch equals its windows alone.

    Two of the 12 criterion-10 desk windows, in one batch: the default model
    (5 x 25 x 4, unrolled), whose first block takes Q(A) in every CG system,
    and a one-head model in every solver variant must match
    ``oracles.reference_forward`` to 1e-10 relative, a one-block, five-layer
    model in exact CG to 1e-8. Each window of the default batch must equal
    the window alone bit for bit, of the exact one to 1e-8 raw units (exact
    CG runs one CG over the stack). Two windows, not 12: the reference
    takes about 0.5 s a window of the default model at one BLAS thread.
    """
    default = PipelineConfig()
    table, pg = generate_synthetic(20, 2000, seed)
    splits, standardizer = split_dataset(table, default.data)
    windows = pipeline.evenly_spaced_subset(pipeline.evenly_spaced_subset(splits.test, 12), 2)
    exact = PipelineConfig(solver=SolverSettings(cg_mode="exact"),
                           layers=LayerSettings(blocks=1, layers=5))
    gaps, alone = {"unrolled": [], "exact": []}, {}
    for cfg in (default, exact, *(PipelineConfig(solver=SolverSettings(mode=mode),
                                                 heads=HeadSettings(count=1))
                                  for mode in solver.VARIANTS)):
        ctx = pipeline.PipelineContext.build(pg, cfg, standardizer=standardizer)
        batch, want = pipeline._forward(windows, ctx), oracles.reference_forward(windows, ctx)
        gaps[cfg.solver.cg_mode] += [float(np.abs(b - r).max() / np.abs(r).max())
                                     for b, r in zip(batch, want)]
        if cfg is default or cfg is exact:
            alone[cfg.solver.cg_mode] = [(b, pipeline.reconstruct(w, ctx))
                                         for b, w in zip(batch, windows)]
        if cfg is default:
            x, _, t_steps = pipeline.initial_signal(windows[0], ctx)
            folds = solver.block_folds(pipeline.block_graph(ctx, [x], [t_steps]),
                                       cfg.layers.layer_params(0, cfg.default_rho(pg.n_stations)),
                                       solver.TERMS[cfg.solver.mode], cfg.solver.schedule())
    polynomials = sum(g is not None for _, g in folds.values())
    bitwise = all(b.tobytes() == a.tobytes() for b, a in alone["unrolled"])
    exact_alone = max(float(np.abs(b - a).max()) for b, a in alone["exact"])
    unrolled, exact_gap = max(gaps["unrolled"]), max(gaps["exact"])
    return CheckResult(
        f"forecasts vs the dense reference forward ({len(windows)} criterion-10 windows, "
        f"6 unrolled models and 1 exact); a batch vs its windows alone",
        unrolled <= 1e-10 and exact_gap <= 1e-8 and polynomials == len(folds) and bitwise
        and exact_alone <= 1e-8,
        f"max relative deviation unrolled {unrolled:.1e}, exact {exact_gap:.1e}; Q(A) in "
        f"{polynomials} of {len(folds)} default systems; batch vs alone "
        f"{'bitwise' if bitwise else 'NOT bitwise'} unrolled, max deviation "
        f"{exact_alone:.1e} exact",
    )


ALL_CHECKS = (
    check_line_graph_symmetrization,
    check_four_node_line_matrices,
    check_directionality,
    check_soft_threshold,
    check_cg_against_dense,
    check_spectral_filters,
    check_smooth_fixed_point,
    check_graph_invariants,
    check_sparse_eigenmap,
    check_lanes_and_folds,
    check_planned_assembly,
    check_reference_forward,
)


def run_all() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]

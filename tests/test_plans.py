"""Planned operator assembly: the plan-and-fill operators against the direct
COO assembly, the +0.0 a plan keeps where scipy drops a zero, and plan
reuse in the forward pass and the tuner."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import _compressed

from stforecast import attention, data, graphs, pipeline, solver, tuning
from stforecast.attention import build_mixed_graph, fill_mixed_graph, plan_mixed_graph
from stforecast.config import LayerSettings, PipelineConfig
from stforecast.graphs import (
    DegenerateDegreeError,
    MixedGraph,
    Pattern,
    PhysicalGraph,
    assemble_random_walk_digraph,
    build_spatial_skeleton,
    build_temporal_skeleton,
    directed_skeleton_from_edges,
    plan_random_walk_digraph,
)
from stforecast.oracles import coo_operators
from stforecast.solver import (TERMS, VARIANTS, CgSchedule, LayerParams, block_folds, cg_solve,
                               folded_system)

from test_lanes import (FINITE, csr_operator, dropped_zero_graph, kernel_calls,
                        planned_graph, split_skeleton_inputs)

# the operators a graph holds, those some solver step applies, l_n last
OPERATORS = ("l_u", "l_rd", "l_rd_t", "call_rd", "l_n")
# and the reference's, W_r among them: a graph reads it as I - L_r
REFERENCE = ("w_rd",) + OPERATORS


def assert_bitwise(got: sp.csr_matrix, want: sp.csr_matrix, name: str):
    assert got.shape == want.shape, name
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)


def assert_matches_reference(graph, sskel, tskel, wu, wd, with_l_n) -> set:
    """Assert that each operator's CSR view equals ``coo_operators`` bit for
    bit, index dtypes included, on every entry the reference stores, and
    holds +0.0 on the rest; the names of the operators that hold such a rest.
    W_r, read as I - L_r, stores no exact 0.0 at all: it equals the
    reference with its exact zeros eliminated, which only an underflowed
    walk weight makes."""
    want = coo_operators(sskel, tskel, wu, wd, with_l_n)
    assert set(want) == set(REFERENCE if with_l_n else REFERENCE[:-1])
    assert set(graph.ops) == set(OPERATORS if with_l_n else OPERATORS[:-1])
    if not with_l_n:
        assert graph.l_n is None
    want["w_rd"].eliminate_zeros()
    kept = set()
    for name, mat in want.items():
        got = getattr(graph, name)
        if got.nnz == mat.nnz:
            assert_bitwise(got, mat, name)
            continue
        kept.add(name)
        assert got.shape == mat.shape and got.indices.dtype == mat.indices.dtype, name
        n = got.shape[0]
        keys = [np.repeat(np.arange(n), np.diff(m.indptr)) * n + m.indices for m in (got, mat)]
        at = np.searchsorted(keys[0], keys[1])
        assert np.array_equal(keys[0][at], keys[1]), name
        assert got.data[at].tobytes() == mat.data.tobytes(), name
        rest = np.delete(got.data, at)
        assert len(rest) and rest.tobytes() == bytes(rest.nbytes), name
    return kept


class TestPlannedAssembly:
    @given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 3, 4, 8)), st.booleans(),
           st.sampled_from((None, -1)), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_coo_reference(self, seed, lanes, with_l_n, window, wide, data):
        # stations in several spatial pieces, some isolated; short windows
        # and the longest, one less than the instants; walk weights over
        # many orders of magnitude, so that every sum's order shows
        rng = np.random.default_rng(seed)
        wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(rng, lanes, window)
        if wide:
            wd = np.exp(rng.uniform(-20.0, 20.0, wd.shape))
        graph = build_mixed_graph(wu, wd, sskel, tskel, n_observed, with_l_n)
        assert graph.lanes == lanes
        kept = assert_matches_reference(graph, sskel, tskel, wu, wd, with_l_n)
        assert not (wide and kept), kept  # such weights cancel and underflow nowhere
        # the temporal operators stay bands, applied by the DIA kernel, and
        # each product is the reference's byte for byte
        for name in ("l_rd", "l_rd_t", "call_rd", "l_n"):
            assert name not in graph.ops or graph.ops[name].banded, name
        want = coo_operators(sskel, tskel, wu, wd, with_l_n)
        v = np.array(data.draw(st.lists(FINITE, min_size=graph.n_nodes, max_size=graph.n_nodes)))
        for name in ("l_rd", "l_rd_t", "call_rd"):
            with kernel_calls() as calls:
                got = graph.apply(name, v)
            assert calls == ["dia_matvec"], name
            assert got.tobytes() == (want[name] @ v).tobytes(), name

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
            assert set(plan.patterns) == set(OPERATORS)
            # l_n shares L_r'L_r's pattern: every pair of a station's nodes within the window
            assert plan.patterns["l_n"] is plan.patterns["call_rd"]
            for name in OPERATORS:
                assert graph.ops[name].pattern is plan.patterns[name], name
                assert np.shares_memory(getattr(graph, name).indices, plan.patterns[name].indices)
            assert graph.h_mask is plan.h_mask

    def test_zero_spatial_weights_stored(self):
        # a zero weight stores -0.0 off the diagonal, as the reference does
        rng = np.random.default_rng(6)
        wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(rng, 2)
        wu[..., ::2] = 0.0
        graph = build_mixed_graph(wu, wd, sskel, tskel, n_observed, False)
        assert_matches_reference(graph, sskel, tskel, wu, wd, False)

    @pytest.mark.parametrize("n_stations", [1, 3])
    def test_edgeless_l_u_stores_its_zero_diagonal(self, n_stations):
        # one station, or stations without roads: D - W is its diagonal of
        # +0.0, as the reference's general formula gives it, and the l_u
        # fold adds to it on the plan's pattern
        sskel = build_spatial_skeleton(PhysicalGraph(n_stations, ()), 1)
        tskel = build_temporal_skeleton(n_stations, 4, 2)
        plan = plan_mixed_graph(sskel, tskel, 2, 2, False)
        wu, wd = np.zeros((2, 4, 0)), np.ones((2, tskel.n_edges))
        graph = fill_mixed_graph(plan, wu, wd)
        l_u = graph.ops["l_u"]
        assert l_u.pattern is plan.patterns["l_u"]
        np.testing.assert_array_equal(l_u.pattern.indices, np.arange(graph.n_nodes))
        assert l_u.data.tobytes() == bytes(l_u.data.nbytes)  # +0.0, not -0.0
        assert "l_u" not in assert_matches_reference(graph, sskel, tskel, wu, wd, False)
        fold = folded_system(graph, (("l_u", 0.7),), 0.3, False)
        assert fold.pattern is l_u.pattern
        np.testing.assert_array_equal(fold.data, np.full(graph.n_nodes, 0.3))

    def test_lane_count_must_match_the_plan(self):
        wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(np.random.default_rng(7), 2)
        plan = plan_mixed_graph(sskel, tskel, 3, n_observed, False)
        with pytest.raises(ValueError, match="2 lanes for a plan of 3"):
            fill_mixed_graph(plan, wu, wd)


class TestPlannedPatterns:
    """A plan's patterns are final: every filled operator holds its plan's
    pattern, an entry that comes out exactly 0.0 stored as +0.0 where the
    COO reference stores none, and that +0.0 adds nothing to a product."""

    @staticmethod
    def check(plan, graph):
        """Assert that every operator holds its plan's ``Pattern`` object."""
        assert set(graph.ops) == set(plan.patterns)
        for name, op in graph.ops.items():
            assert op.pattern is plan.patterns[name], name

    @given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 3, 8)), st.booleans(),
           st.sampled_from(("plain", "underflowing", "cancelling")), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_operator_holds_its_plans_pattern(self, seed, lanes, with_l_n, draw, data):
        # the window pattern's edges too: one station, whose diagonals d N
        # are next to each other, and the longest window, cut at both ends
        rng = np.random.default_rng(seed)
        wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(rng, lanes, data.draw(
            st.sampled_from((None, -1))), data.draw(st.sampled_from((None, 1))))
        if draw == "underflowing":  # walk weights that round to 0.0 in L_r, call_rd and l_n
            wd = np.where(rng.uniform(size=wd.shape) < 0.3, 5e-324, 1e3 * wd)
        elif draw == "cancelling":  # dyadic weights whose L_r'L_r sums can come out 0.0
            wd = cancelling_weights(rng, tskel, lanes)
        plan = plan_mixed_graph(sskel, tskel, lanes, n_observed, with_l_n)
        # the closed-form window pattern is that of L_r'L_r with ones for
        # values, whose sums cancel nowhere: scipy's product, band included
        ones = plan.walk.l_rd.matrix(np.ones(plan.walk.l_rd.nnz))
        product = ones.T.tocsr() @ ones
        product.sort_indices()
        got, want = plan.temporal, csr_operator(product).pattern.banded()
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.band.offsets, want.band.offsets), (got.band.which, want.band.which)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        graph = fill_mixed_graph(plan, wu, wd)
        self.check(plan, graph)
        assert_matches_reference(graph, sskel, tskel, wu, wd, with_l_n)
        want = coo_operators(sskel, tskel, wu, wd, with_l_n)
        v = np.array(data.draw(st.lists(FINITE, min_size=graph.n_nodes, max_size=graph.n_nodes)))
        for name in graphs.OPERATOR_NAMES:
            got = graph.apply(name, v)
            assert got.tobytes() == (getattr(graph, name) @ v).tobytes(), name
            assert got.tobytes() == (want[name] @ v).tobytes(), name
        p = LayerParams(*rng.uniform(0.1, 2.0, 3), *rng.uniform(0.5, 2.0, 3))
        for mode in VARIANTS:
            if TERMS[mode].temporal == "l_n" and not with_l_n:
                continue
            for layers in (1, 5):  # the recurrence's folds, and Q(A)'s where reuse pays
                for key, (fold, _) in block_folds(graph, [p] * layers, TERMS[mode],
                                                  CgSchedule.unrolled()).items():
                    assert fold.dot(v).tobytes() == (fold.matrix() @ v).tobytes(), (mode, key)

    @pytest.mark.parametrize("which,off_plan", [
        ("cancelling_call_rd", {"call_rd"}),
        ("underflowing_walk_weight", {"l_rd", "l_rd_t", "call_rd", "l_n"}),
        ("covered_walk_drop", {"l_rd", "l_rd_t", "l_n"}),
    ])
    def test_dropped_zero_graphs(self, which, off_plan):
        # ``off_plan``: the operators whose COO reference leaves the plan's
        # pattern, each dropping a 0.0 that the planned operator keeps
        plan, graph, inputs = dropped_zero_graph(which)
        self.check(plan, graph)
        assert assert_matches_reference(graph, *inputs, "l_n" in graph.ops) == off_plan


    def test_verify_check_needs_operators_on_their_plan(self, monkeypatch):
        # L_r' on a copy of its plan's pattern: the same bits, another object
        from stforecast import verify

        transpose = attention.band_transpose

        def on_a_copy(op, pattern):
            out = transpose(op, pattern)
            return graphs.Operator(Pattern(pattern.indptr, pattern.indices, pattern.band),
                                   out.data)

        monkeypatch.setattr(attention, "band_transpose", on_a_copy)
        result = verify.check_planned_assembly()
        assert not result.passed
        assert result.detail.startswith("operators differ: full windows [0] l_rd_t off its plan")


def cancelling_weights(rng, tskel, lanes):
    """Temporal weights, each child's 1/2, 1/4, ... and the last repeated, in a
    random order: they sum to exactly 1, and sums of their products cancel."""
    out = np.empty((lanes, tskel.n_edges))
    for child in np.unique(tskel.dst):
        edges = np.flatnonzero(tskel.dst == child)
        halves = 0.5 ** np.minimum(np.arange(1, len(edges) + 1), len(edges) - 1)
        for lane in range(lanes):
            out[lane, edges] = rng.permutation(halves)
    return out


class TestPlannedErrors:
    def setup_method(self):
        self.wu, self.wd, self.sskel, self.tskel, self.n_observed = split_skeleton_inputs(
            np.random.default_rng(8), 2
        )
        self.plan = plan_mixed_graph(self.sskel, self.tskel, 2, self.n_observed, True)

    def test_negative_spatial_weight(self):
        for bad in (-0.5, np.nan, np.inf):
            wu = self.wu.copy()
            wu[1, 0, 0] = bad
            with pytest.raises(ValueError, match="non-finite or negative edge weight"):
                fill_mixed_graph(self.plan, wu, self.wd)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
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

    @pytest.mark.parametrize("name", ["l_u", "call_rd", "l_n"])
    @pytest.mark.parametrize("bad", ["size", "count", "missing"])
    def test_graph_refuses_a_pattern_that_is_not_its_operators(self, name, bad):
        # an operator is given on a pattern of its graph's size ("size", by
        # ``MixedGraph``), with one value an entry ("count") or the
        # diagonals of the band the pattern has ("missing": the band left
        # out, the values given as its diagonals), by ``Operator``
        graph = fill_mixed_graph(self.plan, self.wu, self.wd)
        pattern, n = graph.ops[name].pattern, graph.n_nodes
        values, nnz = graph.ops[name].entries(), pattern.nnz
        if bad == "size":
            pattern = Pattern(pattern.indptr[:-1], pattern.indices)
            match = rf"^{name} has shape \({n - 1}, {n - 1}\), expected \({n}, {n}\)$"
        elif bad == "count":
            pattern = Pattern(pattern.indptr, pattern.indices[:-1])
            match = (rf"^an operator of {nnz - 1} entries needs as many float64 values, "
                     rf"got float64 \({nnz},\)$")
        else:
            values = np.zeros((len(pattern.banded().band.offsets), n))
            pattern = Pattern(pattern.indptr, pattern.indices)
            match = (rf"^an operator of {nnz} entries needs as many float64 values, "
                     rf"got float64 \({len(values)}, {n}\)$")
        ops = dict(graph.ops)
        with pytest.raises(ValueError, match=match):
            ops[name] = graphs.Operator(pattern, values)
            MixedGraph(graph.n_stations, graph.n_instants, graph.lanes, graph.h_mask, **ops)

    @pytest.mark.parametrize("name", OPERATORS)
    @pytest.mark.parametrize("given", ["csr", "operator"])
    def test_graph_refuses_an_operator_of_another_size(self, name, given):
        # every given operator is checked, by its name, before any is used;
        # a CSR matrix is refused as one, before its size is read
        graph = fill_mixed_graph(self.plan, self.wu, self.wd)
        n = graph.n_nodes
        ops = dict(graph.ops)
        ops[name] = sp.identity(n + 3, format="csr")
        error, match = TypeError, rf"^{name} must be an Operator, got csr_matrix$"
        if given == "operator":
            ops[name] = csr_operator(ops[name])
            error = ValueError
            match = rf"^{name} has shape \({n + 3}, {n + 3}\), expected \({n}, {n}\)$"
        with pytest.raises(error, match=match):
            MixedGraph(graph.n_stations, graph.n_instants, graph.lanes, graph.h_mask, **ops)

    def test_graph_refuses_a_csr_matrix_of_its_size(self):
        # the CSR view of the graph's own l_u, right in size and values, is
        # refused by its name: a graph's operators are filled into its plan
        graph = fill_mixed_graph(self.plan, self.wu, self.wd)
        ops = dict(graph.ops, l_u=graph.l_u)
        assert graph.l_u.shape == (graph.n_nodes, graph.n_nodes)
        with pytest.raises(TypeError, match=r"^l_u must be an Operator, got csr_matrix$"):
            MixedGraph(graph.n_stations, graph.n_instants, graph.lanes, graph.h_mask, **ops)

    @pytest.mark.parametrize("name", OPERATORS[:-1])
    def test_graph_needs_every_operator_but_l_n(self, name):
        # none is worked out from another: every operator but l_n is refused
        # as None and must be given; l_n may be left out
        graph = fill_mixed_graph(self.plan, self.wu, self.wd)
        ops = dict(graph.ops)
        ops[name] = None
        with pytest.raises(ValueError, match=rf"^{name} is missing$"):
            MixedGraph(graph.n_stations, graph.n_instants, graph.lanes, graph.h_mask, **ops)
        del ops[name]
        with pytest.raises(TypeError, match=rf"'{name}'$"):
            MixedGraph(graph.n_stations, graph.n_instants, graph.lanes, graph.h_mask, **ops)
        del ops["l_n"]
        ops[name] = graph.ops[name]
        assert MixedGraph(graph.n_stations, graph.n_instants, graph.lanes, graph.h_mask,
                          **ops).l_n is None

    def test_weights_must_cover_the_plans_instants(self):
        with pytest.raises(ValueError, match="^spatial weight map and temporal skeleton "
                                             "disagree on instants$"):
            fill_mixed_graph(self.plan, self.wu[:, :-1], self.wd)

    def test_weights_must_fit_the_plans_slices(self):
        one_slice = self.wu.reshape(-1, self.sskel.n_edges)[:1]
        with pytest.raises(ValueError, match=f"in {self.plan.l_u.n_slices} slices"):
            graphs.assemble_undirected_laplacian(self.plan.l_u, one_slice)


class TestDroppedZeros:
    """scipy stores no entry of I - W_r, L_r'L_r or l_n that comes out exactly
    0.0; a planned operator keeps it as +0.0 on its plan's pattern, and its
    folds take the plan's components."""

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

    @staticmethod
    def kept_zero(graph, name, row, col):
        """Assert that ``name`` stores +0.0 at (row, col), on its plan's pattern."""
        mat = getattr(graph, name)
        at = mat.indptr[row] + np.flatnonzero(mat.indices[mat.indptr[row]:mat.indptr[row + 1]]
                                              == col)
        assert len(at) == 1 and mat.data[at].tobytes() == bytes(8), (name, row, col)

    def test_cancelling_call_rd_entry(self):
        plan, graph, inputs = dropped_zero_graph("cancelling_call_rd")
        self.kept_zero(graph, "call_rd", 1, 2)
        assert graph.call_rd.nnz == plan.patterns["call_rd"].nnz
        assert graph.ops["call_rd"].pattern is plan.patterns["call_rd"]
        assert assert_matches_reference(graph, *inputs, False) == {"call_rd"}
        self.check_folds(graph)

    def test_underflowing_walk_weight(self):
        # 5e-324 / 2 rounds to 0.0: L_r (2, 0), its transpose (0, 2), and
        # half of it leaves l_n (0, 2) and (2, 0) at 0.0
        plan, graph, inputs = dropped_zero_graph("underflowing_walk_weight")
        for name, row, col in [("l_rd", 2, 0), ("l_rd_t", 0, 2), ("l_n", 0, 2), ("l_n", 2, 0)]:
            self.kept_zero(graph, name, row, col)
        # W_r, read as I - L_r, drops the 0.0 at (2, 0) that the reference stores
        w_rd = coo_operators(*inputs, True)["w_rd"]
        assert w_rd[2, 0] == 0.0 and graph.w_rd.nnz == w_rd.nnz - 1
        w_rd.eliminate_zeros()
        assert_bitwise(graph.w_rd, w_rd, "w_rd")
        for name, pattern in plan.patterns.items():
            assert graph.ops[name].pattern is pattern, name
        assert np.shares_memory(graph.l_rd.indices, plan.walk.l_rd.indices)
        assert assert_matches_reference(graph, *inputs, True) == {"l_rd", "l_rd_t", "call_rd",
                                                                  "l_n"}
        self.check_folds(graph)

    def test_covered_walk_drop(self):
        # L_r keeps its underflowed entry as +0.0, and call_rd loses none:
        # the folds the recurrence applies take its band
        plan, graph, inputs = dropped_zero_graph("covered_walk_drop")
        self.kept_zero(graph, "l_rd", 2, 1)
        assert graph.ops["call_rd"].pattern is plan.patterns["call_rd"]
        assert solver.folded_system(graph, (("call_rd", 0.7),), 0.3, True).banded
        assert assert_matches_reference(graph, *inputs, True) == {"l_rd", "l_rd_t", "l_n"}
        self.check_folds(graph)

    def test_single_node_source_row(self):
        # a source row's W_r entry is its self-loop, 1 - 1 = 0 in L_r:
        # planned away, a band of no diagonals; a graph reads W_r back as I
        plan = plan_random_walk_digraph(directed_skeleton_from_edges(1, []))
        l_rd = assemble_random_walk_digraph(plan, np.zeros(0))
        assert l_rd.nnz == 0 and plan.l_rd.nnz == 0 and l_rd.data.shape == (0, 1)
        l_u = graphs.Operator(Pattern(np.arange(2, dtype=np.int32), np.zeros(1, np.int32)),
                              np.zeros(1))
        graph = MixedGraph(1, 1, 1, np.ones(1, dtype=bool), l_u=l_u, l_rd=l_rd, l_rd_t=l_rd,
                           call_rd=l_u)
        assert_bitwise(graph.w_rd, sp.identity(1, format="csr"), "w_rd")


class TestWalkAdjacency:
    """A graph holds the operators some solver step applies, and no other:
    no plan sorts a W_r pattern and no fill writes W_r's band. W_r is read
    as I - L_r, the reference's W_r bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_w_rd_is_identity_less_l_rd(self, seed, lanes, with_l_n):
        # road networks in pieces, some stations isolated
        rng = np.random.default_rng(seed)
        wu, wd, sskel, tskel, n_observed = split_skeleton_inputs(rng, lanes)
        plan = plan_mixed_graph(sskel, tskel, lanes, n_observed, with_l_n)
        walk = [f.name for f in dataclasses.fields(plan.walk)
                if isinstance(getattr(plan.walk, f.name), Pattern)]
        assert walk == ["l_rd", "l_rd_t"]
        assert set(plan.patterns) == set(OPERATORS if with_l_n else OPERATORS[:-1])
        graph = fill_mixed_graph(plan, wu, wd)
        assert set(graph.ops) == set(plan.patterns)
        w_rd = graph.w_rd
        assert_bitwise(w_rd, sp.identity(graph.n_nodes, format="csr") - graph.l_rd, "w_rd")
        assert_bitwise(w_rd, coo_operators(sskel, tskel, wu, wd, with_l_n)["w_rd"], "w_rd")


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
        # connected_components never runs: a fold's Q(A) reads its slices
        # from its operators' names
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
        assert components == []

    @pytest.mark.parametrize("refused", [False, True], ids=["within", "over"])
    def test_slice_blocks_only_when_a_polynomial_asks(self, monkeypatch, refused):
        # under the rule every system of the default model's blocks takes
        # Q(A), filled over the slices its operators' names give: x and z_d
        # over one station's instants, z_u over one instant's stations. With
        # 17 layers, each slice size (18 instants, 20 stations) is over the
        # layer count, the rule refuses every system, and no slice stack is
        # filled
        _, cfg, ctx, windows = desk_context()
        if refused:
            cfg.layers = LayerSettings(layers=17)
        fills, fill = [], solver.Slices.blocks
        monkeypatch.setattr(solver.Slices, "blocks",
                            lambda slices, *args: fills.append(slices) or fill(slices, *args))
        pipeline.run_forecast(windows[0], ctx)
        if refused:
            assert fills == []
            return
        heads, stations, instants = cfg.heads.count, 20, cfg.data.history + cfg.data.horizon
        assert len(fills) == cfg.layers.blocks * 3
        assert set(fills) == {solver.Slices(heads, stations, instants, strided=True),
                              solver.Slices(heads, instants, stations)}

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


class TestBandOperators:
    """A planned graph holds L_r, L_r' and L_r'L_r as their bands'
    diagonals, from the fill to the products: each is its CSR reference bit
    for bit, and so is each product by them."""

    @pytest.mark.parametrize("which", ["cancelling_call_rd", "underflowing_walk_weight",
                                       "covered_walk_drop"])
    def test_dropped_zeros_stay_on_their_bands(self, which):
        # an exact 0.0 in L_r or L_r'L_r is kept on the band as +0.0: every
        # temporal operator stays a band, applied by the DIA kernel, and its
        # product is the COO reference's byte for byte
        plan, graph, (sskel, tskel, wu, wd) = dropped_zero_graph(which)
        want = coo_operators(sskel, tskel, wu, wd, False)
        v = np.random.default_rng(49).standard_normal(graph.n_nodes)
        v[::3] = -0.0
        for name in ("l_rd", "l_rd_t", "call_rd"):
            assert graph.ops[name].banded, name
            assert graph.ops[name].pattern is plan.patterns[name], name
        for name in ("l_rd", "l_rd_t", "call_rd"):
            with kernel_calls() as calls:
                got = graph.apply(name, v)
            assert calls == ["dia_matvec"], name
            assert got.tobytes() == (want[name] @ v).tobytes(), name

    def test_a_planned_block_builds_no_csr_matrix(self, monkeypatch):
        # once a plan has worked out what its patterns keep, a window's
        # forecast in the default mode builds no CSR matrix and forms no
        # scipy sparse product
        _, _, ctx, windows = desk_context()
        pipeline.run_forecast(windows[0], ctx)
        made, products = [], []
        init, matmat = sp.csr_matrix.__init__, _compressed.csr_matmat

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "__init__", counting_init)
        monkeypatch.setattr(_compressed, "csr_matmat",
                            lambda *args: products.append(1) or matmat(*args))
        pipeline.run_forecast(windows[1], ctx)
        assert made == [] and products == []
        monkeypatch.undo()
        x, _, t_steps = pipeline.initial_signal(windows[1], ctx)
        graph = pipeline.block_graph(ctx, [x], [t_steps])
        assert all(graph.ops[name].banded for name in ("l_rd", "l_rd_t", "call_rd"))

    def test_polynomial_folds_fill_from_the_band(self, monkeypatch):
        # the x and z_d folds of a block both take Q(A) and keep their band;
        # their slice blocks are copied straight from the band, with no
        # gather into entry order, and equal the fill from the CSR view's
        # entries and the dense matrix's blocks
        graph = planned_graph(np.random.default_rng(48), 4, n_instants=5)
        p = LayerParams(0.5, 0.6, 0.7, 1.0, 1.1, 1.2)
        gathers, entries = [], graphs.Operator.entries
        monkeypatch.setattr(graphs.Operator, "entries",
                            lambda op: gathers.append(op) or entries(op))
        folds = block_folds(graph, [p] * 5, TERMS["full"], CgSchedule.unrolled())
        assert len(folds) == 3 and all(q is not None for _, q in folds.values())
        banded = [fold for fold, _ in folds.values() if fold.banded]
        assert len(banded) == 2
        assert not any(op.banded for op in gathers)
        monkeypatch.undo()
        slices = solver.Slices(graph.lanes, graph.n_stations, graph.n_instants, strided=True)
        for fold in banded:
            got = slices.blocks(fold)
            np.testing.assert_array_equal(got, slices.blocks(csr_operator(fold.matrix())))
            dense = fold.matrix().toarray()
            nodes = slices.view(np.arange(graph.n_nodes)).reshape(-1, graph.n_instants)
            for block, idx in zip(got, nodes):
                np.testing.assert_array_equal(block, dense[np.ix_(idx, idx)])

    @pytest.mark.parametrize("broken", ["apply", "product"])
    def test_verify_check_needs_bitwise_bands(self, monkeypatch, broken):
        # one ulp off in one value, of a DIA product or of L_r'L_r's band
        from stforecast import verify

        result = verify.check_planned_assembly()
        assert result.passed, result.detail
        if broken == "apply":
            kernel = graphs.dia_matvec

            def one_ulp_off(*args):
                kernel(*args)
                args[-1][0] = np.nextafter(args[-1][0], np.inf)

            monkeypatch.setattr(graphs, "dia_matvec", one_ulp_off)
        else:
            product = attention.symmetrized_dglr_matrix

            def one_ulp_off(*args):
                out = product(*args)
                zero = out.pattern.band.zero
                out.data[zero, -1] = np.nextafter(out.data[zero, -1], np.inf)
                return out

            monkeypatch.setattr(attention, "symmetrized_dglr_matrix", one_ulp_off)
        result = verify.check_planned_assembly()
        assert not result.passed
        assert result.detail.startswith("operators differ: full windows [0] "
                                        + ("l_rd product" if broken == "apply" else "call_rd"))

"""Embeddings, Mahalanobis metrics, and attention-style edge weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stforecast import attention, data
from stforecast.attention import (
    DegenerateWeightError,
    FeatureMap,
    MetricBank,
    _lane_inputs,
    _pairwise_distances,
    _rows,
    build_mixed_graph,
    directed_weights,
    embed,
    multi_head_graphs,
    plan_mixed_graph,
    seeded_projection,
    spatial_eigenmap,
    temporal_embedding,
    undirected_weights,
)
from stforecast.graphs import (
    DirectedSkeleton,
    PhysicalGraph,
    build_spatial_skeleton,
    build_temporal_skeleton,
    directed_skeleton_from_edges,
)

LINE4_CALL = np.array(
    [[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]], dtype=float
)


class TestTemporalEmbedding:
    def test_time_zero_alternates_zero_one(self):
        emb = temporal_embedding(np.array([0.0]))
        np.testing.assert_array_equal(emb[0], [0, 1, 0, 1, 0, 1, 0, 1, 0, 1])

    def test_formula_at_arbitrary_time(self):
        t = 37.0
        emb = temporal_embedding(np.array([t]))[0]
        for i in range(5):
            assert emb[2 * i] == pytest.approx(np.sin(t / 10000.0**i))
            assert emb[2 * i + 1] == pytest.approx(np.cos(t / 10000.0**i))


class TestSpatialEigenmap:
    def test_path3_fiedler_direction(self):
        pg = PhysicalGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        eig = spatial_eigenmap(pg, dim=2)
        fiedler = eig[:, 0]
        # second-smallest eigenvector of the path Laplacian is [-1, 0, 1]/sqrt(2)
        np.testing.assert_allclose(np.abs(fiedler), [1 / np.sqrt(2), 0, 1 / np.sqrt(2)], atol=1e-10)
        nz = np.flatnonzero(np.abs(fiedler) > 1e-12)
        assert fiedler[nz[0]] > 0  # deterministic sign

    def test_symmetric_stations_match(self):
        pg = PhysicalGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
        x = np.zeros(4)
        emb = embed(x, np.array([0.0]), spatial_eigenmap(pg))
        # end stations sit in mirrored positions: same eigenmap magnitudes
        np.testing.assert_allclose(np.abs(emb[0, 1:6]), np.abs(emb[3, 1:6]), atol=1e-9)

    def test_disconnected_warns(self):
        pg = PhysicalGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        with pytest.warns(UserWarning, match="connected components"):
            spatial_eigenmap(pg)

    def test_pads_when_small(self):
        pg = PhysicalGraph(2, ((0, 1, 1.0),))
        eig = spatial_eigenmap(pg, dim=5)
        assert eig.shape == (2, 5)
        assert np.abs(eig[:, 1:]).max() == 0.0


class TestEmbed:
    def test_layout(self):
        x = np.array([10.0, 20.0, 30.0, 40.0])
        emb = embed(x, np.array([0.0, 1.0]), np.zeros((2, 3)))
        assert emb.shape == (4, 1 + 3 + 10)
        np.testing.assert_array_equal(emb[:, 0], x)
        np.testing.assert_array_equal(emb[0, 4:], temporal_embedding(np.array([0.0]))[0])
        np.testing.assert_array_equal(emb[3, 4:], temporal_embedding(np.array([1.0]))[0])


def mahalanobis(f_i, f_j, factor):
    """Squared distance of one feature pair under the metric factor' factor."""
    diff = np.asarray(f_i, dtype=float) - np.asarray(f_j, dtype=float)
    return float(_pairwise_distances(diff[None], np.asarray(factor, dtype=float).T)[0])


class TestMahalanobis:
    def test_identical_features(self):
        m = np.eye(3)
        assert mahalanobis(np.ones(3), np.ones(3), m) == 0.0

    def test_identity_metric_is_euclidean(self):
        m = np.eye(2)
        assert mahalanobis(np.array([1.0, 2.0]), np.array([4.0, 6.0]), m) == pytest.approx(25.0)

    def test_hand_factor(self):
        # M0 = [[1,1],[0,1]] -> M = [[1,1],[1,2]]
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert mahalanobis(np.array([1.0, 0.0]), np.zeros(2), m) == pytest.approx(1.0)
        assert mahalanobis(np.array([0.0, 1.0]), np.zeros(2), m) == pytest.approx(2.0)

    def test_psd_for_random_factors(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(2, 16))
            m = rng.standard_normal((k, k))
            assert np.linalg.eigvalsh(m.T @ m)[0] >= -1e-12
            f = rng.standard_normal((2, k))
            assert mahalanobis(f[0], f[1], m) >= 0.0


def path3_setup():
    pg = PhysicalGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    return build_spatial_skeleton(pg, 2)


class TestUndirectedWeights:
    def test_uniform_distances_regular_graph(self):
        # triangle with equal features: every node has degree 2, weights 1/2
        pg = PhysicalGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        skel = build_spatial_skeleton(pg, 2)
        feats = np.zeros((3, 2))
        w = undirected_weights(feats, skel, [np.eye(2)])
        np.testing.assert_allclose(w[0], 0.5)

    def test_two_node_self_normalizing(self):
        pg = PhysicalGraph(2, ((0, 1, 1.0),))
        skel = build_spatial_skeleton(pg, 1)
        feats = np.array([[0.0], [7.0]])  # large distance
        w = undirected_weights(feats, skel, [np.eye(1)])
        np.testing.assert_allclose(w[0], 1.0)

    def test_path3_hand_oracle(self):
        # distances d(0,1)=0 and d(1,2)=ln 2 give e-weights 1 and 1/2:
        # w01 = 1/sqrt(1 * 1.5), w12 = 0.5/sqrt(1.5 * 0.5)
        skel = path3_setup()
        feats = np.array([[0.0], [0.0], [np.sqrt(np.log(2.0))]])
        w = undirected_weights(feats, skel, [np.eye(1)])
        np.testing.assert_allclose(w[0][0], 1.0 / np.sqrt(1.5), atol=1e-12)
        np.testing.assert_allclose(w[0][1], 0.5 / np.sqrt(0.75), atol=1e-12)

    def test_symmetry_is_structural(self):
        # one weight per unordered pair: symmetry cannot break by construction
        skel = path3_setup()
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((6, 3))
        w = undirected_weights(feats, skel, [rng.standard_normal((3, 3))] * 2)
        assert w.shape == (2, 2)

    def test_shift_invariance(self):
        # adding a constant to all distances cancels in the normalization;
        # realized by scaling the metric of a constant-difference feature set
        skel = path3_setup()
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((3, 2))
        m = rng.standard_normal((2, 2))
        w1 = undirected_weights(feats, skel, [m])
        w2 = undirected_weights(feats * 1.0, skel, [m])
        np.testing.assert_array_equal(w1, w2)

    @pytest.mark.filterwarnings("error")
    def test_all_underflowed_neighborhood_rejected(self):
        # station 2 sits so far in feature space that its entire attention
        # mass underflows to zero; with non-finite features every distance,
        # and so the mass, is NaN, which is no weight for the assembly
        # either; neither case warns before it raises
        skel = path3_setup()
        for feats in ([[0.0], [0.0], [np.sqrt(1e9)]], np.full((3, 1), np.inf)):
            with pytest.raises(DegenerateWeightError, match="instant 0"):
                undirected_weights(np.array(feats), skel, [np.eye(1)])

    def test_heads_report_first_instant_then_first_head(self):
        # heads 1 and 2 underflow at instant 1, head 0 only at instant 2; the
        # failure names the lane, which the forward pass splits into window and head
        skel = path3_setup()
        feats = np.tile([[0.0], [0.0], [1.0]], (3, 1))
        bank = MetricBank.default(3, 1, feature_dim=1, heads=3)
        huge = np.array([[np.sqrt(1e9)]])
        bank.undirected[0, 2] = bank.undirected[1, 1] = bank.undirected[2, 1] = huge
        with pytest.raises(DegenerateWeightError) as info:
            undirected_weights(feats, skel, bank.undirected)
        assert (info.value.lane, info.value.head, info.value.instant) == (1, None, 1)
        assert str(info.value) == "zero attention mass (instant 1)"
        # the same heads of a second window are lanes 3 to 5: lane 4 is window 1, head 1
        far = np.tile([[0.0], [0.0], [0.0]], (3, 1))
        with pytest.raises(DegenerateWeightError) as info:
            undirected_weights(np.stack([far, feats]), skel, bank.undirected)
        assert (info.value.lane, info.value.instant) == (4, 1)


def per_instant_weights(features, skel, factors):
    """``undirected_weights`` one instant at a time, every lane at once: the
    reference that taking several instants a pass must equal bit for bit."""
    features, factors_t, lane_axes = _lane_inputs(features, factors)
    lanes, n_instants = int(np.prod(lane_axes)), factors_t.shape[1]
    n = skel.n_stations
    out = np.empty((lanes, n_instants, skel.n_edges))
    ei, ej = skel.edges[:, 0], skel.edges[:, 1]
    ends = (np.arange(lanes)[:, None] * n + np.concatenate([ei, ej])).ravel()
    for t in range(n_instants):
        feats = features[..., t * n : (t + 1) * n, :]
        diffs = _rows(feats, ei) - _rows(feats, ej)
        d = _pairwise_distances(diffs, factors_t[:, t]).reshape(lanes, -1)
        e = np.exp(-(d - d.min(axis=-1, keepdims=True)))
        sums = np.bincount(ends, weights=np.concatenate([e, e], axis=-1).ravel(),
                           minlength=lanes * n).reshape(lanes, n)
        norm = np.sqrt(sums[:, ei] * sums[:, ej])
        degenerate = np.flatnonzero((norm == 0).any(axis=-1))
        if len(degenerate):
            raise DegenerateWeightError("zero attention mass", instant=t, lane=int(degenerate[0]))
        out[:, t] = e / norm
    return out.reshape(lane_axes + out.shape[1:])


class TestWeightPasses:
    """Spatial weights over several instants a pass, on the desk road graph
    (20 stations, 18 instants, K = 6)."""

    N_INSTANTS, K = 18, 6

    def inputs(self, lanes):
        """Features and factors of 1 lane (one-head form), 4 (one window, 4
        heads) or 8 (two windows, 4 heads)."""
        _, pg = data.generate_synthetic(20, 40, 0)
        skel = build_spatial_skeleton(pg, 4)
        rng = np.random.default_rng(lanes)
        windows = (2,) if lanes == 8 else ()
        feats = rng.standard_normal(windows + (20 * self.N_INSTANTS, self.K))
        heads = () if lanes == 1 else (4,)
        factors = rng.standard_normal(heads + (self.N_INSTANTS, self.K, self.K)) / 2
        return feats, skel, factors

    @pytest.mark.parametrize("lanes", [1, 4, 8])
    @pytest.mark.parametrize("instants_a_pass", [None, 1, 5, 18])
    def test_equals_one_instant_at_a_time(self, monkeypatch, lanes, instants_a_pass):
        # None: the default bound, which takes every instant in one pass at
        # 1 lane and splits them at 4 and 8
        feats, skel, factors = self.inputs(lanes)
        if instants_a_pass is not None:
            values = lanes * skel.n_edges * self.K * instants_a_pass
            monkeypatch.setattr(attention, "WEIGHT_PASS_VALUES", values)
        got = undirected_weights(feats, skel, factors)
        want = per_instant_weights(feats, skel, factors)
        assert got.shape == want.shape == feats.shape[:-2] + factors.shape[:-3] + (
            self.N_INSTANTS, skel.n_edges)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("instants_a_pass", [None, 1, 5, 18])
    def test_degenerate_names_first_instant_then_first_lane(self, monkeypatch, instants_a_pass):
        # station 0 of window 1 is far off at instant 4, and of window 0 at
        # instant 9; a zero metric keeps heads 0 and 2 at instant 4 finite,
        # so lanes 5 and 7 (window 1, heads 1 and 3) fail first
        feats, skel, factors = self.inputs(8)
        n = 20
        feats[1, 4 * n] = feats[0, 9 * n] = 1e5
        factors[[0, 2], 4] = 0.0
        if instants_a_pass is not None:
            values = 8 * skel.n_edges * self.K * instants_a_pass
            monkeypatch.setattr(attention, "WEIGHT_PASS_VALUES", values)
        with pytest.raises(DegenerateWeightError) as want:
            per_instant_weights(feats, skel, factors)
        with pytest.raises(DegenerateWeightError) as got:
            undirected_weights(feats, skel, factors)
        assert (got.value.instant, got.value.lane) == (want.value.instant, want.value.lane) == (4, 5)


class TestDirectedWeights:
    def test_single_predecessor_gets_unit_weight(self):
        skel = build_temporal_skeleton(1, 3, 1)
        feats = np.random.default_rng(3).standard_normal((3, 2))
        w = directed_weights(feats, skel, [np.eye(2)])
        np.testing.assert_allclose(w, 1.0)

    def test_equal_distances_split_evenly(self):
        skel = build_temporal_skeleton(1, 3, 2)
        feats = np.zeros((3, 2))
        w = directed_weights(feats, skel, [np.eye(2)] * 2)
        child2 = skel.dst == 2
        np.testing.assert_allclose(w[child2], 0.5)

    def test_softmax_hand_oracle(self):
        # distances 0 and ln 3 over two predecessors give weights 3/4 and 1/4
        skel = directed_skeleton_from_edges(3, [(0, 2, 1), (1, 2, 1)])
        feats = np.array([[0.0], [np.sqrt(np.log(3.0))], [0.0]])
        w = directed_weights(feats, skel, [np.eye(1)])
        np.testing.assert_allclose(sorted(w), [0.25, 0.75], atol=1e-12)

    def test_incoming_mass_sums_to_one(self):
        rng = np.random.default_rng(4)
        skel = build_temporal_skeleton(3, 6, 3)
        feats = rng.standard_normal((18, 4))
        bank = MetricBank.default(6, 3, feature_dim=4)
        w = directed_weights(feats, skel, bank.directed[0])
        sums = np.zeros(18)
        np.add.at(sums, skel.dst, w)
        nonsource = np.ones(18, dtype=bool)
        nonsource[skel.sources] = False
        np.testing.assert_allclose(sums[nonsource], 1.0, atol=1e-12)

    def test_underflowed_weight_names_lane_and_instant(self):
        # in window 1 the value at instant 1 sits so far off that, at child
        # instant 2, its weight against the one from instant 0 underflows
        skel = build_temporal_skeleton(1, 3, 2)
        feats = np.zeros((2, 3, 1))
        feats[1, 1] = np.sqrt(1e9)
        bank = MetricBank.default(3, 2, feature_dim=1, heads=2)
        with pytest.raises(DegenerateWeightError) as info:
            directed_weights(feats, skel, bank.directed)
        assert (info.value.lane, info.value.head, info.value.instant) == (2, None, 2)
        assert str(info.value) == "zero temporal attention weight (instant 2)"

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_features_rejected(self):
        skel = build_temporal_skeleton(1, 3, 2)
        bank = MetricBank.default(3, 2, feature_dim=1)
        with pytest.raises(DegenerateWeightError, match="instant 1"):
            directed_weights(np.full((3, 1), np.inf), skel, bank.directed[0])

    def test_monotone_attention(self):
        # pushing one predecessor's feature away strictly lowers its weight
        skel = directed_skeleton_from_edges(3, [(0, 2, 1), (1, 2, 1)])
        metric = [np.eye(1)]
        w_ref = directed_weights(np.array([[0.0], [1.0], [0.0]]), skel, metric)
        w_far = directed_weights(np.array([[0.0], [2.0], [0.0]]), skel, metric)
        edge_from_1 = skel.src == 1
        assert w_far[edge_from_1] < w_ref[edge_from_1]

    @given(
        n=st.integers(1, 6), instants=st.integers(2, 9), window=st.integers(1, 8),
        lanes=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_lag_slices_equal_the_edge_gathers(self, n, instants, window, lanes, seed):
        # the windowed skeleton's lag-w differences as slices, against the same
        # edges as a plain DirectedSkeleton, whose differences are gathered
        window = min(window, instants - 1)
        skel = build_temporal_skeleton(n, instants, window)
        plain = DirectedSkeleton(skel.n_nodes, skel.src, skel.dst, skel.lag, skel.sources)
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((lanes, skel.n_nodes, 3))
        factors = rng.standard_normal((lanes, window, 3, 3))
        got = directed_weights(feats, skel, factors)
        assert got.tobytes() == directed_weights(feats, plain, factors).tobytes()
        assert set(np.unique(skel.lag)) == set(range(1, window + 1))

    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_stochastic_for_random_metrics(self, s1, s2):
        skel = build_temporal_skeleton(2, 4, 2)
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((8, 3))
        metrics = [s1 * np.eye(3), s2 * np.eye(3)]
        w = directed_weights(feats, skel, metrics)
        sums = np.zeros(8)
        np.add.at(sums, skel.dst, w)
        np.testing.assert_allclose(sums[2:], 1.0, atol=1e-12)


class TestFeatureMap:
    def test_projection_shape(self):
        fm = FeatureMap(seeded_projection(16, 6, seed=0))
        feats = fm(np.random.default_rng(0).standard_normal((10, 16)))
        assert feats.shape == (10, 6)

    def test_deterministic_under_seed(self):
        a = FeatureMap(seeded_projection(16, 6, seed=3)).projection
        b = FeatureMap(seeded_projection(16, 6, seed=3)).projection
        np.testing.assert_array_equal(a, b)

    def test_swish_applied(self):
        fm = FeatureMap(np.eye(2), swish_beta=0.8)
        out = fm(np.array([[1.0, -1.0]]))
        expected = np.array([1.0, -1.0]) / (1.0 + np.exp(-0.8 * np.array([1.0, -1.0])))
        np.testing.assert_allclose(out[0], expected)

    def test_neighbor_aggregation(self):
        pg = PhysicalGraph(2, ((0, 1, 1.0),))
        skel = build_spatial_skeleton(pg, 1)
        fm = FeatureMap(np.eye(2), skeleton=skel)
        emb = np.array([[0.0, 0.0], [2.0, 2.0]])
        out = fm(emb)
        np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 1.0]])

    def test_nonfinite_projection_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(np.array([[np.inf]]))


class TestBuildMixedGraph:
    def test_single_station_line_case(self):
        # one station, four instants, window 1, unit weights: the directed
        # operators must be the golden 4-node line matrices
        tskel = build_temporal_skeleton(1, 4, 1)
        sskel1 = build_spatial_skeleton(PhysicalGraph(1, ()), 1)
        wu = np.zeros((4, 0))
        wd = directed_weights(np.zeros((4, 1)), tskel, [np.eye(1)])
        g = build_mixed_graph(wu, wd, sskel1, tskel, n_observed=2)
        np.testing.assert_array_equal(g.call_rd.toarray(), LINE4_CALL)

    def test_uniform_weights_match_hand_assembly(self):
        pg = PhysicalGraph(2, ((0, 1, 1.0),))
        sskel = build_spatial_skeleton(pg, 1)
        tskel = build_temporal_skeleton(2, 2, 1)
        wu = np.full((2, 1), 0.7)
        wd = np.ones(2)
        g = build_mixed_graph(wu, wd, sskel, tskel, n_observed=1)
        lu_want = np.zeros((4, 4))
        for off in (0, 2):
            lu_want[off : off + 2, off : off + 2] = [[0.7, -0.7], [-0.7, 0.7]]
        np.testing.assert_allclose(g.l_u.toarray(), lu_want)
        wrd_want = np.zeros((4, 4))
        wrd_want[0, 0] = wrd_want[1, 1] = 1.0  # source self-loops
        wrd_want[2, 0] = wrd_want[3, 1] = 1.0
        np.testing.assert_allclose(g.w_rd.toarray(), wrd_want)

    def test_idempotent_normalization(self):
        # directed weights already sum to one per child; assembly must not
        # change them
        rng = np.random.default_rng(6)
        tskel = build_temporal_skeleton(2, 4, 2)
        feats = rng.standard_normal((8, 3))
        bank = MetricBank.default(4, 2, feature_dim=3)
        wd = directed_weights(feats, tskel, bank.directed[0])
        pg = PhysicalGraph(2, ((0, 1, 1.0),))
        sskel = build_spatial_skeleton(pg, 1)
        wu = rng.uniform(0.2, 1.0, (4, 1))
        g = build_mixed_graph(wu, wd, sskel, tskel, n_observed=2)
        dense = g.w_rd.toarray()
        for e in range(tskel.n_edges):
            assert dense[tskel.dst[e], tskel.src[e]] == pytest.approx(wd[e], abs=1e-15)


def lane_blocks(graph, name):
    """The dense diagonal block of operator ``name`` in every lane."""
    size = graph.n_nodes // graph.lanes
    dense = getattr(graph, name).toarray()
    return [dense[h * size : (h + 1) * size, h * size : (h + 1) * size] for h in range(graph.lanes)]


class TestMultiHead:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.pg = PhysicalGraph(3, ((0, 1, 1.0), (1, 2, 1.5), (0, 2, 2.0)))
        self.sskel = build_spatial_skeleton(self.pg, 2)
        self.tskel = build_temporal_skeleton(3, 4, 2)
        self.feats = rng.standard_normal((12, 4))

    def graphs(self, bank):
        plan = plan_mixed_graph(self.sskel, self.tskel, bank.heads, 2, False)
        return multi_head_graphs(self.feats, plan, bank)

    def test_single_head_equals_direct_build(self):
        bank = MetricBank.default(4, 2, feature_dim=4, heads=1)
        g = self.graphs(bank)
        assert g.lanes == 1
        wu = undirected_weights(self.feats, self.sskel, bank.undirected[0])
        wd = directed_weights(self.feats, self.tskel, bank.directed[0])
        direct = build_mixed_graph(wu, wd, self.sskel, self.tskel, 2)
        np.testing.assert_array_equal(g.l_u.toarray(), direct.l_u.toarray())
        np.testing.assert_array_equal(g.l_rd.toarray(), direct.l_rd.toarray())

    def test_identical_replicas_identical_graphs(self):
        bank = MetricBank.default(4, 2, feature_dim=4, heads=3, scale_u=1.0, scale_d=1.0)
        gs = lane_blocks(
            self.graphs(bank), "l_u"
        )
        for g in gs[1:]:
            np.testing.assert_array_equal(g, gs[0])

    def test_distinct_scales_distinct_graphs(self):
        bank = MetricBank.default(
            4, 2, feature_dim=4, heads=4, scale_u=[0.5, 1.0, 2.0, 4.0], scale_d=[0.5, 1.0, 2.0, 4.0]
        )
        gs = lane_blocks(
            self.graphs(bank), "l_u"
        )
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.abs(gs[a] - gs[b]).max() > 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fill", [np.inf, -np.inf, np.nan])
    def test_nonfinite_window_raises_without_warnings(self, fill):
        # the second of two windows is all non-finite: each weight function
        # names its first lane (window 1, head 0) and prints no numpy warning
        bank = MetricBank.default(4, 2, feature_dim=4, heads=2)
        feats = np.stack([self.feats, np.full_like(self.feats, fill)])
        plan = plan_mixed_graph(self.sskel, self.tskel, 2 * bank.heads, 2, False)
        for weights in (lambda: multi_head_graphs(feats, plan, bank),
                        lambda: directed_weights(feats, self.tskel, bank.directed)):
            with pytest.raises(DegenerateWeightError) as info:
                weights()
            assert info.value.lane == 2


class TestMetricBank:
    def test_default_fills(self):
        bank = MetricBank.default(5, 3, feature_dim=4, heads=1)
        np.testing.assert_array_equal(bank.undirected[0, 0], 1.5 * np.eye(4))
        for w in range(1, 4):
            np.testing.assert_allclose(
                bank.directed[0, w - 1], (1 + 0.2 * w / 3) * np.eye(4)
            )

    def test_counts_match_dimensions(self):
        bank = MetricBank.default(7, 4, feature_dim=3, heads=2)
        assert len(bank.undirected[0]) == 7
        assert len(bank.directed[0]) == 4
        assert bank.heads == 2

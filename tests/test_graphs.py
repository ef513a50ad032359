"""Graph construction and operator assembly."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stforecast.attention import build_mixed_graph
from stforecast.data import ParseError, load_road_network
from stforecast.graphs import (
    EDGE_DTYPE,
    DegenerateDegreeError,
    EdgeError,
    Operator,
    PhysicalGraph,
    assemble_random_walk_digraph,
    assemble_undirected_laplacian,
    build_spatial_skeleton,
    build_temporal_skeleton,
    directed_skeleton_from_edges,
    flat_index,
    plan_random_walk_digraph,
    plan_undirected_laplacian,
    symmetrized_dglr_matrix,
)
from stforecast.verify import line_graph


def laplacian(skel, weights):
    """D - W of a spatial skeleton over the slices of ``weights``, as CSR, planned on the spot."""
    weights = np.asarray(weights, dtype=np.float64)
    return assemble_undirected_laplacian(plan_undirected_laplacian(skel, len(weights)),
                                         weights).matrix()


def random_walk(skel, weights):
    """W_r and L_r of a DAG skeleton, as CSR, planned on the spot: W_r read
    as I - L_r, as a graph reads it."""
    l_rd = assemble_random_walk_digraph(plan_random_walk_digraph(skel), weights).matrix()
    return sp.identity(skel.n_nodes, format="csr") - l_rd, l_rd


def scipy_dglr(l_rd):
    """scipy's L_r'L_r of a CSR L_r, indices sorted."""
    mat = (l_rd.T @ l_rd).tocsr()
    mat.sort_indices()
    return mat


class TestIndexing:
    @given(st.integers(1, 50), st.integers(0, 40), st.integers(0, 40))
    def test_flat_round_trip(self, n, s, t):
        s = s % n
        flat = flat_index(s, t, n)
        assert divmod(flat, n) == (t, s)

    def test_time_major_blocks(self):
        # all stations of instant 0 come before any station of instant 1
        assert flat_index(4, 0, 5) < flat_index(0, 1, 5)


class TestPhysicalGraph:
    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self-edge"):
            PhysicalGraph(2, ((0, 0, 1.0),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            PhysicalGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError, match="negative"):
            PhysicalGraph(2, ((0, 1, -1.0),))

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite_cost(self, cost):
        # a NaN cost compares false to everything, so the skeleton it gave
        # depended on edge order
        with pytest.raises(ValueError, match="non-finite cost"):
            PhysicalGraph(3, ((0, 1, 1.0), (1, 2, cost)))

    def test_triples_and_table_give_one_read_only_table(self):
        triples = ((0, 1, 1.5), (2, 1, 0.0))
        table = np.array(list(triples), dtype=EDGE_DTYPE)
        for given in (triples, table):
            pg = PhysicalGraph(3, given)
            assert pg.edges.dtype == EDGE_DTYPE
            assert pg.edges.tobytes() == table.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                pg.edges["cost"][0] = 2.0
        table["cost"][0] = 2.0  # the graph keeps its own copy
        assert pg.edges["cost"][0] == 1.5

    @pytest.mark.parametrize(
        "table",
        [np.zeros((1, 3)), np.zeros(1, dtype=[("from", "i4"), ("to", "i4"), ("cost", "f8")]),
         np.zeros((1, 1), dtype=EDGE_DTYPE)],
        ids=["plain", "int32-ids", "2-D"],
    )
    def test_rejects_other_arrays(self, table):
        with pytest.raises(ValueError, match="edges must be a 1-D EDGE_DTYPE table"):
            PhysicalGraph(3, table)

    def test_table_error_quotes_the_edge(self):
        table = np.array([(0, 1, 1.0), (1, 2, float("inf"))], dtype=EDGE_DTYPE)
        with pytest.raises(EdgeError) as info:
            PhysicalGraph(3, table)
        assert (info.value.index, str(info.value)) == (1, "non-finite cost inf on edge (1,2)")


def first_bad_edge(n_stations, edges):
    """The index and message of the first edge failing validation, one edge at a time."""
    seen = set()
    for index, (i, j, cost) in enumerate(edges):
        if i == j:
            return index, f"self-edge at station {i}"
        if not (0 <= i < n_stations and 0 <= j < n_stations):
            return index, f"edge ({i},{j}) outside station range"
        if not math.isfinite(cost):
            return index, f"non-finite cost {cost} on edge ({i},{j})"
        if cost < 0:
            return index, f"negative cost on edge ({i},{j})"
        key = (min(i, j), max(i, j))
        if key in seen:
            return index, f"duplicate edge ({i},{j})"
        seen.add(key)
    return None


STATION_IDS = st.one_of(st.integers(-2, 6), st.sampled_from([2**63, -(2**70), 2**70]))
EDGE_LISTS = st.lists(
    st.tuples(STATION_IDS, STATION_IDS,
              st.sampled_from([0.0, 1.5, -1.0, float("inf"), float("-inf"), float("nan")])),
    max_size=8,
)


class TestEdgeValidation:
    @given(n_stations=st.one_of(st.integers(1, 6), st.just(2**71)), edges=EDGE_LISTS)
    @settings(max_examples=400, deadline=None)
    def test_first_bad_edge_matches_the_loop(self, n_stations, edges):
        edges = tuple(edges)
        try:
            PhysicalGraph(n_stations, edges)
            got = None
        except EdgeError as exc:
            got = (exc.index, str(exc))
        assert got == first_bad_edge(n_stations, edges)


class TestRoadNetworkCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to,cost\n0,1,2.5\n1,2,1.0\n")
        pg = load_road_network(path, n_stations=3)
        assert pg.edges.dtype == EDGE_DTYPE
        assert pg.edges.tolist() == [(0, 1, 2.5), (1, 2, 1.0)]

    def test_station_count_given(self, tmp_path):
        # stations beyond the largest edge id are kept, isolated
        path = tmp_path / "edges.csv"
        path.write_text("from,to,cost\n0,1,2.5\n")
        pg = load_road_network(path, n_stations=4)
        assert pg.n_stations == 4
        assert pg.edges.tolist() == [(0, 1, 2.5)]

    def test_id_beyond_station_count_names_line(self, tmp_path):
        # one range rule: an id at or beyond the count reads as a negative one
        path = tmp_path / "edges.csv"
        for edge in ("4,1", "-1,1"):
            path.write_text(f"from,to,cost\n0,1,2.5\n{edge},1.0\n")
            with pytest.raises(ParseError) as info:
                load_road_network(path, n_stations=4)
            assert str(info.value) == f"{path}:3: edge ({edge}) outside station range"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("a,b,c\n0,1,2.5\n")
        with pytest.raises(ParseError, match="header"):
            load_road_network(path, n_stations=3)

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to,cost\n0,1,2.5\n1,x,1.0\n")
        with pytest.raises(ParseError, match="edges.csv:3"):
            load_road_network(path, n_stations=3)

    @pytest.mark.parametrize("cost", ["nan", "inf"])
    def test_nonfinite_cost_rejected(self, tmp_path, cost):
        path = tmp_path / "edges.csv"
        path.write_text(f"from,to,cost\n0,1,2.5\n1,2,{cost}\n")
        with pytest.raises(ParseError, match=r"edges\.csv:3: non-finite cost"):
            load_road_network(path, n_stations=3)

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to,cost\n0,1,2.5\n1,0,3.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_road_network(path, n_stations=3)


class TestSpatialSkeleton:
    def test_path_k1(self):
        pg = PhysicalGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        skel = build_spatial_skeleton(pg, 1)
        assert [tuple(e) for e in skel.edges] == [(0, 1), (1, 2)]

    def test_complete_graph_saturates(self):
        edges = tuple((i, j, float(i + j)) for i in range(4) for j in range(i + 1, 4))
        skel = build_spatial_skeleton(PhysicalGraph(4, edges), 3)
        assert skel.n_edges == 6

    def test_star_union_restores_all_edges(self):
        # center 0, leaves 1..4 with distinct costs; the center keeps its two
        # cheapest leaves, each leaf keeps the center, and the union is the star
        pg = PhysicalGraph(5, ((0, 1, 4.0), (0, 2, 1.0), (0, 3, 3.0), (0, 4, 2.0)))
        skel = build_spatial_skeleton(pg, 2)
        assert [tuple(e) for e in skel.edges] == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_tie_breaks_toward_lower_id(self):
        pg = PhysicalGraph(3, ((0, 1, 1.0), (0, 2, 1.0)))
        skel = build_spatial_skeleton(pg, 1)
        # station 0 has two unit-cost options; the lower id wins
        assert (0, 1) in {tuple(e) for e in skel.edges}

    def test_pieces_joined_by_cheapest_road_edge(self):
        # k = 1 keeps (0,1) and (2,3); of the edges between the two pieces the
        # cheapest wins, and a cost tie goes to the lower station ids
        pg = PhysicalGraph(4, ((0, 1, 1.0), (2, 3, 1.0), (1, 2, 2.0), (0, 3, 2.0), (0, 2, 3.0)))
        skel = build_spatial_skeleton(pg, 1)
        assert [tuple(e) for e in skel.edges] == [(0, 1), (0, 3), (2, 3)]

    def test_zero_cost_join(self):
        # k = 1 keeps (0,3) and (1,2); the join is the zero-cost edge (2,3)
        pg = PhysicalGraph(4, ((0, 3, 0.0), (1, 2, 0.0), (2, 3, 0.0)))
        skel = build_spatial_skeleton(pg, 1)
        assert [tuple(e) for e in skel.edges] == [(0, 3), (1, 2), (2, 3)]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            build_spatial_skeleton(PhysicalGraph(2, ((0, 1, 1.0),)), 0)


class TestTemporalSkeleton:
    def test_smallest_window(self):
        skel = build_temporal_skeleton(1, 3, 2)
        edges = set(zip(skel.src.tolist(), skel.dst.tolist()))
        assert edges == {(0, 1), (0, 2), (1, 2)}
        assert skel.sources.tolist() == [0]

    def test_chain_edge_count(self):
        skel = build_temporal_skeleton(2, 4, 1)
        assert skel.n_edges == 6  # one chain step per station per instant
        assert np.all(skel.lag == 1)

    def test_in_degrees(self):
        skel = build_temporal_skeleton(1, 4, 2)
        indeg = np.zeros(4, dtype=int)
        np.add.at(indeg, skel.dst, 1)
        assert indeg.tolist() == [0, 1, 2, 2]

    @given(st.integers(1, 4), st.integers(2, 9), st.integers(1, 8))
    @settings(max_examples=40)
    def test_edge_count_formula(self, n, t_total, w):
        if w >= t_total:
            with pytest.raises(ValueError):
                build_temporal_skeleton(n, t_total, w)
            return
        skel = build_temporal_skeleton(n, t_total, w)
        expected = n * sum(min(tau, w) for tau in range(1, t_total))
        assert skel.n_edges == expected

    def test_acyclic_by_instant(self):
        skel = build_temporal_skeleton(3, 5, 2)
        # every edge increases the instant, so instant order is topological
        assert np.all(skel.dst // 3 > skel.src // 3)
        assert np.all(skel.dst % 3 == skel.src % 3)  # same-station edges only


class TestUndirectedLaplacian:
    def test_single_edge(self):
        pg = PhysicalGraph(2, ((0, 1, 1.0),))
        skel = build_spatial_skeleton(pg, 1)
        lap = laplacian(skel, np.array([[1.0]]))
        np.testing.assert_array_equal(lap.toarray(), [[1.0, -1.0], [-1.0, 1.0]])

    def test_zero_weights(self):
        pg = PhysicalGraph(2, ((0, 1, 1.0),))
        skel = build_spatial_skeleton(pg, 1)
        lap = laplacian(skel, np.array([[0.0]]))
        assert np.abs(lap.toarray()).max() == 0.0

    def test_path4_tridiagonal(self):
        pg = PhysicalGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
        skel = build_spatial_skeleton(pg, 2)
        lap = laplacian(skel, np.ones((1, 3))).toarray()
        assert np.diag(lap).tolist() == [1.0, 2.0, 2.0, 1.0]
        np.testing.assert_array_equal(lap, lap.T)

    def test_block_diagonal_over_instants(self):
        pg = PhysicalGraph(2, ((0, 1, 1.0),))
        skel = build_spatial_skeleton(pg, 1)
        lap = laplacian(skel, np.array([[2.0], [3.0]])).toarray()
        assert lap.shape == (4, 4)
        assert np.abs(lap[:2, 2:]).max() == 0.0
        np.testing.assert_array_equal(lap[2:, 2:], [[3.0, -3.0], [-3.0, 3.0]])

    def test_rows_sum_to_zero(self):
        pg = PhysicalGraph(3, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)))
        skel = build_spatial_skeleton(pg, 2)
        rng = np.random.default_rng(0)
        lap = laplacian(skel, rng.uniform(0.1, 2, (4, skel.n_edges)))
        assert np.abs(lap @ np.ones(12)).max() < 1e-12

    def test_negative_weight_rejected(self):
        pg = PhysicalGraph(2, ((0, 1, 1.0),))
        skel = build_spatial_skeleton(pg, 1)
        with pytest.raises(ValueError, match="negative"):
            laplacian(skel, np.array([[-0.5]]))


LINE4_W = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)


class TestRandomWalkDigraph:
    def test_four_node_line_matrices(self):
        skel = directed_skeleton_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        w_rd, l_rd = random_walk(skel, np.ones(3))
        np.testing.assert_array_equal(w_rd.toarray(), LINE4_W)
        np.testing.assert_array_equal(l_rd.toarray(), np.eye(4) - LINE4_W)

    def test_single_node_self_loop(self):
        skel = directed_skeleton_from_edges(1, [])
        w_rd, l_rd = random_walk(skel, np.zeros(0) + 1.0)
        np.testing.assert_array_equal(w_rd.toarray(), [[1.0]])
        np.testing.assert_array_equal(l_rd.toarray(), [[0.0]])

    def test_two_predecessors_normalized(self):
        skel = directed_skeleton_from_edges(3, [(0, 2), (1, 2)])
        w_rd, _ = random_walk(skel, np.array([1.0, 3.0]))
        np.testing.assert_allclose(w_rd.toarray()[2], [0.25, 0.75, 0.0])

    def test_row_sums_one(self):
        skel = build_temporal_skeleton(3, 5, 2)
        rng = np.random.default_rng(1)
        w_rd, _ = random_walk(skel, rng.uniform(0.5, 2, skel.n_edges))
        sums = np.asarray(w_rd.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_degenerate_degree(self):
        skel = build_temporal_skeleton(1, 3, 1)
        bad = skel.__class__(
            n_nodes=skel.n_nodes, src=skel.src, dst=skel.dst, lag=skel.lag,
            sources=np.zeros(0, dtype=np.int64),  # drop the true source
            n_stations=1, n_instants=3, window=1,
        )
        with pytest.raises(DegenerateDegreeError):
            random_walk(bad, np.ones(2))

    def test_nonpositive_weight_rejected(self):
        skel = directed_skeleton_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="positive"):
            random_walk(skel, np.array([0.0]))


class TestSymmetrizedOperator:
    def test_zero_matrix(self):
        # the band product of a zero L_r stores no nonzero, and no -0.0
        ops = line_graph(3).ops
        zero = {name: Operator(ops[name].pattern, np.zeros_like(ops[name].data))
                for name in ("l_rd_t", "call_rd")}
        call = symmetrized_dglr_matrix(zero["l_rd_t"], zero["call_rd"].pattern)
        assert call.matrix().count_nonzero() == 0
        assert call.data.tobytes() == bytes(call.data.nbytes)

    def test_two_parent_dag_rank_one(self):
        # child 2 averages parents 0 and 1: the only nonzero row of the
        # random-walk Laplacian is v = [-1/2, -1/2, 1], so L'L = outer(v, v)
        skel = directed_skeleton_from_edges(3, [(0, 2), (1, 2)])
        _, l_rd = random_walk(skel, np.ones(2))
        v = np.array([-0.5, -0.5, 1.0])
        np.testing.assert_allclose(
            scipy_dglr(l_rd).toarray(), np.outer(v, v), atol=1e-15
        )


def random_mixed(rng, n_stations=3, n_instants=4, window=2, n_observed=2, with_l_n=False):
    edges = tuple(
        (i, j, float(rng.uniform(0.1, 2)))
        for i in range(n_stations)
        for j in range(i + 1, n_stations)
    )
    pg = PhysicalGraph(n_stations, edges)
    sskel = build_spatial_skeleton(pg, min(2, n_stations - 1))
    tskel = build_temporal_skeleton(n_stations, n_instants, window)
    wu = rng.uniform(0.2, 1.5, (n_instants, sskel.n_edges))
    wd = rng.uniform(0.2, 1.5, tskel.n_edges)
    return build_mixed_graph(wu, wd, sskel, tskel, n_observed, with_undirected_temporal=with_l_n)


class TestMixedGraph:
    def test_mask_is_observed_prefix(self):
        g = random_mixed(np.random.default_rng(0))
        assert g.h_mask[: 3 * 2].all() and not g.h_mask[3 * 2 :].any()

    def test_apply_annihilates_constants(self):
        g = random_mixed(np.random.default_rng(1))
        one = np.ones(g.n_nodes)
        assert np.abs(g.apply("l_u", one)).max() < 1e-12
        assert np.abs(g.apply("l_rd", one)).max() < 1e-12
        assert np.abs(g.apply("call_rd", one)).max() < 1e-12

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_mixed(
                rng,
                n_stations=int(rng.integers(2, 8)),
                n_instants=int(rng.integers(3, 9)),
                window=int(rng.integers(1, 3)),
            )
            x = rng.standard_normal(g.n_nodes)
            for op, mat in [
                ("l_u", g.l_u), ("l_rd", g.l_rd),
                ("l_rd_t", g.l_rd.T), ("call_rd", g.call_rd),
            ]:
                np.testing.assert_allclose(
                    g.apply(op, x), mat.toarray() @ x, atol=1e-12
                )

    def test_apply_matches_dense_larger(self):
        rng = np.random.default_rng(3)
        g = random_mixed(rng, n_stations=10, n_instants=20, window=4)
        assert g.n_nodes == 200
        x = rng.standard_normal(200)
        np.testing.assert_allclose(g.apply("call_rd", x), g.call_rd.toarray() @ x, atol=1e-12)

    def test_symmetry_exact_and_psd(self):
        rng = np.random.default_rng(4)
        g = random_mixed(rng, n_stations=4, n_instants=4)
        for mat in (g.l_u, g.call_rd):
            assert (mat - mat.T).count_nonzero() == 0
            assert np.linalg.eigvalsh(mat.toarray())[0] >= -1e-10

    def test_unknown_operator(self):
        g = random_mixed(np.random.default_rng(5))
        with pytest.raises(ValueError, match="unknown operator"):
            g.apply("bogus", np.zeros(g.n_nodes))

    def test_dimension_mismatch(self):
        g = random_mixed(np.random.default_rng(6))
        with pytest.raises(ValueError):
            g.apply("l_u", np.zeros(3))

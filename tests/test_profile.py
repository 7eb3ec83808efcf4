import math

import numpy as np
import pytest

import oracles
from curvprof import (
    EquilateralTriple,
    Graph,
    InputError,
    build_profile,
    circle_arc_metric,
    circle_sample,
    find_equilateral_triples,
    profile_from_dict,
    rho_ball_growth,
    rho_circle_closed_form,
    rho_general,
    rho_minmax,
    shortest_path_matrix,
    tree_graph,
)
from curvprof.profile import RHO_PLANE, _side_keys, profile_to_dict


def cycle(n):
    return shortest_path_matrix(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))


def sides(D, side):
    """Side graph of the pairs at an exact side."""
    return _side_keys(D, None) == side


def star():
    return shortest_path_matrix(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))


def make_triple(D, a, b, c):
    side = float(max(D.d[a, b], D.d[a, c], D.d[b, c]))
    return EquilateralTriple(v1=a, v2=b, v3=c, side=side, r=side / 2)


class TestFindTriples:
    def test_c6_side2_exhaustive(self):
        D = cycle(6)
        ts = find_equilateral_triples(D, sides(D, 2), m=1.0, seed=0)
        assert [(t.v1, t.v2, t.v3) for t in ts] == [(0, 2, 4), (1, 3, 5)]
        assert oracles.enumerate_equilateral(D, 2 - 1e-9, 2 + 1e-9) == [(0, 2, 4), (1, 3, 5)]

    def test_path_graph_has_no_triples(self):
        D = shortest_path_matrix(Graph.from_edges(7, [(i, i + 1) for i in range(6)]))
        for side in range(1, 7):
            assert find_equilateral_triples(D, sides(D, side), m=1.0, seed=0) == []

    def test_k4_unit_side1(self):
        D = shortest_path_matrix(Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]))
        ts = find_equilateral_triples(D, sides(D, 1), m=1.0, seed=0)
        assert 1 <= len(ts) <= 4
        all_triples = set(oracles.enumerate_equilateral(D, 1 - 1e-9, 1 + 1e-9))
        assert len(all_triples) == 4
        for t in ts:
            assert (t.v1, t.v2, t.v3) in all_triples

    def test_sample_size_bounds_result(self):
        D = cycle(12)
        ts_all = find_equilateral_triples(D, sides(D, 4), m=1.0, seed=0)
        ts_few = find_equilateral_triples(D, sides(D, 4), m=0.25, seed=0)
        assert len(ts_all) == 4
        assert 1 <= len(ts_few) <= math.ceil(0.25 * 12)
        assert set(ts_few) <= set(ts_all)

    def test_sampling_is_seed_deterministic(self):
        D = cycle(30)
        a = find_equilateral_triples(D, sides(D, 10), m=0.3, seed=7)
        b = find_equilateral_triples(D, sides(D, 10), m=0.3, seed=7)
        c = find_equilateral_triples(D, sides(D, 10), m=0.3, seed=8)
        assert a == b
        assert a != c or len(a) == 0

    def test_sentinel_pairs_never_joined(self):
        for w, h, key in ((1.0, None, 1), (0.7, 0.35, 2)):
            edges = [(0, 1, w), (1, 2, w), (0, 2, w), (3, 4, w), (4, 5, w), (3, 5, w)]
            D = shortest_path_matrix(Graph.from_edges(6, edges))
            assert D.integer_valued is (h is None)
            keys = _side_keys(D, h)
            # the sentinel is never a valid side: its pairs belong to no scale
            assert D.sentinel is not None and not keys[D.d == D.sentinel].any()
            assert np.unique(keys).tolist() == [0, key]
            ts = find_equilateral_triples(D, keys == key, m=1.0, seed=0)
            assert [(t.v1, t.v2, t.v3) for t in ts] == [(0, 1, 2), (3, 4, 5)]

    def test_invalid_params(self):
        D = cycle(6)
        with pytest.raises(InputError):
            find_equilateral_triples(D, sides(D, 2)[:5], m=1.0)
        with pytest.raises(InputError):
            find_equilateral_triples(D, sides(D, 2), m=0.0)


class TestRhoMinmax:
    def test_tripod_is_one_with_center_witness(self):
        D = star()
        t = make_triple(D, 1, 2, 3)
        rv = rho_minmax(D, t)
        assert rv.rho == 1.0 and rv.witness == 0

    def test_c6_triple_is_two(self):
        D = cycle(6)
        rv = rho_minmax(D, make_triple(D, 0, 2, 4))
        assert rv.rho == 2.0

    def test_k3_own_vertex_witness(self):
        D = shortest_path_matrix(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        rv = rho_minmax(D, make_triple(D, 0, 1, 2))
        assert rv.rho == 2.0 and rv.witness == 0

    def test_matches_plain_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            edges = oracles.random_connected_er(rng, 25, 0.15)
            D = shortest_path_matrix(Graph.from_edges(25, edges))
            for side in range(1, int(D.diameter) + 1):
                for a, b, c in oracles.enumerate_equilateral(D, side - 1e-9, side + 1e-9):
                    t = make_triple(D, a, b, c)
                    rv = rho_minmax(D, t)
                    rho_o, w_o = oracles.rho_minmax_loop(D, a, b, c, t.r)
                    assert rv.rho == rho_o
                    assert rv.witness == w_o
                    assert 1.0 <= rv.rho <= 2.0


class TestRhoBallGrowth:
    def test_tripod_terminates_immediately(self):
        D = star()
        rv = rho_ball_growth(D, make_triple(D, 1, 2, 3))
        assert rv.rho == 1.0

    def test_c6_grows_to_two(self):
        D = cycle(6)
        rv = rho_ball_growth(D, make_triple(D, 0, 2, 4))
        assert rv.rho == 2.0

    def test_arithmetic_step_within_one_step(self):
        D = cycle(9)
        t = make_triple(D, 0, 3, 6)  # equilateral, side 3
        exact = rho_minmax(D, t).rho
        stepped = rho_ball_growth(D, t, step=0.25).rho
        assert exact <= stepped <= exact + 0.25 / t.r + 1e-12

    def test_cross_component_triple_trips_guard(self):
        D = shortest_path_matrix(Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))
        t = make_triple(D, 0, 1, 3)  # spans two components, side = sentinel
        with pytest.raises(RuntimeError):
            rho_ball_growth(D, t)

    def test_equals_minmax_on_random_connected_graphs(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            n = int(rng.integers(8, 30))
            edges = oracles.random_connected_er(rng, n, 0.2)
            D = shortest_path_matrix(Graph.from_edges(n, edges))
            for side in range(1, int(D.diameter) + 1):
                for a, b, c in oracles.enumerate_equilateral(D, side - 1e-9, side + 1e-9):
                    t = make_triple(D, a, b, c)
                    assert rho_ball_growth(D, t).rho == rho_minmax(D, t).rho


class TestRhoGeneral:
    def test_collinear_assigned_one(self):
        D = shortest_path_matrix(Graph.from_edges(3, [(0, 1), (1, 2)]))
        rv = rho_general(D, 0, 1, 2)
        assert rv.rho == 1.0 and rv.witness == 1

    def test_equilateral_agrees_with_minmax(self):
        D = cycle(6)
        assert rho_general(D, 0, 2, 4).rho == rho_minmax(D, make_triple(D, 0, 2, 4)).rho

    def test_cross_component_rejected(self):
        D = shortest_path_matrix(Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))
        with pytest.raises(InputError):
            rho_general(D, 0, 1, 3)


class TestBuildProfile:
    def test_binary_tree_profile_is_exactly_one(self):
        D = shortest_path_matrix(tree_graph(2, 6))
        p = build_profile(D, m=1.0, seed=0)
        assert not p.is_empty
        for rec in p.records:
            assert rec.mean_rho == 1.0
            assert all(x == 1.0 for x in rec.rho_values)
        # unweighted-tree equilateral sides are even
        assert all((2 * rec.r) % 2 == 0 for rec in p.records)

    def test_circle_sample_hits_high_rho(self):
        D = circle_sample(400, seed=3)
        p = build_profile(D, m=1.0, seed=3)
        assert not p.is_empty
        for rec in p.records:
            if rec.count >= 5:
                assert rec.mean_rho >= 1.9

    def test_records_sorted_and_counts_consistent(self):
        rng = np.random.default_rng(5)
        edges = oracles.random_connected_er(rng, 40, 0.12)
        D = shortest_path_matrix(Graph.from_edges(40, edges))
        p = build_profile(D, m=1.0, seed=5)
        rs = [rec.r for rec in p.records]
        assert rs == sorted(rs) and len(set(rs)) == len(rs)
        for rec in p.records:
            assert rec.count == len(rec.rho_values)
            assert rec.count <= 40
            assert rec.mean_rho == pytest.approx(float(np.mean(rec.rho_values)))

    def test_determinism_across_workers(self):
        rng = np.random.default_rng(6)
        edges = oracles.random_connected_er(rng, 60, 0.08)
        D = shortest_path_matrix(Graph.from_edges(60, edges))
        p1 = build_profile(D, m=0.3, seed=9, workers=1)
        p8 = build_profile(D, m=0.3, seed=9, workers=8)
        assert p1.records == p8.records

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        edges = [(i, j, float(rng.uniform(0.5, 2.0))) for i in range(25) for j in range(i + 1, 25) if rng.random() < 0.2]
        D = shortest_path_matrix(Graph.from_edges(25, edges))
        S = D.scaled(7.3)
        p = build_profile(D, m=1.0, seed=1)
        ps = build_profile(S, m=1.0, seed=1)
        assert len(p.records) == len(ps.records)
        for a, b in zip(p.records, ps.records):
            assert b.r == pytest.approx(7.3 * a.r, rel=1e-12)
            assert a.count == b.count
            for x, y in zip(a.rho_values, b.rho_values):
                assert y == pytest.approx(x, rel=1e-12)

    def test_median_flag(self):
        D = cycle(6)
        pm = build_profile(D, m=1.0, seed=0, typical="median")
        assert pm.meta["typical"] == "median"
        for rec in pm.records:
            assert rec.mean_rho == float(np.median(rec.rho_values))

    def test_rho_in_range_everywhere(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            edges = oracles.random_connected_er(rng, 35, 0.15)
            D = shortest_path_matrix(Graph.from_edges(35, edges))
            p = build_profile(D, m=1.0, seed=seed)
            for rec in p.records:
                assert all(1.0 <= x <= 2.0 for x in rec.rho_values)

    def test_empty_graph_gives_empty_profile(self):
        D = shortest_path_matrix(Graph.from_edges(3, [(0, 1)]))
        p = build_profile(D, m=1.0, seed=0)
        assert p.is_empty

    def test_integer_metric_skips_sides_that_round_to_zero(self):
        # a 1e-12 edge keeps the metric integer-valued but its side rounds to 0
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1e-12)]
        D = shortest_path_matrix(Graph.from_edges(4, edges))
        assert D.integer_valued
        p = build_profile(D, m=1.0, seed=0)
        assert [rec.r for rec in p.records] == [0.5]

    def test_cluster_sample_restricts_triple_membership(self):
        from curvprof import cluster_sample_subset

        rng = np.random.default_rng(9)
        edges = oracles.random_connected_er(rng, 50, 0.12)
        D = shortest_path_matrix(Graph.from_edges(50, edges))
        subset = set(cluster_sample_subset(D, 4, 5, seed=2).tolist())
        assert len(subset) <= 20
        p = build_profile(D, m=1.0, seed=2, cluster_sample=(4, 5))
        assert p.meta["cluster_sample"] == [4, 5]
        for rec in p.records:
            assert rec.count <= 50
        full = build_profile(D, m=1.0, seed=2)
        assert sum(r.count for r in p.records) <= sum(r.count for r in full.records)
        # membership restriction is real: rebuild the triples and check them
        for rec in p.records:
            outside = np.array([v not in subset for v in range(D.n)])
            keys = _side_keys(D, None)
            keys[outside] = 0
            keys[:, outside] = 0
            k = int(2 * rec.r)
            ts = find_equilateral_triples(D, keys == k, m=1.0, seed=[2, k])
            assert len(ts) == rec.count
            for t in ts:
                assert {t.v1, t.v2, t.v3} <= subset

    def test_cluster_sample_deterministic(self):
        D = cycle(20)
        a = build_profile(D, m=1.0, seed=4, cluster_sample=(3, 4))
        b = build_profile(D, m=1.0, seed=4, cluster_sample=(3, 4))
        assert a.records == b.records

    def test_weighted_binning_rule(self):
        rng = np.random.default_rng(8)
        edges = [(i, j, float(rng.uniform(0.5, 1.5))) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.4]
        D = shortest_path_matrix(Graph.from_edges(20, edges))
        h = D.diameter / 10
        p = build_profile(D, m=1.0, seed=0, h=h)
        assert p.meta["side_bin"] == h
        for rec in p.records:
            k = round(2 * rec.r / h - 0.5)
            assert rec.r == pytest.approx((k + 0.5) * h / 2)
            assert k >= 1

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -0.5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_side_bin_must_be_finite_and_positive(self, h, weighted):
        w = 1.5 if weighted else 1.0
        D = shortest_path_matrix(Graph.from_edges(3, [(0, 1, w), (1, 2, 2 * w), (0, 2, 2 * w)]))
        assert D.integer_valued is not weighted
        with pytest.raises(InputError, match="side bin width"):
            build_profile(D, m=1.0, seed=0, h=h)

    def test_side_bin_rejected_on_integer_valued_metric(self):
        D = shortest_path_matrix(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
        assert D.integer_valued
        with pytest.raises(InputError, match="weighted metrics only"):
            build_profile(D, m=1.0, seed=0, h=0.5)

    def test_binned_cycle_keeps_the_window_floor_misses(self):
        # floor(d / h) keys the triangle side 1.7 one window above the one holding it
        D = shortest_path_matrix(Graph.from_edges(51, [(i, (i + 1) % 51, 0.1) for i in range(51)]))
        p = build_profile(D, m=1.0, seed=0)
        assert len(p.records) == 1
        assert p.records[0].rho_values == (2.0,) * 17
        # the record is labelled by the window [k*h, (k+1)*h) that holds the side
        h, side = p.meta["side_bin"], D.d[0, 17]
        k = round(2 * p.records[0].r / h - 0.5)
        assert k * h <= side < (k + 1) * h

    @pytest.mark.parametrize("case", ["er", "plane"])
    def test_peak_memory_below_two_and_a_half_matrices(self, case):
        import tracemalloc

        from curvprof import adaptive_graph
        from curvprof.generate import erdos_renyi, plane_sample

        g = erdos_renyi(800, 4.0, seed=0) if case == "er" else adaptive_graph(plane_sample(1000, seed=0), 15, 20)
        D = shortest_path_matrix(g)
        tracemalloc.start()
        try:
            build_profile(D, m=0.1, seed=0, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * D.d.nbytes


class TestClosedFormAndSerialization:
    def test_circle_closed_form(self):
        assert rho_circle_closed_form(2 * math.pi / 3) == pytest.approx(2.0)
        assert rho_circle_closed_form(math.pi) == pytest.approx(1.0)
        assert rho_circle_closed_form(math.pi / 2) == pytest.approx(3.0)
        with pytest.raises(InputError):
            rho_circle_closed_form(0.0)
        with pytest.raises(InputError):
            rho_circle_closed_form(2 * math.pi)

    def test_plane_reference_constant(self):
        assert RHO_PLANE == pytest.approx(2 / math.sqrt(3))

    def test_json_roundtrip(self):
        D = cycle(6)
        p = build_profile(D, m=1.0, seed=0)
        q = profile_from_dict(profile_to_dict(p))
        assert q.records == p.records
        assert q.meta == p.meta

    def test_equidistant_arc_triple_exact_two(self):
        side = 2 * math.pi / 3
        D = circle_arc_metric([0.0, side, 2 * side])
        # float angles cannot make the three arcs identical, but the true
        # arc metric of the equidistant configuration is the constant matrix
        import curvprof

        Dc = curvprof.distance_matrix_from_array(side * (1 - np.eye(3)))
        def arc_window(M):
            return (M.d >= side * 0.9) & (M.d < side * 1.1)

        t = find_equilateral_triples(Dc, arc_window(Dc), m=1.0, seed=0)[0]
        assert rho_minmax(Dc, t).rho == 2.0
        # and the float-angle construction agrees to machine precision
        t2 = find_equilateral_triples(D, arc_window(D), m=1.0, seed=0)[0]
        assert rho_minmax(D, t2).rho == pytest.approx(2.0, abs=1e-12)

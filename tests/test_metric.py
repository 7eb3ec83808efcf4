import numpy as np
import pytest

import oracles
from curvprof import (
    Graph,
    InputError,
    distance_matrix_from_array,
    gromov_products,
    lambda_measure,
    load_distance_csv,
    load_edge_list,
    shortest_path_matrix,
)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestShortestPaths:
    def test_path_graph_two_hops(self):
        D = shortest_path_matrix(path_graph(3))
        assert D.d[0, 2] == 2.0

    def test_disconnected_sentinel_is_100x_max(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        D = shortest_path_matrix(g)
        assert D.sentinel == 100.0
        assert D.d[0, 2] == 100.0
        assert D.diameter == 1.0

    def test_five_cycle_symmetry(self):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        D = shortest_path_matrix(g)
        for i in range(5):
            assert D.d[i, (i + 2) % 5] == 2.0

    def test_zero_vertices_rejected(self):
        with pytest.raises(InputError):
            shortest_path_matrix(Graph(n=0, i=(), j=(), w=()))

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 1, -1.0)])

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, w):
        # the first bad edge is named, after valid ones and before later bad ones
        with pytest.raises(InputError, match=rf"non-finite edge weight {w} on \(1,2\)"):
            Graph.from_edges(4, [(0, 1, 1.0), (2, 1, w), (2, 3, -1.0)])

    def test_edgeless_graph_goes_through_the_one_solver(self, monkeypatch):
        import curvprof.metric as metric_mod

        calls = []
        real = metric_mod.shortest_path
        monkeypatch.setattr(metric_mod, "shortest_path", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        D = shortest_path_matrix(Graph.from_edges(3, []))
        assert len(calls) == 1
        assert D.d.tolist() == [[0.0, 100.0, 100.0], [100.0, 0.0, 100.0], [100.0, 100.0, 0.0]]
        assert D.diameter == 0.0
        assert D.sentinel == 100.0
        assert D.integer_valued
        assert D.d.dtype == np.float64 and D.d.flags.c_contiguous

    def test_matches_floyd_warshall_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for trial in range(12):
            n = int(rng.integers(5, 51))
            edges = []
            for i in range(n - 1):
                for j in range(i + 1, n):
                    if rng.random() < 0.15:
                        edges.append((i, j, float(rng.integers(1, 6))))
            if not edges:
                continue
            g = Graph.from_edges(n, edges)
            D = shortest_path_matrix(g)
            oracle = oracles.floyd_warshall(n, edges)
            finite = np.isfinite(oracle)
            assert np.array_equal(D.d[finite], oracle[finite])
            if not finite.all():
                assert D.sentinel is not None
                assert np.all(D.d[~finite] == D.sentinel)
                assert D.sentinel > D.diameter
            else:
                assert D.sentinel is None

    def test_triangle_inequality_on_finite_entries(self):
        rng = np.random.default_rng(3)
        edges = [(i, j, float(rng.uniform(0.5, 2.0))) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.3]
        D = shortest_path_matrix(Graph.from_edges(12, edges))
        fin = D.finite_mask()
        for i in range(12):
            for j in range(12):
                for k in range(12):
                    if fin[i, j] and fin[j, k] and fin[i, k]:
                        assert D.d[i, k] <= D.d[i, j] + D.d[j, k] + 1e-9

    def test_weighted_geodesics(self):
        g = Graph.from_edges(3, [(0, 1, 1.5), (1, 2, 2.5), (0, 2, 5.0)])
        D = shortest_path_matrix(g)
        assert D.d[0, 2] == 4.0
        assert not D.integer_valued

    def test_integer_detection(self):
        D = shortest_path_matrix(path_graph(4))
        assert D.integer_valued


class TestGromovProducts:
    def test_equilateral(self):
        g = gromov_products(2, 2, 2)
        assert (g.r1, g.r2, g.r3) == (1, 1, 1)

    def test_3_4_5(self):
        g = gromov_products(3, 4, 5)
        assert (g.r1, g.r2, g.r3) == (1, 2, 3)
        # cross-check against straight linear-system solve
        A = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
        expected = np.linalg.solve(A, np.array([3.0, 4.0, 5.0]))
        assert np.allclose(g.as_array(), expected)

    def test_collinear(self):
        g = gromov_products(2, 1, 1)
        assert (g.r1, g.r2, g.r3) == (1, 1, 0)

    def test_defining_equations_hold_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = rng.uniform(0.1, 10, 2)
            c = rng.uniform(abs(a - b), a + b)
            g = gromov_products(a, b, c)
            assert abs((g.r1 + g.r2) - a) <= 1e-12 * max(1, a)
            assert abs((g.r1 + g.r3) - b) <= 1e-12 * max(1, b)
            assert abs((g.r2 + g.r3) - c) <= 1e-12 * max(1, c)
            assert g.all_nonnegative

    def test_triangle_violation_flagged_not_raised(self):
        g = gromov_products(10, 1, 1)
        assert not g.all_nonnegative

    def test_negative_distance_rejected(self):
        with pytest.raises(InputError):
            gromov_products(-1, 1, 1)


class TestLambdaMeasure:
    def test_equilateral_gives_two(self):
        assert lambda_measure(2, 2, 2).lam == 2.0
        assert lambda_measure(2, 2, 2).is_equilateral

    def test_collinear_gives_one(self):
        s = lambda_measure(2, 1, 1)
        assert s.lam == 1.0
        assert s.is_degenerate

    def test_3_4_5(self):
        assert lambda_measure(3, 4, 5).lam == pytest.approx(1.4, abs=1e-12)

    def test_closed_form_matches_alpha_scan(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = rng.uniform(0.5, 5, 2)
            c = rng.uniform(abs(a - b) + 1e-6, a + b - 1e-6)
            lam = lambda_measure(a, b, c).lam
            scan = oracles.lambda_alpha_scan(a, b, c)
            assert scan is not None
            assert abs(lam - scan) <= 2.0 / 400000

    def test_range_on_graph_triples(self):
        rng = np.random.default_rng(4)
        edges = oracles.random_connected_er(rng, 20, 0.2)
        D = shortest_path_matrix(Graph.from_edges(20, edges))
        for _ in range(200):
            i, j, k = rng.choice(20, size=3, replace=False)
            s = lambda_measure(D.d[i, j], D.d[i, k], D.d[j, k])
            assert 1.0 <= s.lam <= 2.0

    def test_zero_side_rejected(self):
        with pytest.raises(InputError):
            lambda_measure(0, 1, 1)


class TestDistanceMatrixValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            distance_matrix_from_array([[0, 1], [2, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InputError):
            distance_matrix_from_array([[1, 1], [1, 0]])

    def test_scaled_copy(self):
        D = shortest_path_matrix(path_graph(4))
        S = D.scaled(7.3)
        assert np.allclose(S.d, 7.3 * D.d)
        assert S.diameter == pytest.approx(7.3 * D.diameter)

    def test_scaled_disconnected_copy_keeps_sentinel_rule(self):
        D = shortest_path_matrix(Graph.from_edges(4, [(0, 1), (2, 3)]))
        S = D.scaled(0.3)
        assert S.diameter == 0.3
        assert S.sentinel == 100 * S.diameter
        assert np.array_equal(S.d == S.sentinel, D.d == D.sentinel)
        assert not S.integer_valued

    def test_finalisation_needs_no_full_size_side_copies(self):
        import tracemalloc

        from curvprof.generate import erdos_renyi

        g = erdos_renyi(800, 4.0, seed=0)
        tracemalloc.start()
        try:
            D = shortest_path_matrix(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix, its finite mask and one float scratch array
        assert peak < 3 * D.d.nbytes


class TestLoaders:
    def test_edge_list_roundtrip(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# comment\n0 1\n1 2 2.5\n")
        g = load_edge_list(p)
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.5))

    def test_one_based_autodetect(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("1 2\n2 3\n")
        g = load_edge_list(p)
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1 2 3\n")
        with pytest.raises(InputError):
            load_edge_list(p)

    def test_distance_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        np.savetxt(p, np.array([[0.0, 1.0], [1.0, 0.0]]), delimiter=",")
        D = load_distance_csv(p)
        assert D.d[0, 1] == 1.0

    def test_non_square_csv_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1,2\n1,0,3\n")
        with pytest.raises(InputError):
            load_distance_csv(p)

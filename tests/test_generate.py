import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from curvprof import (
    InputError,
    build_profile,
    circle_arc_metric,
    circle_sample,
    dla_tree,
    erdos_renyi,
    gaussian_isometric,
    plane_sample,
    tree_graph,
    watts_strogatz,
)


class TestErdosRenyi:
    def test_expected_edge_count(self):
        g = erdos_renyi(1000, 4.0, seed=0)
        n_pairs = 1000 * 999 / 2
        p = 4.0 / 999
        sigma = math.sqrt(n_pairs * p * (1 - p))
        assert abs(len(g.edges) - 2000) <= 5 * sigma

    def test_p_near_one_gives_complete_graph(self):
        g = erdos_renyi(6, 5 - 1e-12, seed=1)
        assert len(g.edges) == 15

    def test_seed_determinism(self):
        assert erdos_renyi(100, 3.0, seed=42).edges == erdos_renyi(100, 3.0, seed=42).edges
        assert erdos_renyi(100, 3.0, seed=42).edges != erdos_renyi(100, 3.0, seed=43).edges

    def test_param_validation(self):
        with pytest.raises(InputError):
            erdos_renyi(1, 1.0)
        with pytest.raises(InputError):
            erdos_renyi(10, 9.5)


class TestWattsStrogatz:
    def test_beta_zero_ring_lattice(self):
        g = watts_strogatz(20, 4, 0.0, seed=0)
        deg = np.zeros(20, dtype=int)
        for i, j, _ in g.edges:
            deg[i] += 1
            deg[j] += 1
        assert np.all(deg == 4)

    def test_beta_zero_k2_is_cycle(self):
        g = watts_strogatz(8, 2, 0.0, seed=0)
        assert {(i, j) for i, j, _ in g.edges} == {(i, (i + 1) % 8) if i < (i + 1) % 8 else ((i + 1) % 8, i) for i in range(8)}

    def test_edge_count_preserved_under_rewiring(self):
        g = watts_strogatz(1000, 4, 0.1, seed=7)
        assert len(g.edges) == 2000
        assert g.edges == watts_strogatz(1000, 4, 0.1, seed=7).edges

    def test_odd_k_rejected(self):
        with pytest.raises(InputError):
            watts_strogatz(10, 3, 0.1)


class TestCircle:
    def test_equidistant_triple_rho_two(self):
        import curvprof

        side = 2 * math.pi / 3
        D = curvprof.distance_matrix_from_array(side * (1 - np.eye(3)))
        from curvprof import rho_minmax

        assert rho_minmax(D, [(0, 1, 2)])[0].tolist() == [2.0]

    def test_antipodal_distance_pi(self):
        D = circle_arc_metric([0.0, math.pi])
        assert D.d[0, 1] == pytest.approx(math.pi)

    def test_radius_scaling_preserves_rho(self):
        D1 = circle_sample(120, seed=2, radius=1.0)
        D2 = circle_sample(120, seed=2, radius=2.0)
        assert np.array_equal(D2.d, 2.0 * D1.d)
        p1 = build_profile(D1, m=1.0, seed=0)
        p2 = build_profile(D2, m=1.0, seed=0)
        assert len(p1["records"]) == len(p2["records"])
        for a, b in zip(p1["records"], p2["records"]):
            assert b["r"] == pytest.approx(2.0 * a["r"])
            assert b["rho_values"] == pytest.approx(a["rho_values"])


class TestPlaneAndTree:
    def test_plane_seed_determinism(self):
        assert np.array_equal(plane_sample(50, seed=1).coords, plane_sample(50, seed=1).coords)

    def test_plane_in_unit_square(self):
        c = plane_sample(200, seed=0).coords
        assert c.min() >= 0 and c.max() <= 1 and c.shape == (200, 2)

    def test_tree_depth1_is_star(self):
        g = tree_graph(2, 1)
        assert g.n == 3
        assert {(i, j) for i, j, _ in g.edges} == {(0, 1), (0, 2)}

    def test_tree_node_count_closed_form(self):
        for b, d in [(2, 4), (3, 3), (4, 2)]:
            g = tree_graph(b, d)
            assert g.n == (b ** (d + 1) - 1) // (b - 1)


class TestDlaTree:
    def test_small_exact_construction(self):
        cloud = dla_tree(2, 3, 1)
        want = np.array([[0, 0], [1, 0], [2, 0], [2, 0], [2, 1], [2, 2]], dtype=float)
        assert np.array_equal(cloud.coords, want)

    def test_point_count(self):
        cloud = dla_tree(10, 30, 2, seed=5)
        assert cloud.coords.shape == (300, 20)

    def test_endpoint_continuity(self):
        k, l, m = 6, 10, 3
        cloud = dla_tree(k, l, m, seed=9)
        pts = cloud.coords.reshape(k, l, k * m)
        starts = {tuple(pts[j, 0]) for j in range(1, k)}
        ends = {tuple(pts[j, -1]) for j in range(k)}
        assert starts <= ends

    def test_branches_move_only_in_own_block(self):
        k, l, m = 5, 8, 2
        cloud = dla_tree(k, l, m, seed=3)
        pts = cloud.coords.reshape(k, l, k * m)
        for j in range(k):
            block = slice(j * m, (j + 1) * m)
            moving = pts[j] - pts[j, 0]
            outside = np.delete(moving, range(j * m, (j + 1) * m), axis=1)
            assert np.all(outside == 0)
            assert np.all(np.diff(pts[j, :, block], axis=0) > 0)

    def test_dimension_formula(self):
        cloud = dla_tree(10, 5, 60, seed=0)
        assert cloud.dim == 600

    def test_param_validation(self):
        with pytest.raises(InputError):
            dla_tree(1, 10, 2)
        with pytest.raises(InputError):
            dla_tree(3, 1, 2)


class TestGaussianIsometric:
    def test_distances_preserved(self):
        low, high = gaussian_isometric(200, 3, seed=0)
        assert np.abs(pdist(low.coords) - pdist(high.coords)).max() <= 1e-10

    def test_ambient_dimension(self):
        low, high = gaussian_isometric(100, 2, seed=1)
        assert low.dim == 2 and high.dim == 52

    def test_seed_determinism(self):
        a = gaussian_isometric(50, 4, seed=3)[1].coords
        b = gaussian_isometric(50, 4, seed=3)[1].coords
        assert np.array_equal(a, b)

    def test_param_validation(self):
        with pytest.raises(InputError):
            gaussian_isometric(3, 3)

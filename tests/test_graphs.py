import numpy as np
import pytest

from curvprof import (
    InputError,
    PointCloud,
    adaptive_graph,
    density_scores,
    epsilon_graph,
    knn_graph,
    load_point_cloud,
)


def line_cloud():
    return PointCloud(coords=np.array([[0.0], [1.0], [3.0]]))


def square_corners():
    return PointCloud(coords=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


class TestKnnGraph:
    def test_three_collinear_points_k1(self):
        g = knn_graph(line_cloud(), 1)
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))

    def test_k_equals_n_minus_1_is_complete(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(coords=rng.random((6, 3)))
        g = knn_graph(cloud, 5)
        assert len(g.edges) == 15

    def test_unit_square_k2_is_4_cycle(self):
        g = knn_graph(square_corners(), 2)
        assert {(i, j) for i, j, _ in g.edges} == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert all(w == 1.0 for _, _, w in g.edges)

    def test_k_too_large_rejected(self):
        with pytest.raises(InputError):
            knn_graph(line_cloud(), 3)

    def test_precomputed_matrix_accepted(self):
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        g = knn_graph(d, 1)
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(coords=rng.random((40, 2)))
        assert knn_graph(cloud, 4).edges == knn_graph(cloud, 4).edges


class TestEpsilonGraph:
    def test_single_pair_in_range(self):
        g = epsilon_graph(line_cloud(), 1.0)
        assert g.edges == ((0, 1, 1.0),)

    def test_eps_at_diameter_is_complete(self):
        g = epsilon_graph(square_corners(), 2.0)
        assert len(g.edges) == 6

    def test_eps_below_min_distance_is_edgeless(self):
        g = epsilon_graph(line_cloud(), 0.5)
        assert g.edges == ()

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(InputError):
            epsilon_graph(line_cloud(), 0.0)


class TestAdaptiveGraph:
    def test_kmin_equals_kmax_reproduces_knn(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(coords=rng.random((30, 2)))
        assert adaptive_graph(cloud, 3, 3).edges == knn_graph(cloud, 3).edges

    def test_uniform_density_uses_midpoint_k(self):
        cloud = PointCloud(coords=np.arange(8, dtype=float)[:, None])
        scores = density_scores(cloud, 1, 3)
        inner = scores.k_per_point[2:-2]
        assert np.all(scores.normalized[2:-2] == scores.normalized[2])
        assert np.all(inner == inner[0])

    def test_degenerate_normalization_constant_half(self):
        # 4 corners of a square: all neighbor statistics identical
        scores = density_scores(square_corners(), 1, 3)
        assert np.all(scores.normalized == 0.5)
        assert np.all(scores.k_per_point == 2)

    def test_density_monotone_in_k(self):
        rng = np.random.default_rng(2)
        dense = rng.normal(0, 0.05, (25, 2))
        sparse = rng.normal(10, 2.0, (25, 2))
        cloud = PointCloud(coords=np.vstack([dense, sparse]))
        scores = density_scores(cloud, 2, 8)
        order = np.argsort(scores.raw)
        assert np.all(np.diff(scores.k_per_point[order]) >= 0)
        assert scores.k_per_point[:25].mean() > scores.k_per_point[25:].mean()

    def test_direction_flag_flips(self):
        rng = np.random.default_rng(2)
        dense = rng.normal(0, 0.05, (25, 2))
        sparse = rng.normal(10, 2.0, (25, 2))
        cloud = PointCloud(coords=np.vstack([dense, sparse]))
        asc = density_scores(cloud, 2, 8, direction="asc")
        desc = density_scores(cloud, 2, 8, direction="desc")
        assert asc.k_per_point[:25].mean() > desc.k_per_point[:25].mean()

    def test_min_degree_at_least_kmin(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(coords=rng.random((50, 2)))
        g = adaptive_graph(cloud, 4, 9)
        deg = np.zeros(50, dtype=int)
        for i, j, _ in g.edges:
            deg[i] += 1
            deg[j] += 1
        assert deg.min() >= 4

    def test_duplicate_points_logged_not_fatal(self, caplog):
        coords = np.vstack([np.zeros((4, 2)), np.random.default_rng(0).random((6, 2))])
        cloud = PointCloud(coords=coords)
        with caplog.at_level("WARNING"):
            scores = density_scores(cloud, 2, 3)
        assert np.isfinite(scores.raw).all()
        assert scores.raw[0] == scores.raw.max()

    def test_kmax_too_large_rejected(self):
        with pytest.raises(InputError):
            adaptive_graph(line_cloud(), 1, 3)

    def test_ranges_validated(self):
        with pytest.raises(InputError):
            adaptive_graph(square_corners(), 3, 2)

    def test_neighbor_lists_computed_once(self, monkeypatch):
        import curvprof.graphs as graphs_mod

        rows = []
        real_cdist = graphs_mod.cdist
        monkeypatch.setattr(graphs_mod, "cdist", lambda a, b: rows.append(len(a)) or real_cdist(a, b))
        monkeypatch.setattr(graphs_mod, "pdist", None)
        adaptive_graph(PointCloud(coords=np.random.default_rng(5).random((80, 2))), 3, 6)
        assert sum(rows) == 80  # every distance row once, no full matrix

    def test_dense_neighbor_lists_stay_below_half_the_matrix(self):
        import tracemalloc

        from curvprof.generate import plane_sample

        cloud = plane_sample(2000, seed=0)
        tracemalloc.start()
        try:
            adaptive_graph(cloud, 15, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cloud.n**2 / 2


class TestKdTreeBackend:
    def test_knn_matches_dense_backend(self, monkeypatch):
        import curvprof.graphs as graphs_mod

        rng = np.random.default_rng(7)
        cloud = PointCloud(coords=rng.random((300, 2)))
        dense = knn_graph(cloud, 5).edges
        monkeypatch.setattr(graphs_mod, "DENSE_LIMIT", 10)
        kd = knn_graph(cloud, 5).edges
        assert {(i, j) for i, j, _ in kd} == {(i, j) for i, j, _ in dense}
        np.testing.assert_allclose(
            [w for _, _, w in kd], [w for _, _, w in dense], rtol=1e-12
        )

    def test_epsilon_matches_dense_backend(self, monkeypatch):
        import curvprof.graphs as graphs_mod

        rng = np.random.default_rng(8)
        cloud = PointCloud(coords=rng.random((200, 2)))
        dense = epsilon_graph(cloud, 0.1).edges
        monkeypatch.setattr(graphs_mod, "DENSE_LIMIT", 10)
        kd = epsilon_graph(cloud, 0.1).edges
        assert {(i, j) for i, j, _ in kd} == {(i, j) for i, j, _ in dense}

    def test_adaptive_matches_dense_backend(self, monkeypatch):
        import curvprof.graphs as graphs_mod

        rng = np.random.default_rng(9)
        cloud = PointCloud(coords=rng.random((150, 3)))
        dense = adaptive_graph(cloud, 3, 6).edges
        monkeypatch.setattr(graphs_mod, "DENSE_LIMIT", 10)
        kd = adaptive_graph(cloud, 3, 6).edges
        assert {(i, j) for i, j, _ in kd} == {(i, j) for i, j, _ in dense}


class TestPointCloudIO:
    def test_load_plain(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.0,0.0\n1.0,0.5\n2.0,1.0\n")
        cloud = load_point_cloud(p)
        assert cloud.n == 3 and cloud.dim == 2

    def test_header_auto_skipped(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.0,0.0\n1.0,0.5\n")
        cloud = load_point_cloud(p)
        assert cloud.n == 2

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            PointCloud(coords=np.array([[0.0], [np.nan]]))

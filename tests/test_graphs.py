import numpy as np
import pytest

from curvprof import (
    InputError,
    PointCloud,
    adaptive_graph,
    distance_matrix_from_array,
    epsilon_graph,
    knn_graph,
    load_input,
)
from curvprof.graphs import _neighbor_lists, _scores


def line_cloud():
    return PointCloud(coords=np.array([[0.0], [1.0], [3.0]]))


def square_corners():
    return PointCloud(coords=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def k_per_point(cloud, k_min, k_max, direction="asc"):
    """The per-point neighbor counts adaptive_graph selects with."""
    return _scores(_neighbor_lists(cloud, k_max)[1], k_min, k_max, direction)


def two_blobs():
    rng = np.random.default_rng(2)
    dense = rng.normal(0, 0.05, (25, 2))
    sparse = rng.normal(10, 2.0, (25, 2))
    return PointCloud(coords=np.vstack([dense, sparse]))


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
        d = distance_matrix_from_array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        g = knn_graph(d, 1)
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))

    @pytest.mark.parametrize("build", [lambda x: knn_graph(x, 1), lambda x: epsilon_graph(x, 1.5),
                                       lambda x: adaptive_graph(x, 1, 2)], ids=["knn", "eps", "adaptive"])
    def test_raw_array_rejected(self, build):
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        with pytest.raises(InputError, match="PointCloud or a DistanceMatrix, got ndarray"):
            build(d)

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
        # evenly spaced line: the inner points share one density, the ends are sparser
        cloud = PointCloud(coords=np.arange(8, dtype=float)[:, None])
        k = k_per_point(cloud, 1, 3)
        assert np.all(k[2:-2] == 3)
        assert k[0] == k[-1] == 1

    def test_degenerate_normalization_constant_half(self):
        # 4 corners of a square: all neighbor statistics identical, so every score is 0.5
        assert k_per_point(square_corners(), 1, 3).tolist() == [2, 2, 2, 2]
        assert k_per_point(square_corners(), 1, 3, direction="desc").tolist() == [2, 2, 2, 2]

    def test_density_monotone_in_k(self):
        cloud = two_blobs()
        density = 1.0 / _neighbor_lists(cloud, 8)[1].mean(axis=1)
        k = k_per_point(cloud, 2, 8)
        assert np.all(np.diff(k[np.argsort(density)]) >= 0)
        assert k[:25].mean() > k[25:].mean()

    def test_direction_flag_flips(self):
        asc = k_per_point(two_blobs(), 2, 8, direction="asc")
        desc = k_per_point(two_blobs(), 2, 8, direction="desc")
        assert asc[:25].mean() > desc[:25].mean()
        assert np.all(asc + desc == 2 + 8)

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
            k = k_per_point(cloud, 2, 3)
        assert "4 duplicate point(s): density set to the global maximum" in caplog.text
        # the duplicates count as the densest points
        assert np.all(k[:4] == 3)
        assert k.min() >= 2

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


class TestPointCloudIO:
    def test_load_plain(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.0,0.0\n1.0,0.5\n2.0,1.0\n")
        _, cloud = load_input(p, "points")
        assert cloud.n == 3 and cloud.dim == 2

    def test_header_auto_skipped(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.0,0.0\n1.0,0.5\n")
        _, cloud = load_input(p, "points")
        assert cloud.n == 2

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            PointCloud(coords=np.array([[0.0], [np.nan]]))


class TestLoadInput:
    # the square-metric test runs before distance_matrix_from_array: a near-zero diagonal
    # is taken for a metric and then refused, and a 1 x 1 CSV is taken for a point cloud
    @pytest.mark.parametrize(
        "name, text, answer",
        [
            ("d.csv", "0,1,2\n1,0,1\n2,1,0\n", "dist"),
            ("d.csv", "0,1\n1,1e-13\n", "diagonal must be zero"),
            ("d.csv", "0\n", "at least 2 points"),
            ("d.csv", "0,1\n2,0\n", "points"),
            ("g.edges", "0 1\n1 2\n", "graph"),
        ],
        ids=["metric", "near-zero-diagonal", "one-by-one", "asymmetric", "edge-list"],
    )
    def test_auto_detection(self, tmp_path, name, text, answer):
        p = tmp_path / name
        p.write_text(text)
        if answer in ("dist", "points", "graph"):
            assert load_input(p)[0] == answer
        else:
            with pytest.raises(InputError, match=answer):
                load_input(p)

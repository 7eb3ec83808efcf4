import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from curvprof import (
    Graph,
    InputError,
    PointCloud,
    classical_mds,
    distance_matrix_from_array,
    isomap,
    load_external_embedding,
    shortest_path_matrix,
)


def euclidean_dm(coords):
    return distance_matrix_from_array(squareform(pdist(coords)))


class TestClassicalMDS:
    def test_unit_equilateral_recovered(self):
        D = distance_matrix_from_array(1.0 - np.eye(3))
        res = classical_mds(D, 2)
        assert np.allclose(pdist(res.points.coords), 1.0, atol=1e-9)

    def test_planar_cloud_recovered_exactly(self):
        rng = np.random.default_rng(0)
        coords = rng.random((20, 2))
        res = classical_mds(euclidean_dm(coords), 2)
        assert np.allclose(pdist(res.points.coords), pdist(coords), atol=1e-8)
        assert res.stress <= 1e-8
        assert res.n_clamped == 0

    def test_star_tree_not_flat(self):
        D = shortest_path_matrix(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        res = classical_mds(D, 2)
        assert res.eigenvalues.min() < 0
        assert res.stress > 0

    def test_eigenvalues_descending_and_sign_convention(self):
        rng = np.random.default_rng(1)
        coords = rng.random((15, 3))
        res = classical_mds(euclidean_dm(coords), 3)
        assert np.all(np.diff(res.eigenvalues) <= 1e-9)
        for col in range(3):
            pivot = np.argmax(np.abs(res.points.coords[:, col]))
            assert res.points.coords[pivot, col] >= 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        D = euclidean_dm(rng.random((12, 4)))
        a = classical_mds(D, 3).points.coords
        b = classical_mds(D, 3).points.coords
        assert np.array_equal(a, b)

    def test_dimension_range_validated(self):
        D = distance_matrix_from_array(1.0 - np.eye(3))
        with pytest.raises(InputError):
            classical_mds(D, 3)
        with pytest.raises(InputError):
            classical_mds(D, 0)

    def test_disconnected_rejected(self):
        D = shortest_path_matrix(Graph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(InputError):
            classical_mds(D, 2)

    def test_raw_array_rejected(self):
        with pytest.raises(InputError, match="PointCloud or a DistanceMatrix, got ndarray"):
            classical_mds(1.0 - np.eye(3), 2)


class TestIsomap:
    def test_arc_lengths_recovered(self):
        theta = np.linspace(0.0, 2.0, 60)
        coords = np.column_stack([np.cos(theta), np.sin(theta)])
        res = isomap(PointCloud(coords=coords), k=2, d=1)
        got = squareform(pdist(res.points.coords))
        want = np.abs(theta[:, None] - theta[None, :])
        mask = want > 0
        rel = np.abs(got[mask] - want[mask]) / want[mask]
        assert rel.max() <= 0.05

    def test_planar_grid_self_consistency(self):
        # k=8 includes the diagonal neighbors; with axis neighbors only the
        # geodesics degenerate to Manhattan distances
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        coords = np.column_stack([xs.ravel(), ys.ravel()])
        res = isomap(PointCloud(coords=coords), k=8, d=2)
        got = pdist(res.points.coords)
        want = pdist(coords)
        corr = np.corrcoef(got, want)[0, 1]
        assert corr >= 0.99

    def test_complete_graph_equals_ambient_mds(self):
        rng = np.random.default_rng(3)
        coords = rng.random((12, 3))
        cloud = PointCloud(coords=coords)
        res_iso = isomap(cloud, k=11, d=3)
        res_mds = classical_mds(euclidean_dm(coords), 3)
        assert np.allclose(res_iso.eigenvalues, res_mds.eigenvalues, atol=1e-9)

    def test_accepts_prebuilt_graph(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        res = isomap(g, k=0, d=2)
        assert res.points.n == 4

    def test_disconnected_keeps_largest_component(self):
        coords = np.vstack(
            [np.random.default_rng(4).random((10, 2)), 100.0 + np.random.default_rng(5).random((4, 2))]
        )
        with pytest.warns(UserWarning, match="largest component"):
            res = isomap(PointCloud(coords=coords), k=2, d=2)
        assert res.kept_indices is not None
        assert len(res.kept_indices) == 10
        assert res.points.n == 10


class TestExternalEmbedding:
    def test_load_valid(self, tmp_path):
        p = tmp_path / "emb.csv"
        np.savetxt(p, np.random.default_rng(0).random((100, 2)), delimiter=",")
        cloud = load_external_embedding(p, expected_n=100)
        assert cloud.n == 100 and cloud.dim == 2

    def test_row_mismatch_rejected(self, tmp_path):
        p = tmp_path / "emb.csv"
        np.savetxt(p, np.random.default_rng(0).random((99, 2)), delimiter=",")
        with pytest.raises(InputError, match="99"):
            load_external_embedding(p, expected_n=100)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("a,b\n" + "\n".join(f"{i}.0,{i}.5" for i in range(100)) + "\n")
        cloud = load_external_embedding(p, expected_n=100)
        assert cloud.n == 100

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("a,b\nc,d\n1,2\n")
        with pytest.raises(InputError):
            load_external_embedding(p)

import re

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from curvprof import (
    Graph,
    InputError,
    PointCloud,
    classical_mds,
    cli,
    distance_matrix_from_array,
    isomap,
    load_input,
    shortest_path_matrix,
)


def euclidean_dm(coords):
    return distance_matrix_from_array(squareform(pdist(coords)))


class TestClassicalMDS:
    def test_unit_equilateral_recovered(self):
        D = distance_matrix_from_array(1.0 - np.eye(3))
        coords, _ = classical_mds(D, 2)
        assert np.allclose(pdist(coords), 1.0, atol=1e-9)

    def test_planar_cloud_recovered_exactly(self):
        rng = np.random.default_rng(0)
        coords = rng.random((20, 2))
        got, _ = classical_mds(euclidean_dm(coords), 2)
        assert np.allclose(pdist(got), pdist(coords), atol=1e-8)

    def test_star_tree_not_flat(self):
        D = shortest_path_matrix(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        _, eigenvalues = classical_mds(D, 2)
        assert eigenvalues.min() < 0

    def test_eigenvalues_descending_and_sign_convention(self):
        rng = np.random.default_rng(1)
        coords = rng.random((15, 3))
        got, eigenvalues = classical_mds(euclidean_dm(coords), 3)
        assert np.all(np.diff(eigenvalues) <= 1e-9)
        for col in range(3):
            pivot = np.argmax(np.abs(got[:, col]))
            assert got[pivot, col] >= 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        D = euclidean_dm(rng.random((12, 4)))
        a, _ = classical_mds(D, 3)
        b, _ = classical_mds(D, 3)
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
        got, _, _ = isomap(PointCloud(coords=coords), k=2, d=1)
        got = squareform(pdist(got))
        want = np.abs(theta[:, None] - theta[None, :])
        mask = want > 0
        rel = np.abs(got[mask] - want[mask]) / want[mask]
        assert rel.max() <= 0.05

    def test_planar_grid_self_consistency(self):
        # k=8 includes the diagonal neighbors; with axis neighbors only the
        # geodesics degenerate to Manhattan distances
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        coords = np.column_stack([xs.ravel(), ys.ravel()])
        got, _, _ = isomap(PointCloud(coords=coords), k=8, d=2)
        got = pdist(got)
        want = pdist(coords)
        corr = np.corrcoef(got, want)[0, 1]
        assert corr >= 0.99

    def test_complete_graph_equals_ambient_mds(self):
        rng = np.random.default_rng(3)
        coords = rng.random((12, 3))
        cloud = PointCloud(coords=coords)
        _, evals_iso, _ = isomap(cloud, k=11, d=3)
        _, evals_mds = classical_mds(euclidean_dm(coords), 3)
        assert np.allclose(evals_iso, evals_mds, atol=1e-9)

    def test_accepts_prebuilt_graph(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        coords, _, _ = isomap(g, k=0, d=2)
        assert coords.shape[0] == 4

    def test_disconnected_keeps_largest_component(self, caplog):
        coords = np.vstack(
            [np.random.default_rng(4).random((10, 2)), 100.0 + np.random.default_rng(5).random((4, 2))]
        )
        with caplog.at_level("WARNING", logger="curvprof.embed"):
            got, _, kept = isomap(PointCloud(coords=coords), k=2, d=2)
        assert "largest component (10 of 14 points)" in caplog.text
        assert kept is not None
        assert len(kept) == 10
        assert got.shape[0] == 10


class TestExternalEmbedding:
    def test_load_valid(self, tmp_path):
        p = tmp_path / "emb.csv"
        np.savetxt(p, np.random.default_rng(0).random((100, 2)), delimiter=",")
        _, cloud = load_input(p, "points")
        assert cloud.n == 100 and cloud.dim == 2

    def test_row_mismatch_rejected(self, tmp_path):
        p = tmp_path / "emb_d2.csv"
        np.savetxt(p, np.random.default_rng(0).random((99, 2)), delimiter=",")
        with pytest.raises(InputError, match=re.escape(f"{p}: embedding has 99 rows but the dataset has 100 points")):
            cli._external_embeddings(tmp_path, [2], 100)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("a,b\n" + "\n".join(f"{i}.0,{i}.5" for i in range(100)) + "\n")
        _, cloud = load_input(p, "points")
        assert cloud.n == 100

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("a,b\nc,d\n1,2\n")
        with pytest.raises(InputError):
            load_input(p, "points")

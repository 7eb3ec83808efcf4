"""Classical MDS and Isomap embeddings, plus ingestion of external ones."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.csgraph import connected_components

from .graphs import PointCloud, _pairwise, knn_graph, load_point_cloud
from .metric import Graph, InputError, _adjacency, distance_matrix_from_array, shortest_path_matrix


@dataclass(frozen=True)
class EmbeddingResult:
    """Coordinates plus the spectral bookkeeping of the solve.

    ``eigenvalues`` is the full descending spectrum of the doubly centered
    Gram matrix; ``n_clamped`` counts negative eigenvalues among the top d
    that were clamped to zero; ``stress`` is the fraction of absolute
    spectral mass not carried by the coordinates (0 for an exactly
    d-realizable metric). ``kept_indices`` is set when a disconnected input
    was reduced to its largest component.
    """

    points: PointCloud
    eigenvalues: np.ndarray
    d: int
    stress: float
    n_clamped: int
    kept_indices: np.ndarray | None = None


def classical_mds(D, d) -> EmbeddingResult:
    """Classical (Torgerson) MDS of a finite metric into d dimensions.

    Double-centers the squared distances, takes the top-d eigenpairs of the
    resulting Gram matrix, clamps negative eigenvalues to zero and fixes
    each axis sign so its largest-magnitude coordinate is positive. ``D``
    is a DistanceMatrix or a PointCloud (Euclidean metric); any other type
    is an InputError.
    """
    arr = _pairwise(D)
    n = arr.shape[0]
    if not (1 <= d < n):
        raise InputError(f"target dimension d={d} must satisfy 1 <= d < n={n}")
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    B = -0.5 * J @ (arr**2) @ J
    B = 0.5 * (B + B.T)
    evals, evecs = np.linalg.eigh(B)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    coords = evecs[:, :d] * np.sqrt(np.maximum(evals[:d], 0.0))
    for col in range(d):
        pivot = np.argmax(np.abs(coords[:, col]))
        if coords[pivot, col] < 0:
            coords[:, col] = -coords[:, col]
    return _leading(EmbeddingResult(PointCloud(coords=coords), evals, d, 0.0, 0), d)


def _leading(res: EmbeddingResult, d) -> EmbeddingResult:
    """The first d axes of an embedding, with stress and clamping counted for d.

    Axes do not depend on how many are kept, so one solve at the largest
    dimension serves every smaller one exactly.
    """
    top = res.eigenvalues[:d]
    carried = float(np.maximum(top, 0.0).sum())
    total_mass = float(np.abs(res.eigenvalues).sum())
    stress = 0.0 if total_mass == 0 else max(0.0, (total_mass - carried) / total_mass)
    return EmbeddingResult(
        points=PointCloud(coords=res.points.coords[:, :d]),
        eigenvalues=res.eigenvalues,
        d=d,
        stress=stress,
        n_clamped=int(np.sum(top < 0)),
        kept_indices=res.kept_indices,
    )


def isomap(data, k, d) -> EmbeddingResult:
    """Geodesic MDS: kNN-graph shortest paths fed into classical MDS.

    Accepts a PointCloud or a DistanceMatrix to build the kNN graph from,
    or an already-built Graph. A disconnected graph is reduced
    to its largest component with a warning.
    """
    if isinstance(data, Graph):
        g = data
    else:
        g = knn_graph(data, k)
    Dm = shortest_path_matrix(g)
    if Dm.sentinel is None:
        return classical_mds(Dm, d)
    _, labels = connected_components(_adjacency(g), directed=False)
    kept = np.flatnonzero(labels == int(np.argmax(np.bincount(labels))))
    warnings.warn(
        f"kNN graph is disconnected; embedding the largest component ({kept.size} of {g.n} points)",
        stacklevel=2,
    )
    res = classical_mds(distance_matrix_from_array(Dm.d[np.ix_(kept, kept)]), d)
    return replace(res, kept_indices=kept)


def load_external_embedding(path, expected_n=None) -> PointCloud:
    """Read an externally produced embedding CSV as a point cloud.

    ``expected_n`` guards against pairing an embedding with the wrong
    dataset; a mismatch is an explicit error.
    """
    cloud = load_point_cloud(path)
    if expected_n is not None and cloud.n != expected_n:
        raise InputError(
            f"{path}: embedding has {cloud.n} rows but the dataset has {expected_n} points"
        )
    return cloud

"""Classical MDS and Isomap embeddings."""

from __future__ import annotations

import logging

import numpy as np

from .graphs import _pairwise, knn_graph
from .metric import Graph, InputError, distance_matrix_from_array, shortest_path_matrix

logger = logging.getLogger(__name__)


def classical_mds(D, d):
    """Classical (Torgerson) MDS of a finite metric into d dimensions.

    Double-centers the squared distances, takes the top-d eigenpairs of the
    resulting Gram matrix, clamps negative eigenvalues to zero and fixes
    each axis sign so its largest-magnitude coordinate is positive. ``D``
    is a DistanceMatrix or a PointCloud (Euclidean metric); any other type
    is an InputError. Returns ``(coords, eigenvalues)``: the n x d axes and
    the full descending spectrum. Axes do not depend on how many are kept,
    so ``coords[:, :k]`` is the k-dimensional embedding for every k <= d.
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
    return coords, evals


def isomap(data, k, d):
    """Geodesic MDS: kNN-graph shortest paths fed into classical MDS.

    Accepts a PointCloud or a DistanceMatrix to build the kNN graph from,
    or an already-built Graph. A disconnected graph is reduced to its
    largest component, the one of the lowest vertex id on ties, with a
    logged warning; ``d`` must then lie below that component's size.
    Returns ``(coords, eigenvalues, kept)``: :func:`classical_mds`'s pair
    and the embedded input rows, or None when every row was embedded.
    """
    g = data if isinstance(data, Graph) else knn_graph(data, k)
    Dm = shortest_path_matrix(g)
    if Dm.connected:
        return *classical_mds(Dm, d), None
    # a vertex's finite row entries are its component
    finite = np.isfinite(Dm.d)
    kept = np.flatnonzero(finite[finite.sum(axis=1).argmax()])
    if d >= kept.size:
        raise InputError(f"target dimension d={d} must be below {kept.size}, the point count of the "
                         f"largest component of the disconnected graph on n={g.n} points")
    logger.warning("%s is disconnected; embedding the largest component (%d of %d points)",
                   "graph" if data is g else "kNN graph", kept.size, g.n)
    return *classical_mds(distance_matrix_from_array(Dm.d[np.ix_(kept, kept)]), d), kept

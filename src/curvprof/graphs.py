"""Neighborhood graphs of point clouds or metrics, and ``load_input``, the one data-file reader.

Three rules are provided: the plain symmetric k-NN graph ("vanilla"), the
epsilon-ball graph, and a density-adaptive k-NN graph whose per-point k
interpolates between k_min and k_max according to a normalized local
density score.

Every rule reads the pairwise distances in row blocks of about 1 MB
(``cdist`` rows of a point cloud, slices of a metric), whatever the input
size, so a graph never depends on n crossing a threshold. Neighbor lists
are exact and ordered by (distance, index).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .metric import (
    DistanceMatrix,
    Graph,
    InputError,
    _read_csv,
    _row_ranges,
    _square_checks,
    distance_matrix_from_array,
    load_edge_list,
)

logger = logging.getLogger(__name__)

EDGE_EXTENSIONS = {".edges", ".edgelist", ".txt", ".tsv"}


@dataclass(frozen=True)
class PointCloud:
    """n points in an ambient Euclidean space, one row per point, kept as a read-only copy."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=np.float64)
        if c.ndim != 2:
            raise InputError(f"point cloud must be 2-D, got shape {c.shape}")
        if c.shape[0] < 2:
            raise InputError("point cloud needs at least 2 points")
        if not np.isfinite(c).all():
            raise InputError("point cloud contains NaN or Inf coordinates")
        object.__setattr__(self, "coords", c)
        c.setflags(write=False)

    @property
    def n(self):
        return self.coords.shape[0]

    @property
    def dim(self):
        return self.coords.shape[1]


def _pairwise(data):
    """Dense pairwise distances of a PointCloud or a DistanceMatrix.

    The one normalizer behind neighborhood graphs and MDS, and the one
    place that checks their input: any other type, or a metric with
    disconnected pairs (``inf`` entries), is an InputError.
    """
    if isinstance(data, PointCloud):
        return cdist(data.coords, data.coords)
    if not isinstance(data, DistanceMatrix):
        raise InputError(f"expected a PointCloud or a DistanceMatrix, got {type(data).__name__}")
    if not data.connected:
        raise InputError("metric has disconnected pairs: use one connected component")
    return data.d


def _row_blocks(data):
    """The pairwise distances as fresh ``(lo, d)`` row blocks of ``metric._row_ranges``.

    ``d`` holds the rows from ``lo`` on: ``cdist`` rows of a point cloud,
    copied slices of a metric. The input checks of ``_pairwise`` run on the
    call, before any block is made.
    """
    full = None if isinstance(data, PointCloud) else _pairwise(data)
    return (
        (lo, cdist(data.coords[lo:hi], data.coords) if full is None else np.array(full[lo:hi]))
        for lo, hi in _row_ranges(data.n)
    )


def _neighbor_lists(data, kmax):
    """Indices and distances of the kmax nearest neighbors of every point.

    Rows are sorted by (distance, index), so rank ties always resolve to
    the smaller vertex id.
    """
    blocks = _row_blocks(data)
    n = data.n
    if kmax >= n:
        raise InputError(f"k={kmax} must be smaller than the number of points n={n}")
    idx = np.empty((n, kmax), dtype=np.int64)
    dist = np.empty((n, kmax))
    for lo, d in blocks:
        b = len(d)
        d[np.arange(b), np.arange(lo, lo + b)] = np.inf  # the point itself sorts last
        # every entry up to the row's kmax-th smallest, ties at that distance included
        r, c = np.nonzero(d <= np.partition(d, kmax - 1, axis=1)[:, kmax - 1, None])
        v = d[r, c]
        order = np.lexsort((c, v, r))
        # r is sorted, and so is r[order]: an entry's rank is its offset from its row's start
        keep = order[np.arange(len(r)) - np.searchsorted(r, r) < kmax]
        idx[lo:lo + b] = c[keep].reshape(b, kmax)
        dist[lo:lo + b] = v[keep].reshape(b, kmax)
    return idx, dist


def knn_graph(data, k) -> Graph:
    """Symmetric k-nearest-neighbor graph (edge if either endpoint selects the other)."""
    if k < 1:
        raise InputError("k must be >= 1")
    idx, dist = _neighbor_lists(data, k)
    return _graph_from_neighbor_selection(idx, dist, np.full(data.n, k))


def epsilon_graph(data, eps) -> Graph:
    """Connect every pair at distance <= eps, weighted by that distance."""
    if not eps > 0:  # NaN fails too; inf links every pair
        raise InputError(f"eps must be positive, got {eps}")
    edges = []
    for lo, d in _row_blocks(data):
        r, c = np.nonzero(np.triu(d <= eps, k=lo + 1))  # the pairs (lo + r, c) with c > lo + r
        edges.append(np.column_stack((r + lo, c, d[r, c])))
    return Graph.from_edges(data.n, np.concatenate(edges))


def _scores(dist, k_min, k_max, direction):
    """Neighbor count of every point, interpolated by its density score.

    ``dist`` holds each point's k_max nearest-neighbor distances. Density is
    the inverse of their mean (duplicate points get the largest finite
    density); scores are min-max normalized (a flat 0.5 when every point
    has the same density). ``direction`` controls whether denser points get
    k nearer k_max ("asc") or nearer k_min ("desc").
    """
    mean_dist = dist.mean(axis=1)
    with np.errstate(divide="ignore"):
        raw = 1.0 / mean_dist
    dup = ~np.isfinite(raw)
    if dup.any():
        finite = raw[~dup]
        fill = finite.max() if finite.size else 1.0
        logger.warning("%d duplicate point(s): density set to the global maximum", int(dup.sum()))
        raw = np.where(dup, fill, raw)
    lo, hi = raw.min(), raw.max()
    if hi > lo:
        normalized = (raw - lo) / (hi - lo)
    else:
        normalized = np.full_like(raw, 0.5)
    score = normalized if direction == "asc" else 1.0 - normalized
    return np.rint(k_min + score * (k_max - k_min)).astype(np.int64)


def adaptive_graph(data, k_min, k_max, direction="asc") -> Graph:
    """Density-adaptive k-NN graph: per-point k interpolated by density score."""
    if not (1 <= k_min <= k_max):
        raise InputError(f"need 1 <= k_min <= k_max, got ({k_min}, {k_max})")
    if direction not in ("asc", "desc"):
        raise InputError("direction must be 'asc' or 'desc'")
    idx, dist = _neighbor_lists(data, k_max)
    return _graph_from_neighbor_selection(idx, dist, _scores(dist, k_min, k_max, direction))


def _graph_from_neighbor_selection(idx, dist, k_per_point):
    """Union-symmetrized edge set from per-point neighbor selections.

    Point i selects its first k_per_point[i] neighbors; an edge chosen from
    both ends keeps the weight seen first in (i, rank) order.
    """
    n, kmax = idx.shape
    take = np.arange(kmax) < np.asarray(k_per_point)[:, None]
    rows = np.broadcast_to(np.arange(n)[:, None], idx.shape)[take]
    cols = idx[take]
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    _, first = np.unique(lo * n + hi, return_index=True)
    return Graph.from_edges(n, np.column_stack((lo[first], hi[first], dist[take][first])))


def _looks_square_metric(arr):
    """Whether a CSV array reads as a metric: square, near-zero diagonal, nonnegative and symmetric.

    Infinite entries pass, so that :func:`distance_matrix_from_array` refuses them by name.
    """
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        return False
    if not np.allclose(np.diag(arr), 0.0, atol=1e-12):
        return False
    _, nonnegative, symmetric = _square_checks(arr)
    return nonnegative and symmetric


def load_input(path, fmt=None):
    """Read any data file as ('graph', Graph), ('dist', DistanceMatrix) or ('points', PointCloud).

    Auto-detection: edge-list extensions parse as edge lists; CSVs become a
    distance matrix when square/symmetric/zero-diagonal and a point cloud
    otherwise. ``fmt`` ('edgelist', 'distmatrix' or 'points') overrides it.
    """
    if fmt is None and Path(path).suffix.lower() in EDGE_EXTENSIONS:
        fmt = "edgelist"
    if fmt == "edgelist":
        return "graph", load_edge_list(path)
    if fmt not in (None, "distmatrix", "points"):
        raise InputError(f"unknown format {fmt!r}")
    arr = _read_csv(path)
    if fmt == "distmatrix" or (fmt is None and _looks_square_metric(arr)):
        return "dist", distance_matrix_from_array(arr)
    return "points", PointCloud(coords=arr)

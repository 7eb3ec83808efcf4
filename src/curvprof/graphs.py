"""Neighborhood-graph construction from point clouds or precomputed metrics.

Three rules are provided: the plain symmetric k-NN graph ("vanilla"), the
epsilon-ball graph, and a density-adaptive k-NN graph whose per-point k
interpolates between k_min and k_max according to a normalized local
density score.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist, squareform

from .metric import DistanceMatrix, Graph, InputError, _read_csv

logger = logging.getLogger(__name__)

# above this size pairwise matrices stop fitting comfortably in memory and
# neighbor queries go through a kd-tree instead
DENSE_LIMIT = 4096


@dataclass(frozen=True)
class PointCloud:
    """n points in an ambient Euclidean space, one row per point."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
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


@dataclass(frozen=True)
class DensityScores:
    """Per-point density estimates and the neighbor counts derived from them."""

    raw: np.ndarray
    normalized: np.ndarray
    k_per_point: np.ndarray


def _pairwise(data):
    """Dense pairwise distances of a PointCloud, DistanceMatrix or square array.

    The one normalizer behind neighborhood graphs and MDS; a metric with
    disconnected pairs (sentinel entries) is rejected by both.
    """
    if isinstance(data, PointCloud):
        return squareform(pdist(data.coords))
    if isinstance(data, DistanceMatrix):
        if data.sentinel is not None:
            raise InputError("metric has disconnected pairs: use one connected component")
        return data.d
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("precomputed input must be a square distance matrix")
    return arr


def _n_points(data):
    if isinstance(data, (PointCloud, DistanceMatrix)):
        return data.n
    return np.asarray(data).shape[0]


def _kdtree(data):
    """A kd-tree over a point cloud too large for a dense pairwise matrix, else None."""
    if isinstance(data, PointCloud) and data.n > DENSE_LIMIT:
        return cKDTree(data.coords)
    return None


def _neighbor_lists(data, kmax):
    """Indices and distances of the kmax nearest neighbors of every point.

    Rows are sorted by (distance, index) so that rank ties always resolve
    to the smaller vertex id, independent of the query backend.
    """
    n = _n_points(data)
    if kmax >= n:
        raise InputError(f"k={kmax} must be smaller than the number of points n={n}")
    tree = _kdtree(data)
    if tree is None:
        # dense rows a block at a time: the point itself sorts last as +inf
        full = None if isinstance(data, PointCloud) else _pairwise(data)
        idx = np.empty((n, kmax), dtype=np.int64)
        dist = np.empty((n, kmax))
        step = max(1, (1 << 18) // n)  # about 2 MB of float64 per block
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            d = cdist(data.coords[lo:hi], data.coords) if full is None else np.array(full[lo:hi])
            d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            idx[lo:hi] = np.argsort(d, axis=1, kind="stable")[:, :kmax]
            dist[lo:hi] = np.take_along_axis(d, idx[lo:hi], axis=1)
        return idx, dist
    # kd-tree: the point itself sorts last as +inf (it may be missing when
    # duplicates crowd it out), then an index-aware re-sort of the candidates
    dist, idx = tree.query(data.coords, k=kmax + 1)
    dist[idx == np.arange(n)[:, None]] = np.inf
    order = np.lexsort((idx, dist), axis=1)[:, :kmax]
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(dist, order, axis=1)


def knn_graph(data, k) -> Graph:
    """Symmetric k-nearest-neighbor graph (edge if either endpoint selects the other)."""
    if k < 1:
        raise InputError("k must be >= 1")
    idx, dist = _neighbor_lists(data, k)
    return _graph_from_neighbor_selection(
        idx, dist, np.full(_n_points(data), k), params={"rule": "knn", "k": int(k)}
    )


def epsilon_graph(data, eps) -> Graph:
    """Connect every pair at distance <= eps, weighted by that distance."""
    if eps <= 0:
        raise InputError("eps must be positive")
    tree = _kdtree(data)
    if tree is None:
        dense = _pairwise(data)
        i, j = np.nonzero(np.triu(dense <= eps, k=1))
        w = dense[i, j]
    else:
        i, j = tree.query_pairs(eps, output_type="ndarray").T
        diff = data.coords[i] - data.coords[j]
        # one dot product per pair, the same sum np.linalg.norm takes
        w = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
    return Graph.from_edges(
        _n_points(data), np.column_stack((i, j, w)), params={"rule": "epsilon", "eps": float(eps)}
    )


def density_scores(data, k_min, k_max, direction="asc") -> DensityScores:
    """Local density per point and the interpolated neighbor counts.

    Density is the inverse of the mean distance to the k_max nearest
    neighbors; scores are min-max normalized (a flat 0.5 when every point
    has the same density). ``direction`` controls whether denser points get
    k nearer k_max ("asc", default) or nearer k_min ("desc").
    """
    _validate_k_range(k_min, k_max, _n_points(data), direction)
    _, dist = _neighbor_lists(data, k_max)
    return _scores(dist, k_min, k_max, direction)


def _scores(dist, k_min, k_max, direction):
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
    k_per_point = np.rint(k_min + score * (k_max - k_min)).astype(np.int64)
    return DensityScores(raw=raw, normalized=normalized, k_per_point=k_per_point)


def adaptive_graph(data, k_min, k_max, direction="asc") -> Graph:
    """Density-adaptive k-NN graph: per-point k interpolated by density score."""
    _validate_k_range(k_min, k_max, _n_points(data), direction)
    idx, dist = _neighbor_lists(data, k_max)
    return _graph_from_neighbor_selection(
        idx,
        dist,
        _scores(dist, k_min, k_max, direction).k_per_point,
        params={
            "rule": "adaptive",
            "k_min": int(k_min),
            "k_max": int(k_max),
            "direction": direction,
        },
    )


def _validate_k_range(k_min, k_max, n, direction):
    if not (1 <= k_min <= k_max):
        raise InputError(f"need 1 <= k_min <= k_max, got ({k_min}, {k_max})")
    if k_max >= n:
        raise InputError(f"k_max={k_max} must be smaller than the number of points n={n}")
    if direction not in ("asc", "desc"):
        raise InputError("direction must be 'asc' or 'desc'")


def _graph_from_neighbor_selection(idx, dist, k_per_point, params):
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
    return Graph.from_edges(
        n, np.column_stack((lo[first], hi[first], dist[take][first])), params=params
    )


def load_point_cloud(path) -> PointCloud:
    """Read a point-cloud CSV (one row per point); a header row is auto-skipped."""
    return PointCloud(coords=_read_csv(path))

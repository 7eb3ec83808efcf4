"""Seeded generators for the synthetic spaces used in profiling experiments.

Model networks (Erdos-Renyi, Watts-Strogatz), reference geometries (circle,
plane, balanced tree), the block-coordinate DLA tree, and isometrically
lifted Gaussian clouds. Every generator is a pure function of its
parameters and seed.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import PointCloud
from .metric import DistanceMatrix, Graph, InputError, distance_matrix_from_array


def erdos_renyi(n, avg_degree, seed=0) -> Graph:
    """G(n, p) with p chosen to hit the requested average degree."""
    if n < 2:
        raise InputError("need n >= 2")
    if not (0 < avg_degree < n - 1):
        raise InputError("need 0 < avg_degree < n-1")
    p = avg_degree / (n - 1)
    rng = np.random.default_rng(seed)
    # row i draws its n-1-i upper-triangle coins in turn; the draw order
    # defines the graph
    hits = [np.flatnonzero(rng.random(n - 1 - i) < p) for i in range(n - 1)]
    i = np.repeat(np.arange(n - 1), [h.size for h in hits])
    j = np.concatenate(hits) + i + 1
    return Graph.from_edges(n, np.column_stack((i, j)))


def watts_strogatz(n, k, beta, seed=0) -> Graph:
    """Ring lattice with k neighbors, each edge rewired with probability beta."""
    if k % 2 != 0:
        raise InputError("k must be even")
    if not (0 < k < n):
        raise InputError("need 0 < k < n")
    if not (0 <= beta <= 1):
        raise InputError("beta must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    ring = np.tile(np.arange(n), k // 2)
    far = (ring + np.repeat(np.arange(1, k // 2 + 1), n)) % n
    edges = set(zip(np.minimum(ring, far).tolist(), np.maximum(ring, far).tolist()))
    # rewiring preserves the edge count: each lattice edge either stays or
    # moves its far endpoint to a uniformly random non-duplicate target
    for offset in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + offset) % n
            key = (min(i, j), max(i, j))
            if rng.random() >= beta:
                continue
            w = int(rng.integers(n))
            tries = 0
            while w == i or (min(i, w), max(i, w)) in edges:
                w = int(rng.integers(n))
                tries += 1
                if tries > 10 * n:
                    w = None  # saturated vertex, keep the lattice edge
                    break
            if w is None:
                continue
            edges.remove(key)
            edges.add((min(i, w), max(i, w)))
    return Graph.from_edges(n, list(edges))


def circle_arc_metric(angles, radius=1.0) -> DistanceMatrix:
    """Geodesic (arc-length) distance matrix of points at given angles."""
    if not (0 < radius < math.inf):
        raise InputError(f"radius must be finite and positive, got {radius}")
    theta = np.asarray(angles, dtype=np.float64) % (2 * math.pi)
    delta = np.abs(theta[:, None] - theta[None, :])
    d = radius * np.minimum(delta, 2 * math.pi - delta)
    np.fill_diagonal(d, 0.0)
    return distance_matrix_from_array(d)


def circle_sample(n, seed=0, radius=1.0) -> DistanceMatrix:
    """n uniform points on a circle with the intrinsic arc metric."""
    if n < 3:
        raise InputError("need n >= 3")
    rng = np.random.default_rng(seed)
    return circle_arc_metric(rng.uniform(0, 2 * math.pi, n), radius=radius)


def plane_sample(n, seed=0) -> PointCloud:
    """n uniform points in the unit square."""
    if n < 2:
        raise InputError("need n >= 2")
    rng = np.random.default_rng(seed)
    return PointCloud(coords=rng.random((n, 2)))


def tree_graph(branching, depth) -> Graph:
    """Balanced rooted tree with unit edges; node 0 is the root."""
    if branching < 2:
        raise InputError("branching must be >= 2")
    if depth < 1:
        raise InputError("depth must be >= 1")
    # breadth-first numbering: the parent of v is (v - 1) // branching
    v = np.arange(1, (branching ** (depth + 1) - 1) // (branching - 1))
    return Graph.from_edges(v.size + 1, np.column_stack(((v - 1) // branching, v)))


def dla_tree(branches, length, subdim, seed=0, length_jitter=0.0, noise=0.0) -> PointCloud:
    """Synthetic tree in R^(branches*subdim) whose branches grow in disjoint coordinate blocks.

    Branch 1 starts at the origin and advances one unit per node in its own
    subdim coordinates; every later branch starts at the endpoint of its
    parent (branches 2 and 3 hang off branch 1, later ones off a uniformly
    chosen earlier branch) and advances in its own block. ``length_jitter``
    perturbs branch lengths by a uniform relative factor; ``noise`` adds
    isotropic Gaussian jitter to all coordinates. Both default to off, which
    keeps the construction deterministic in shape with exactly
    branches * length points.
    """
    if branches < 2:
        raise InputError("need branches >= 2")
    if length < 2:
        raise InputError("need length >= 2")
    if subdim < 1:
        raise InputError("need subdim >= 1")
    if not (0 <= length_jitter < 1):
        raise InputError("length_jitter must lie in [0, 1)")
    if not (0 <= noise < math.inf):
        raise InputError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    dim = branches * subdim
    rows = []
    endpoints = []
    for j in range(branches):
        if j == 0:
            base = np.zeros(dim)
        elif j <= 2:
            base = endpoints[0]
        else:
            base = endpoints[int(rng.integers(0, j))]
        nodes = length
        if length_jitter > 0:
            nodes = max(2, int(round(length * (1 + rng.uniform(-length_jitter, length_jitter)))))
        block = slice(j * subdim, (j + 1) * subdim)
        pts = np.tile(base, (nodes, 1))
        pts[:, block] += np.arange(nodes)[:, None]
        rows.append(pts)
        endpoints.append(pts[-1])
    coords = np.vstack(rows)
    if noise > 0:
        coords = coords + rng.normal(0.0, noise, coords.shape)
    return PointCloud(coords=coords)


def gaussian_isometric(n, dim, seed=0, extra_dims=50):
    """n standard-normal points in R^dim and their isometric copy in R^(dim+extra_dims).

    The lift is X Q^T for Q with orthonormal columns obtained by QR of a
    random Gaussian matrix, so all pairwise distances are preserved.
    Returns (low, high) point clouds.
    """
    if not (n > dim >= 1):
        raise InputError("need n > dim >= 1")
    if extra_dims < 0:
        raise InputError(f"extra_dims must be >= 0, got {extra_dims}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    A = rng.standard_normal((dim + extra_dims, dim))
    Q, _ = np.linalg.qr(A)
    Y = X @ Q.T
    return PointCloud(coords=X), PointCloud(coords=Y)

"""Profiles as discrete measures and exact 1-Wasserstein comparison.

A profile becomes a probability distribution over a common (r, rho) grid:
the scale axis is normalized by the profile's own largest r, every triangle
observation is snapped to its nearest grid node, and node masses are
triangle counts over the total. Two distributions on the same grid are
compared by exact optimal transport with Euclidean ground cost, solved as a
linear program on the occupied nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .metric import EmptyResultError, InputError
from .profile import CurvatureProfile

MASS_SUM_TOL = 1e-12

# rho always lies in [1, 2], so every grid spans that rho axis
RHO_RANGE = (1.0, 2.0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform node lattice over the (r_norm, rho) rectangle; rho spans ``RHO_RANGE``."""

    nr: int = 50
    nrho: int = 50
    r_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.nr < 1 or self.nrho < 1:
            raise InputError(f"grid needs at least one node per axis, got {self.nr}x{self.nrho}")

    def nodes(self):
        r_axis = np.linspace(self.r_range[0], self.r_range[1], self.nr)
        rho_axis = np.linspace(RHO_RANGE[0], RHO_RANGE[1], self.nrho)
        rr, pp = np.meshgrid(r_axis, rho_axis, indexing="ij")
        return np.column_stack([rr.ravel(), pp.ravel()])

    def to_dict(self):
        return {
            "nr": self.nr,
            "nrho": self.nrho,
            "r_range": list(self.r_range),
            "rho_range": list(RHO_RANGE),
        }


@dataclass(frozen=True)
class ProfileDistribution:
    """Discrete measure on occupied grid nodes; masses sum to one."""

    support: np.ndarray
    mass: np.ndarray
    grid: GridSpec
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.support.shape[0] != self.mass.shape[0]:
            raise InputError("support and mass lengths differ")
        if self.support.shape[0] == 0:
            raise EmptyResultError("empty distribution")
        if np.any(self.mass < 0):
            raise InputError("negative mass")
        if abs(float(self.mass.sum()) - 1.0) > MASS_SUM_TOL:
            raise InputError(f"masses sum to {self.mass.sum()}, not 1")
        self.support.setflags(write=False)
        self.mass.setflags(write=False)


def to_distribution(profile: CurvatureProfile, grid=None, normalize_r=True) -> ProfileDistribution:
    """Snap a profile's (r, rho) triangle observations onto the grid.

    Each triangle is one observation at (r / max_r, rho) (raw r when
    ``normalize_r`` is off); nearest-node assignment runs through a kd-tree
    and node mass is the snapped count over the total triangle count.
    """
    if profile.is_empty:
        raise EmptyResultError("cannot build a distribution from an empty profile")
    grid = grid or GridSpec()
    max_r = profile.max_r()
    r = np.array([rec.r for rec in profile.records])
    if normalize_r:
        r /= max_r
    obs = np.column_stack((
        np.repeat(r, [rec.count for rec in profile.records]),
        np.concatenate([rec.rho_values for rec in profile.records]),
    ))
    nodes = grid.nodes()
    _, node_idx = cKDTree(nodes).query(obs)
    occupied, counts = np.unique(node_idx, return_counts=True)
    mass = counts / counts.sum()
    return ProfileDistribution(
        support=nodes[occupied],
        mass=mass.astype(np.float64),
        grid=grid,
        meta={"total_triangles": int(counts.sum()), "max_r": max_r, "normalize_r": normalize_r},
    )


def _dist_key(dist):
    return (
        np.asarray(dist.support, dtype=np.float64).tobytes(),
        np.asarray(dist.mass, dtype=np.float64).tobytes(),
    )


def _solve_transport_lp(p, q, M):
    """Exact transport LP between mass vectors p, q with cost matrix M."""
    a, b = len(p), len(q)
    nvar = a * b
    # row-sum constraints (a of them) then column sums with the redundant
    # last column dropped
    row_r = np.repeat(np.arange(a), b)
    col_r = np.arange(nvar)
    row_c = np.repeat(a + np.arange(b - 1), a)
    col_c = (np.arange(a)[None, :] * b + np.arange(b - 1)[:, None]).ravel()
    rows = np.concatenate([row_r, row_c])
    cols = np.concatenate([col_r, col_c])
    data = np.ones(rows.size)
    A_eq = coo_matrix((data, (rows, cols)), shape=(a + b - 1, nvar))
    b_eq = np.concatenate([p, q[:-1]])
    res = linprog(M.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return res.x.reshape(a, b), float(res.fun)


# estimate-dim's repeats come from consecutive candidate dimensions (d = 3..8
# snap to one distribution), so a few entries catch them; the bound caps what
# the cached keys and flows hold on large supports
@functools.lru_cache(maxsize=16)
def _transport(key_a, key_b):
    """Exact transport between two ``_dist_key`` keys: (cost, nonzero flows (i, j, amount))."""
    (support_a, mass_a), (support_b, mass_b) = key_a, key_b
    p, q = np.frombuffer(mass_a), np.frombuffer(mass_b)
    M = cdist(np.frombuffer(support_a).reshape(len(p), -1), np.frombuffer(support_b).reshape(len(q), -1))
    plan, cost = _solve_transport_lp(p, q, M)
    flows = tuple((int(i), int(j), float(plan[i, j])) for i, j in np.argwhere(plan > 1e-15))
    return cost, flows


def wasserstein1(P: ProfileDistribution, Q: ProfileDistribution, return_plan=False):
    """Exact W1 between two distributions on the same grid.

    Euclidean ground metric on the (r_norm, rho) coordinates. The pair is
    put into a canonical order before solving, so the result is exactly
    symmetric and a pair seen recently, in either order, is not solved
    again; identical inputs short-circuit to zero. With ``return_plan`` the
    result is ``(cost, flows)``: the nonzero flows as (index in P, index in
    Q, amount) tuples.
    """
    if P.grid != Q.grid:
        raise InputError("distributions live on different grids")
    key_p, key_q = _dist_key(P), _dist_key(Q)
    if key_p == key_q:
        if return_plan:
            return 0.0, tuple((i, i, float(m)) for i, m in enumerate(P.mass))
        return 0.0
    swapped = key_q < key_p
    cost, flows = _transport(key_q, key_p) if swapped else _transport(key_p, key_q)
    if not return_plan:
        return cost
    if swapped:
        flows = tuple((j, i, amount) for i, j, amount in flows)
    return cost, flows


def estimate_dimension(original: CurvatureProfile, embedded, grid=None, on_empty="error"):
    """W1 of every candidate embedding against the original profile.

    ``embedded`` maps target dimension -> profile; every profile's r is
    divided by its own largest r. Returns (d_best, [(d, w1), ...]) with d
    ascending; d_best is the argmin, smallest dimension on exact ties.

    An empty embedded profile raises with the offending dimension named,
    unless ``on_empty="inf"``: an embedding with no equilateral structure at
    all (e.g. a 1-D re-embedding, whose geodesics are collinear) then scores
    W1 = inf and simply cannot win the argmin.
    """
    if not embedded:
        raise InputError("no candidate dimensions supplied")
    if on_empty not in ("error", "inf"):
        raise InputError("on_empty must be 'error' or 'inf'")
    grid = grid or GridSpec()
    try:
        P0 = to_distribution(original, grid)
    except EmptyResultError as exc:
        raise EmptyResultError(f"original profile is empty: {exc}") from exc
    curve = []
    for d in sorted(embedded):
        try:
            Pd = to_distribution(embedded[d], grid)
        except EmptyResultError as exc:
            if on_empty == "inf":
                curve.append((int(d), float("inf")))
                continue
            raise EmptyResultError(f"profile for dimension {d} is empty") from exc
        curve.append((int(d), float(wasserstein1(P0, Pd))))
    if all(np.isinf(w) for _, w in curve):
        raise EmptyResultError("every candidate profile is empty")
    d_best = min(curve, key=lambda t: (t[1], t[0]))[0]
    return d_best, curve

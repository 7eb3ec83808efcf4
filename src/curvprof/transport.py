"""Profiles as discrete measures and exact 1-Wasserstein comparison.

A profile becomes a probability distribution over a common (r, rho) grid:
the scale axis is normalized by the profile's own largest r, every triangle
observation is snapped to its nearest grid node, and node masses are
triangle counts over the total. Two distributions on the same grid are
compared by exact optimal transport with Euclidean ground cost, solved as a
linear program on the occupied nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .metric import EmptyResultError, InputError

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
    """Discrete measure on k occupied grid nodes, kept as read-only float64 copies; masses sum to one."""

    support: np.ndarray
    mass: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        for name in ("support", "mass"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.support.shape[1:] != (2,) or self.mass.shape != self.support.shape[:1]:
            raise InputError(f"need k x 2 (r, rho) nodes and k masses, got {self.support.shape} and {self.mass.shape}")
        if self.support.shape[0] == 0:
            raise EmptyResultError("empty distribution")
        if np.any(self.mass < 0):
            raise InputError("negative mass")
        if abs(float(self.mass.sum()) - 1.0) > MASS_SUM_TOL:
            raise InputError(f"masses sum to {self.mass.sum()}, not 1")


def to_distribution(profile, grid=None, normalize_r=True) -> ProfileDistribution:
    """Snap a profile's (r, rho) triangle observations onto the grid.

    Each triangle is one observation at (r / max_r, rho) (raw r when
    ``normalize_r`` is off); nearest-node assignment runs through a kd-tree
    and node mass is the snapped count over the total triangle count.
    """
    records = profile["records"]
    if not records:
        raise EmptyResultError("cannot build a distribution from an empty profile")
    grid = grid or GridSpec()
    r = np.array([rec["r"] for rec in records], dtype=np.float64)
    if normalize_r:
        r /= r.max()
    obs = np.column_stack((
        np.repeat(r, [len(rec["rho_values"]) for rec in records]),
        np.concatenate([rec["rho_values"] for rec in records]),
    ))
    nodes = grid.nodes()
    _, node_idx = cKDTree(nodes).query(obs)
    occupied, counts = np.unique(node_idx, return_counts=True)
    return ProfileDistribution(support=nodes[occupied], mass=counts / counts.sum(), grid=grid)


def _dist_key(dist):
    return dist.support.tobytes(), dist.mass.tobytes()


def _solve_transport_lp(p, q, M):
    """Exact transport LP between mass vectors p, q with cost matrix M."""
    a, b = len(p), len(q)
    # flow k, from source k // b to sink k % b, enters that source's row sum
    # and that sink's column sum; the last column sum is redundant and dropped
    k = np.arange(a * b)
    A_eq = coo_matrix(
        (np.ones(2 * k.size), (np.concatenate([k // b, a + k % b]), np.tile(k, 2))), shape=(a + b, a * b)
    ).tocsr()[:-1]
    b_eq = np.concatenate([p, q[:-1]])
    # presolve moved neither the plan nor the iteration count here, and cost a quarter of the solve;
    # at HiGHS's default feasibility tolerance (1e-7) a basic flow can end below 0 and the cost below the optimum
    res = linprog(M.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"presolve": False, "primal_feasibility_tolerance": 1e-9})
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    if res.x.min() < -1e-12:
        raise RuntimeError(f"transport LP returned a negative flow {res.x.min()!r}")
    return res.x.reshape(a, b), float(res.fun)


def wasserstein1(P: ProfileDistribution, Q: ProfileDistribution, return_plan=False):
    """Exact W1 between two distributions on the same grid.

    Euclidean ground metric on the (r_norm, rho) coordinates. The side with
    the smaller ``_dist_key`` is the LP's source, so the result is exactly
    symmetric; identical inputs short-circuit to zero. With ``return_plan``
    the result is ``(cost, flows)``: the nonzero flows as (index in P,
    index in Q, amount) tuples.
    """
    if P.grid != Q.grid:
        raise InputError("distributions live on different grids")
    key_p, key_q = _dist_key(P), _dist_key(Q)
    if key_p == key_q:
        if return_plan:
            return 0.0, tuple((i, i, float(m)) for i, m in enumerate(P.mass))
        return 0.0
    swapped = key_q < key_p
    src, dst = (Q, P) if swapped else (P, Q)
    plan, cost = _solve_transport_lp(src.mass, dst.mass, cdist(src.support, dst.support))
    if not return_plan:
        return cost
    i, j = np.nonzero(plan > 1e-15)
    amounts = plan[i, j]
    if swapped:
        i, j = j, i
    return cost, tuple(zip(i.tolist(), j.tolist(), amounts.tolist()))


def estimate_dimension(original, embedded, grid=None, on_empty="error"):
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
    try:
        P0 = to_distribution(original, grid)
    except EmptyResultError as exc:
        raise EmptyResultError(f"original profile is empty: {exc}") from exc
    # consecutive candidates often snap to one distribution: each distinct one is solved once
    curve, scored = [], {}
    for d in sorted(embedded):
        try:
            Pd = to_distribution(embedded[d], grid)
        except EmptyResultError as exc:
            if on_empty == "inf":
                curve.append((int(d), float("inf")))
                continue
            raise EmptyResultError(f"profile for dimension {d} is empty") from exc
        key = _dist_key(Pd)
        if key not in scored:
            scored[key] = float(wasserstein1(P0, Pd))
        curve.append((int(d), scored[key]))
    if all(np.isinf(w) for _, w in curve):
        raise EmptyResultError("every candidate profile is empty")
    d_best = min(curve, key=lambda t: (t[1], t[0]))[0]
    return d_best, curve

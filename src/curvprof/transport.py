"""Profiles as discrete measures and exact 1-Wasserstein comparison.

A profile becomes a probability distribution over a common (r, rho) grid:
the scale axis is divided by the profile's own largest r (or kept raw on a
grid with ``r_max``), every triangle observation is snapped to its nearest
grid node, and node masses are triangle counts over the total. Two
distributions on the same grid are compared by exact optimal transport with
Euclidean ground cost, solved as a linear program on the occupied nodes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .metric import EmptyResultError, InputError

logger = logging.getLogger(__name__)

MASS_SUM_TOL = 1e-12

# rho always lies in [1, 2], so every grid spans that rho axis
RHO_RANGE = (1.0, 2.0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform (r, rho) lattice: r on [0, 1] (each profile over its own largest r) or raw on [0, r_max]."""

    nr: int = 50
    nrho: int = 50
    r_max: float | None = None

    def __post_init__(self):
        if self.nr < 1 or self.nrho < 1:
            raise InputError(f"grid needs at least one node per axis, got {self.nr}x{self.nrho}")
        if self.r_max is not None and not (math.isfinite(self.r_max) and self.r_max > 0):
            raise InputError(f"grid r_max must be finite and > 0, got {self.r_max!r}")

    def nodes(self):
        r_axis = np.linspace(0.0, self.r_max or 1.0, self.nr)
        rho_axis = np.linspace(RHO_RANGE[0], RHO_RANGE[1], self.nrho)
        rr, pp = np.meshgrid(r_axis, rho_axis, indexing="ij")
        return np.column_stack([rr.ravel(), pp.ravel()])

    def to_dict(self):
        return {
            "nr": self.nr,
            "nrho": self.nrho,
            "r_range": [0.0, self.r_max or 1.0],
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


def to_distribution(profile, grid=None) -> ProfileDistribution:
    """Snap a profile's (r, rho) triangle observations onto the grid.

    Each triangle is one observation at (r / max_r, rho), or at raw (r, rho)
    on a grid with ``r_max``, which must reach the profile's largest r.
    Nearest-node assignment runs through a kd-tree, so a tie between
    equidistant nodes goes to whichever node ``cKDTree`` returns; node mass
    is the snapped count over the total triangle count.
    """
    records = profile["records"]
    if not records:
        raise EmptyResultError("cannot build a distribution from an empty profile")
    grid = grid or GridSpec()
    r = np.array([rec["r"] for rec in records], dtype=np.float64)
    if grid.r_max is None:
        r /= r.max()
    elif r.max() > grid.r_max:
        raise InputError(f"profile reaches r = {float(r.max())!r}, beyond the grid's r_max = {grid.r_max!r}")
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


# at or below this many flows the LP holds every flow; above it, it starts from a shortlist
_COLUMN_BUDGET = 4096


def _restricted_lp(p, q, M, k):
    """The transport LP over the flows ``k`` only; flow k runs from source k // b to sink k % b."""
    a, b = len(p), len(q)
    # flow k enters its source's row sum and its sink's column sum; the last column sum is redundant and dropped
    A_eq = coo_matrix(
        (np.ones(2 * k.size), (np.concatenate([k // b, a + k % b]), np.tile(np.arange(k.size), 2))),
        shape=(a + b, k.size),
    ).tocsr()[:-1]
    # presolve moved neither the plan nor the iteration count here, and cost a quarter of the solve;
    # at HiGHS's default primal tolerance (1e-7) a basic flow can end below 0 and the cost below the optimum;
    # at its default dual tolerance (1e-7) the cost can stop 1e-9 above the optimum on raw r axes of a few hundred
    res = linprog(M.ravel()[k], A_eq=A_eq, b_eq=np.concatenate([p, q[:-1]]), bounds=(0, None), method="highs",
                  options={"presolve": False, "primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9})
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    if res.x.min() < -1e-12:
        raise RuntimeError(f"transport LP returned a negative flow {res.x.min()!r}")
    return res


def _shortlist(p, q, M):
    """Each source's ``_COLUMN_BUDGET // a`` nearest sinks and the north-west-corner support, as sorted flows.

    The north-west corner walks sources and sinks in order and moves on from
    whichever has less mass left, so its cells carry a feasible plan.
    """
    a, b = len(p), len(q)
    near = _COLUMN_BUDGET // a  # < b, since a * b exceeds the budget
    cells = [(np.arange(a)[:, None] * b + np.argpartition(M, near, axis=1)[:, :near]).ravel()]
    i = j = 0
    left_p, left_q = p[0], q[0]
    while i < a - 1 or j < b - 1:
        cells.append([i * b + j])
        if j == b - 1 or (i < a - 1 and left_p < left_q):
            left_q -= left_p
            i += 1
            left_p = p[i]
        else:
            left_p -= left_q
            j += 1
            left_q = q[j]
    cells.append([a * b - 1])
    return np.unique(np.concatenate(cells))


def _solve_transport_lp(p, q, M):
    """Exact transport LP between mass vectors p, q with cost matrix M; returns (a x b plan, cost).

    Up to ``_COLUMN_BUDGET`` flows the LP holds them all and is solved once.
    Above it, the LP starts from ``_shortlist`` and is priced to optimality:
    each round's duals give every left-out flow its reduced cost, and the
    flows below a tolerance scaled to the largest cost join the LP, at most a
    budget's worth and the most negative first, until none is left.
    """
    a, b = len(p), len(q)
    k = np.arange(a * b) if a * b <= _COLUMN_BUDGET else _shortlist(p, q, M)
    tol = 1e-12 * max(float(M.max()), 1.0)
    rounds = 0
    while True:
        res = _restricted_lp(p, q, M, k)
        rounds += 1
        if k.size == a * b:
            break
        duals = res.eqlin.marginals
        reduced = (M - duals[:a, None] - np.append(duals[a:], 0.0)).ravel()
        reduced[k] = 0.0
        add = np.flatnonzero(reduced < -tol)
        if not add.size:
            break
        if add.size > _COLUMN_BUDGET:
            add = add[np.argpartition(reduced[add], _COLUMN_BUDGET)[:_COLUMN_BUDGET]]
        k = np.union1d(k, add)
    logger.debug("transport LP: %d x %d, %d round(s), %d of %d columns", a, b, rounds, k.size, a * b)
    plan = np.zeros(a * b)
    plan[k] = res.x
    return plan.reshape(a, b), float(res.fun)


def wasserstein1(P: ProfileDistribution, Q: ProfileDistribution, return_plan=False):
    """Exact W1 between two distributions on the same grid.

    Euclidean ground metric on the grid's (r, rho) coordinates. The side
    with the smaller ``_dist_key`` is the LP's source, so the result is
    exactly symmetric; identical inputs short-circuit to zero. With
    ``return_plan`` the result is ``(cost, plan)``: the len(P) x len(Q) array
    of mass moved from each node of P to each node of Q. Above
    ``_COLUMN_BUDGET`` flows the LP is priced from a shortlist
    (``_solve_transport_lp``): the cost is the same optimum, but the plan may
    be another optimal one.
    """
    if P.grid != Q.grid:
        raise InputError("distributions live on different grids")
    key_p, key_q = _dist_key(P), _dist_key(Q)
    if key_p == key_q:
        return (0.0, np.diag(P.mass)) if return_plan else 0.0
    swapped = key_q < key_p
    src, dst = (Q, P) if swapped else (P, Q)
    plan, cost = _solve_transport_lp(src.mass, dst.mass, cdist(src.support, dst.support))
    if not return_plan:
        return cost
    return cost, plan.T if swapped else plan


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

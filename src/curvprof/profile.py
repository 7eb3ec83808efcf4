"""Equilateral-triple search, ball-expansion factors, and curvature profiles.

The expansion factor rho of a vertex triple is the smallest multiplicative
blow-up of the three Gromov-product balls that produces a common point. For
an equilateral triple of side 2r it reduces to

    rho = (min over vertices x of max_i d(x_i, x)) / r

and always lies in [1, 2]: tree-like triples give 1, three equidistant
points on a circle give 2, flat (Euclidean) triples give 2/sqrt(3). The
profile collects rho statistics per scale r over all scales up to half the
diameter.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .metric import (
    EXACT_SIDE_RTOL,
    DistanceMatrix,
    InputError,
    _read_text,
    gromov_products,
)

# reference levels shown as horizontal guide lines on profile plots
RHO_TREE = 1.0
RHO_PLANE = 2.0 / math.sqrt(3.0)
RHO_CIRCLE = 2.0

# absolute slack for the [1, 2] range check; float dust inside the slack is
# clamped onto the bound, anything further out is a genuine bug
_RHO_RANGE_SLACK = 1e-9

DEFAULT_SIDE_BINS = 50


@dataclass(frozen=True)
class EquilateralTriple:
    """Three vertices whose pairwise distances agree within the scale window.

    ``side`` is the largest of the three pairwise distances (identical to
    the common side for exact metrics); ``r = side / 2`` is the common
    Gromov product and the radius the expansion starts from.
    """

    v1: int
    v2: int
    v3: int
    side: float
    r: float


@dataclass(frozen=True)
class RhoValue:
    """An expansion factor together with the vertex attaining the min-max."""

    rho: float
    witness: int


@dataclass(frozen=True)
class ProfileRecord:
    r: float
    rho_values: tuple
    mean_rho: float

    @property
    def count(self):
        return len(self.rho_values)


@dataclass(frozen=True)
class CurvatureProfile:
    """Per-scale rho statistics; the geometric fingerprint of a metric space."""

    records: tuple
    meta: dict

    @property
    def is_empty(self):
        return len(self.records) == 0

    def max_r(self):
        if self.is_empty:
            raise InputError("empty profile has no scales")
        return max(rec.r for rec in self.records)


def _check_rho_range(rho):
    if rho < 1.0:
        if rho < 1.0 - _RHO_RANGE_SLACK:
            raise RuntimeError(f"expansion factor {rho} below 1: metric input is inconsistent")
        return 1.0
    if rho > 2.0:
        if rho > 2.0 + _RHO_RANGE_SLACK:
            raise RuntimeError(f"expansion factor {rho} above 2: metric input is inconsistent")
        return 2.0
    return rho


def _side_mask(D, side, side_window):
    """Boolean adjacency of vertex pairs whose distance matches the scale."""
    d = D.d
    if side_window is None:
        tol = EXACT_SIDE_RTOL * max(1.0, side)
        mask = np.abs(d - side) <= tol
    else:
        lo, hi = side_window
        mask = (d >= lo) & (d < hi)
    if D.sentinel is not None:
        mask &= d != D.sentinel
    np.fill_diagonal(mask, False)
    return mask


def cluster_sample_subset(D, n_clusters, per_cluster, seed=0):
    """Vertex subset for the hybrid clustering+sampling search variant.

    Partitions the metric by farthest-point k-center traversal (vertex 0
    seeds the walk, so the partition is deterministic) and draws a seeded
    uniform sample of ``per_cluster`` vertices from each cluster. Restricting
    the triple search to such a subset is exposed untuned; it did not change
    profiles noticeably in our runs.
    """
    if n_clusters < 1 or per_cluster < 1:
        raise InputError("cluster count and per-cluster sample must be >= 1")
    n_clusters = min(n_clusters, D.n)
    centers = [0]
    while len(centers) < n_clusters:
        nearest = D.d[centers].min(axis=0)
        centers.append(int(nearest.argmax()))
    assign = D.d[centers].argmin(axis=0)
    rng = np.random.default_rng([seed, len(centers)])
    subset = []
    for c in range(n_clusters):
        members = np.flatnonzero(assign == c)
        take = min(per_cluster, members.size)
        if take:
            subset.extend(int(v) for v in rng.choice(members, size=take, replace=False))
    return np.array(sorted(subset), dtype=np.int64)


def find_equilateral_triples(D, side, m=1.0, seed=0, side_window=None, allowed=None):
    """Sampled equilateral triples at one scale.

    Every vertex contained in at least one equilateral triple of this side
    is a candidate; ceil(m * N) candidates are drawn uniformly (all of them
    if fewer). A sampled vertex takes its first side partner that lies on a
    triangle with it, then the first common partner of the two: the first
    triple of a lexicographic pair scan. Duplicated vertex sets are merged,
    so the result has at most the sample size many triples, returned sorted.

    ``side_window`` is a half-open interval (lo, hi) for bin-quantized
    weighted metrics; without it the side must match exactly (relative
    tolerance 1e-9, suitable for integer-valued metrics). ``allowed``
    restricts triple membership to a vertex subset (the expansion itself
    still scans the full space).
    """
    if side <= 0:
        raise InputError("side must be positive")
    if not (0 < m <= 1):
        raise InputError("sample fraction m must lie in (0, 1]")
    A = _side_mask(D, side, side_window)
    if allowed is not None:
        keep = np.zeros(D.n, dtype=bool)
        keep[allowed] = True
        A &= keep[:, None] & keep[None, :]
    # a vertex can only close a triangle if it has >= 2 same-side partners
    active = np.flatnonzero(A.sum(axis=1) >= 2)
    if active.size < 3:
        return []
    As = A[np.ix_(active, active)]
    Af = As.astype(np.float32)
    # E[s, j]: j is a side partner of s and the two share a side partner k,
    # so s, j, k close a triangle. Rows with an entry are the candidates;
    # a row's first entry and its first common partner are the pick. Af.T
    # compares rows, as the pick does: a weighted side mask can be
    # asymmetric by an ulp, and only the row form makes every pick close.
    # The transpose is copied so that numpy calls gemm, not syrk: OpenBLAS
    # syrk spun its threads on small matrices (2-vCPU VM: +40 % CPU).
    E = (Af @ np.ascontiguousarray(Af.T) > 0) & As
    rows = np.flatnonzero(E.any(axis=1))
    if rows.size == 0:
        return []

    n_sample = math.ceil(m * D.n)
    if rows.size > n_sample:
        rng = np.random.default_rng(seed)
        rows = rng.choice(rows, size=n_sample, replace=False)
    j = E[rows].argmax(axis=1)
    k = (As[rows] & As[j]).argmax(axis=1)
    picks = np.sort(active[np.column_stack((rows, j, k))], axis=1)

    triples = []
    for a, b, c in sorted(set(map(tuple, picks.tolist()))):
        actual = float(max(D.d[a, b], D.d[a, c], D.d[b, c]))
        triples.append(EquilateralTriple(v1=a, v2=b, v3=c, side=actual, r=actual / 2.0))
    return triples


def rho_minmax(D, t: EquilateralTriple) -> RhoValue:
    """Exact expansion factor: minimize the largest distance to the triple.

    O(N) scan over all vertices; the witness is the argmin, smallest index
    on ties. Works across the whole matrix because sentinel rows can never
    attain the minimum.
    """
    rows = D.d[[t.v1, t.v2, t.v3]]
    maxd = rows.max(axis=0)
    w = int(np.argmin(maxd))
    return RhoValue(rho=_check_rho_range(float(maxd[w] / t.r)), witness=w)


def rho_ball_growth(D, t: EquilateralTriple, step=None) -> RhoValue:
    """Expansion factor by growing the three balls until they meet.

    Starts all radii at r = side/2 and enlarges them until some vertex lies
    in all three balls; returns r_out / r_in. With ``step=None`` the radius
    jumps along the ladder of distinct distances occurring in D, which makes
    the result exactly equal to :func:`rho_minmax`; a positive ``step``
    grows arithmetically and agrees up to one step.
    """
    rows = D.d[[t.v1, t.v2, t.v3]]
    maxd = rows.max(axis=0)
    r = t.r
    ladder = None
    if step is None:
        finite = D.d[D.finite_mask()]
        ladder = np.unique(finite[finite > 0])
    elif step <= 0:
        raise InputError("step must be positive")
    while not np.any(maxd <= r):
        if r > D.diameter:
            raise RuntimeError(
                "ball growth exceeded the diameter: triple spans disconnected components"
            )
        if ladder is not None:
            pos = np.searchsorted(ladder, r, side="right")
            if pos >= ladder.size:
                raise RuntimeError("distance ladder exhausted before the balls met")
            r = float(ladder[pos])
        else:
            r = r + step
    witness = int(np.argmax(maxd <= r))
    return RhoValue(rho=_check_rho_range(float(r / t.r)), witness=witness)


def rho_general(D, v1, v2, v3) -> RhoValue:
    """Expansion factor of an arbitrary triple, with per-vertex ball radii.

    Each ball gets its own Gromov product as the base radius, so this is the
    full min-max of max_i d(x_i, x)/r_i. Collinear triples (one product
    zero) are assigned rho = 1 with the middle point as witness. Unlike the
    equilateral case, values above 2 are possible in sparse graphs and are
    returned as-is.
    """
    if not D.is_connected_triple(v1, v2, v3):
        raise InputError("triple spans disconnected components (sentinel distance)")
    d12, d13, d23 = float(D.d[v1, v2]), float(D.d[v1, v3]), float(D.d[v2, v3])
    g = gromov_products(d12, d13, d23)
    rvec = g.as_array()
    scale = max(d12, d13, d23)
    if scale <= 0:
        raise InputError("coincident triple: all distances zero")
    verts = (v1, v2, v3)
    small = rvec <= 1e-12 * scale
    if small.any():
        return RhoValue(rho=1.0, witness=int(verts[int(np.argmin(rvec))]))
    rows = D.d[list(verts)]
    scores = (rows / rvec[:, None]).max(axis=0)
    w = int(np.argmin(scores))
    return RhoValue(rho=float(scores[w]), witness=w)


def _scales(D, h):
    """(key, side label, side window) of every occurring side length.

    Exact metrics (``h`` None) key each integer side and match it exactly;
    otherwise sides are binned into half-open windows of width ``h``.
    """
    vals = D.d[(D.d > 0) & D.finite_mask()]
    keys = np.unique((np.round(vals) if h is None else np.floor(vals / h)).astype(np.int64))
    # sides below one unit or one bin width cannot be certified equal
    keys = keys[keys >= 1]
    if h is None:
        return [(int(k), float(k), None) for k in keys]
    return [(int(k), float((k + 0.5) * h), (float(k * h), float((k + 1) * h))) for k in keys]


def build_profile(
    D: DistanceMatrix,
    m=0.1,
    seed=0,
    h=None,
    workers=1,
    typical="mean",
    cluster_sample=None,
    extra_meta=None,
) -> CurvatureProfile:
    """Scale-indexed expansion-factor profile of a distance matrix.

    Scales run over every occurring side length: the integers for exact
    graph metrics, or bins of width ``h`` (default diameter/50) for weighted
    metrics. Per scale, triples come from :func:`find_equilateral_triples`
    with a scale-local RNG derived from (seed, scale), so the profile is
    reproducible and independent of the worker count. Scales with no triples
    are omitted.

    ``typical`` selects the per-scale statistic stored in ``mean_rho``:
    "mean" (default) or "median". ``cluster_sample=(k, n)`` switches on the
    hybrid variant: triple membership is restricted to n sampled vertices
    from each of k metric clusters (see :func:`cluster_sample_subset`).
    """
    if typical not in ("mean", "median"):
        raise InputError("typical must be 'mean' or 'median'")
    if not (0 < m <= 1):
        raise InputError("sample fraction m must lie in (0, 1]")
    if workers < 1:
        raise InputError("workers must be >= 1")
    allowed = None
    if cluster_sample is not None:
        allowed = cluster_sample_subset(D, cluster_sample[0], cluster_sample[1], seed=seed)

    used_h = None
    if not D.integer_valued:
        used_h = float(h) if h is not None else D.diameter / DEFAULT_SIDE_BINS
        if used_h <= 0:
            raise InputError("side bin width must be positive")
    scales = _scales(D, used_h)

    def job(scale):
        key, label, window = scale
        triples = find_equilateral_triples(
            D, label, m=m, seed=[seed, key], side_window=window, allowed=allowed
        )
        rhos = tuple(rho_minmax(D, t).rho for t in triples)
        return label, rhos

    if workers == 1 or len(scales) <= 1:
        results = [job(s) for s in scales]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, scales))

    records = []
    for label, rhos in results:
        if not rhos:
            continue
        stat = float(np.mean(rhos)) if typical == "mean" else float(np.median(rhos))
        records.append(ProfileRecord(r=label / 2.0, rho_values=rhos, mean_rho=stat))

    meta = {
        "n": D.n,
        "m": m,
        "seed": seed,
        "side_bin": used_h,
        "scale_rule": "integer" if used_h is None else "binned",
        "diameter": D.diameter,
        "typical": typical,
        "cluster_sample": list(cluster_sample) if cluster_sample else None,
    }
    if extra_meta:
        meta.update(extra_meta)
    return CurvatureProfile(records=tuple(records), meta=meta)


def rho_circle_closed_form(angle):
    """rho of a triple on a circle from the center angle of its longest side.

    Evaluates 2*pi/angle - 1; three equidistant points (angle 2*pi/3) give
    exactly 2. Used as a test oracle for arc-metric samples.
    """
    if not (0 < angle < 2 * math.pi):
        raise InputError("angle must lie in (0, 2*pi)")
    return 2 * math.pi / angle - 1


# -- serialization ----------------------------------------------------------


def profile_to_dict(p: CurvatureProfile) -> dict:
    return {
        "meta": p.meta,
        "records": [
            {
                "r": rec.r,
                "count": rec.count,
                "mean_rho": rec.mean_rho,
                "rho_values": list(rec.rho_values),
            }
            for rec in p.records
        ],
    }


def profile_from_dict(data) -> CurvatureProfile:
    try:
        records = tuple(
            ProfileRecord(
                r=float(rec["r"]),
                rho_values=tuple(float(x) for x in rec["rho_values"]),
                mean_rho=float(rec["mean_rho"]),
            )
            for rec in data["records"]
        )
        counts = [int(rec["count"]) for rec in data["records"]]
        meta = dict(data["meta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed profile payload: {exc}") from exc
    for count, rec in zip(counts, records):
        if count != rec.count:
            raise InputError(f"record r={rec.r!r}: count {count} != {rec.count} rho values")
    return CurvatureProfile(records=records, meta=meta)


def save_profile_json(p: CurvatureProfile, path):
    with open(path, "w") as fh:
        json.dump(profile_to_dict(p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_profile_json(path) -> CurvatureProfile:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    return profile_from_dict(data)


def write_long_csv(p: CurvatureProfile, path, header_comment=None):
    """One row per triangle: columns r,rho."""
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("r,rho\n")
        for rec in p.records:
            for rho in rec.rho_values:
                fh.write(f"{rec.r!r},{rho!r}\n")


def write_summary_csv(p: CurvatureProfile, path, header_comment=None):
    """One row per scale: columns r,count,mean_rho."""
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("r,count,mean_rho\n")
        for rec in p.records:
            fh.write(f"{rec.r!r},{rec.count},{rec.mean_rho!r}\n")

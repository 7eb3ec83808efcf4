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
import logging
import math
import numbers
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .metric import DistanceMatrix, InputError, _read_text, _row_ranges, gromov_products

logger = logging.getLogger(__name__)

# reference levels shown as horizontal guide lines on profile plots
RHO_TREE = 1.0
RHO_PLANE = 2.0 / math.sqrt(3.0)
RHO_CIRCLE = 2.0

# absolute slack for the [1, 2] range check; float dust inside the slack is
# clamped onto the bound, anything further out means the input distances
# break the triangle inequality
_RHO_RANGE_SLACK = 1e-9

DEFAULT_SIDE_BINS = 50
_EDGE_CHUNK = 8192  # cap on a round's edge tests in the triple search: bounds its two gathers
_WINDOW_TESTS = 2048  # edge tests a round of the triple search aims at


def _check_rho_range(rho):
    """Clamp an array of expansion factors onto [1, 2], or raise on the first one beyond the slack."""
    bad = rho[(rho < 1.0 - _RHO_RANGE_SLACK) | (rho > 2.0 + _RHO_RANGE_SLACK)]
    if bad.size:
        side = "below 1" if bad[0] < 1.0 else "above 2"
        raise InputError(f"expansion factor {float(bad[0])} {side}: the distances break the triangle inequality")
    return np.clip(rho, 1.0, 2.0)


def _side_keys(D, h):
    """Scale key of every vertex pair: k >= 1, or 0 for no scale.

    Exact metrics (``h`` None) key a pair by its rounded side; binned ones
    by the half-open window ``[k*h, (k+1)*h)`` that holds it. The diagonal,
    sides below one unit or one bin (they cannot be certified equal) and
    pairs at ``inf`` (no path) get 0. Keys grow with the side, so the
    largest is the key of ``D.diameter`` (:func:`build_profile` refuses a
    bin width that makes it overflow); the keys are stored in the smallest
    unsigned dtype that holds it, written row block by row block
    (``metric._row_ranges``) with no float matrix in between.
    """
    top = int(_keys_of(np.array([D.diameter]), h)[0])
    keys = np.empty(D.d.shape, dtype=np.min_scalar_type(top))
    for lo, hi in _row_ranges(D.n):
        keys[lo:hi] = _keys_of(D.d[lo:hi], h)
    return keys


def _keys_of(d, h):
    """The float scale keys of an array of sides; see :func:`_side_keys`."""
    if h is None:
        keys = np.rint(d)
    else:
        keys = d / h
        np.floor(keys, out=keys)
        # d / h can round across a window edge: one step back into the window
        keys -= keys * h > d
        keys += (keys + 1) * h <= d
    keys[keys < 1] = 0
    keys[np.isinf(keys)] = 0
    return keys


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
    # distance to the nearest centre so far, and that centre's index; a strict
    # < keeps the earliest centre on ties
    nearest, assign = D.d[0].copy(), np.zeros(D.n, dtype=np.intp)
    for c in range(1, n_clusters):
        row = D.d[int(nearest.argmax())]
        assign[row < nearest] = c
        np.minimum(nearest, row, out=nearest)
    rng = np.random.default_rng([seed, n_clusters])
    subset = []
    for c in range(n_clusters):
        members = np.flatnonzero(assign == c)
        take = min(per_cluster, members.size)
        if take:
            subset.extend(int(v) for v in rng.choice(members, size=take, replace=False))
    return np.array(sorted(subset), dtype=np.int64)


def _run_starts(x):
    """Mask of the entries of ``x`` that differ from the one before; the first entry is one."""
    return np.concatenate(([True], x[1:] != x[:-1])) if x.size else x.astype(bool)


def _first_hits(words, s, j, deg):
    """Each row's first side edge with a hit, as sorted edge indices; plus edges tested and rounds.

    An edge (s, j) has a hit when rows s and j of ``words`` (the packed rows,
    word-major) share an active partner. Rows are tested by rank windows:
    each round tests the next ``w`` ranks of the rows still left, starting
    with every row with ``deg >= 2``; a row with a hit keeps its lowest-rank
    one and drops out. With ``rows`` rows left, ``w`` is twice the previous
    window but at least ``_WINDOW_TESTS // rows`` ranks, capped at
    ``_EDGE_CHUNK // rows`` ranks and never below one, so a round's two
    gathers hold at most ``max(_EDGE_CHUNK, rows)`` edges.
    """
    live = np.flatnonzero(deg >= 2)
    start = np.cumsum(deg) - deg  # row v's edges are start[v] + rank
    found, lo, w, tested, rounds = [], 0, 0, 0, 0
    while live.size:
        w = max(1, min(max(2 * w, _WINDOW_TESTS // live.size), _EDGE_CHUNK // live.size))
        take = np.minimum(deg[live] - lo, w)
        ends = np.cumsum(take)
        # edge ids of ranks [lo, lo + take) of every live row, row by row
        idx = np.arange(ends[-1]) + np.repeat(start[live] + lo - (ends - take), take)
        common = words.take(s[idx], axis=1)
        common &= words.take(j[idx], axis=1)
        pos = np.flatnonzero(common.any(axis=0))
        owner = np.searchsorted(ends, pos, side="right")
        first = _run_starts(owner)
        found.append(idx[pos[first]])
        tested += idx.size
        rounds += 1
        lo += w
        left = deg[live] > lo
        left[owner[first]] = False
        live = live[left]
    return np.sort(np.concatenate(found)), tested, rounds


def find_equilateral_triples(D, A, m=1.0, seed=0):
    """Sampled equilateral triples at one scale.

    ``A`` is the scale's side graph: an n x n boolean matrix whose true
    entries are the vertex pairs at this side (``_side_keys(D, h) == k``
    in :func:`build_profile`); its rows are read as given and packed into
    bitsets. Every vertex on at least one triangle of ``A`` is a candidate:
    one AND of rows s and j tests a side edge (s, j) for a common partner,
    and a row's first side edge with a hit, in column order, is its pick.
    Rows stop being tested at that edge: each active row (>= 2 partners)
    tests its edges in rank windows, about ``_WINDOW_TESTS`` tests a round,
    and leaves once it has a hit (see :func:`_first_hits`).

    ceil(m * N) candidates are drawn uniformly (all of them if fewer). A
    sampled vertex takes its pick (s, j), then the first common partner of
    the two: the first triple of a lexicographic pair scan. Duplicated
    vertex sets are merged, so the result has at most the sample size many
    triples: a sorted list of ``(a, b, c)`` vertex-id tuples with
    ``a < b < c``.
    """
    if not (0 < m <= 1):
        raise InputError("sample fraction m must lie in (0, 1]")
    if A.shape != D.d.shape:
        raise InputError(f"side graph must be {D.n} x {D.n}, got {A.shape}")
    # side edges (s, j), row-major; only an active vertex (>= 2 partners) closes a triangle
    j = np.flatnonzero(A)
    s = j // D.n
    j %= D.n
    deg = np.bincount(s, minlength=D.n)
    active = deg >= 2
    n_active = np.count_nonzero(active)
    first, tested, rounds = s[:0], 0, 0
    if n_active >= 3:
        # rows[v]: an active v's active partners, bit c for vertex c, padded to
        # whole little-endian uint64 words. Rows are read as given: a weighted side
        # graph can be asymmetric by an ulp, and only rows make every pick close.
        width = -(-D.n // 8)
        rows = np.zeros((D.n, -(-width // 8) * 8), dtype=np.uint8)
        rows[:, :width] = np.packbits(A, axis=1, bitorder="little") & np.packbits(active, bitorder="little")
        rows[~active] = 0
        first, tested, rounds = _first_hits(np.ascontiguousarray(rows.view("<u8").T), s, j, deg)
    logger.debug(
        "triple search: n=%d side_edges=%d active=%d tested=%d rounds=%d candidates=%d",
        D.n, s.size, n_active, tested, rounds, first.size,
    )
    if first.size == 0:
        return []

    n_sample = math.ceil(m * D.n)
    if first.size > n_sample:
        first = np.random.default_rng(seed).choice(first, size=n_sample, replace=False)
    s, j = s[first], j[first]
    # k, the first common partner, is the lowest set bit of the two rows' AND
    k = np.unpackbits(rows[s] & rows[j], axis=1, bitorder="little").argmax(axis=1)
    picks = np.sort(np.column_stack((s, j, k)), axis=1)
    return sorted(set(map(tuple, picks.tolist())))


def rho_minmax(D, triples):
    """Exact expansion factors of a (t, 3) array of vertex triples.

    ``r`` is half the longest of a triple's sides ``d[a, b]``, ``d[a, c]``,
    ``d[b, c]``; rho = min over all vertices x of max_i d(x_i, x), over r.
    Returns the arrays ``(rho, witness)``; the witness is the argmin,
    smallest index on ties. Works across the whole matrix because a column
    at ``inf`` never attains the minimum. A triple that spans two
    components (an infinite side) is an InputError.
    """
    a, b, c = np.asarray(triples, dtype=np.intp).reshape(-1, 3).T
    r = np.maximum(np.maximum(D.d[a, b], D.d[a, c]), D.d[b, c]) / 2.0
    if not np.isfinite(r).all():
        raise InputError("triple spans disconnected components")
    # the t x n row maximum is built in place: two t x n arrays at most
    mx = D.d[a]
    np.maximum(mx, D.d[b], out=mx)
    np.maximum(mx, D.d[c], out=mx)
    witness = mx.argmin(axis=1)
    return _check_rho_range(mx[np.arange(witness.size), witness] / r), witness


def rho_general(D, v1, v2, v3):
    """Expansion factor of an arbitrary triple, with per-vertex ball radii.

    Each ball gets its own Gromov product as the base radius, so this is the
    full min-max of max_i d(x_i, x)/r_i; returns ``(rho, witness)``.
    Collinear triples (one product zero) are assigned rho = 1 with the
    middle point as witness. Unlike the equilateral case, values above 2
    are possible in sparse graphs and are returned as-is. Below 1 is not: on
    a metric two of the three ratios at any x are at least 1, so a rho below
    1 or a Gromov product below 0, beyond float dust, is an InputError.
    """
    d12, d13, d23 = float(D.d[v1, v2]), float(D.d[v1, v3]), float(D.d[v2, v3])
    if not np.isfinite(d12 + d13 + d23):
        raise InputError("triple spans disconnected components")
    rvec = np.array(gromov_products(d12, d13, d23))
    scale = max(d12, d13, d23)
    if scale <= 0:
        raise InputError("degenerate triple: zero side length (coincident points)")
    if rvec.min() < -_RHO_RANGE_SLACK * scale:
        raise InputError(f"Gromov product {rvec.min()} below 0: the distances break the triangle inequality")
    verts = (v1, v2, v3)
    small = rvec <= 1e-12 * scale
    if small.any():
        return 1.0, int(verts[int(np.argmin(rvec))])
    rows = D.d[list(verts)]
    scores = (rows / rvec[:, None]).max(axis=0)
    w = int(np.argmin(scores))
    if scores[w] < 1.0 - _RHO_RANGE_SLACK:
        raise InputError(f"expansion factor {scores[w]} below 1: the distances break the triangle inequality")
    return float(scores[w]), w


def build_profile(
    D: DistanceMatrix,
    m=0.1,
    seed=0,
    h=None,
    workers=1,
    typical="mean",
    cluster_sample=None,
) -> dict:
    """Scale-indexed expansion-factor profile of a distance matrix.

    Every vertex pair belongs to at most one scale, keyed once by
    :func:`_side_keys`: the rounded side for exact graph metrics, or the
    window of width ``h`` (default diameter/50) holding it for weighted
    metrics; ``h`` is rejected on integer-valued metrics, and when
    diameter / ``h`` overflows a float. The scales are the keys that
    occur. Per scale, triples come from :func:`find_equilateral_triples`
    on the pairs with that key, with a scale-local RNG derived from
    (seed, key), so the profile is reproducible and independent of the
    worker count. Scales with no triples are omitted.

    The profile is the JSON document :func:`save_profile_json` writes:
    ``{"meta": {...}, "records": [...]}``, one record per scale in
    ascending ``r``, each ``{"r", "count", "mean_rho", "rho_values"}``
    with ``rho_values`` a list of floats.

    ``typical`` selects the per-scale statistic stored in ``mean_rho``:
    "mean" (default) or "median". ``cluster_sample=(k, n)`` switches on the
    hybrid variant: triple membership is restricted to n sampled vertices
    from each of k metric clusters (see :func:`cluster_sample_subset`).
    """
    if typical not in ("mean", "median"):
        raise InputError("typical must be 'mean' or 'median'")
    if not (0 < m <= 1):
        raise InputError("sample fraction m must lie in (0, 1]")
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    if workers < 1:
        raise InputError("workers must be >= 1")
    if h is not None and not (math.isfinite(h) and h > 0):
        raise InputError(f"side bin width must be finite and positive, got {h}")
    if h is not None and not math.isfinite(D.diameter / h):  # _side_keys sizes its keys by the diameter's
        raise InputError(f"side bin width {h} is too small: the diameter spans more bins than a float holds")
    if h is not None and D.integer_valued:
        raise InputError("side bin width applies to weighted metrics only; this metric is integer-valued")

    used_h = None
    if not D.integer_valued:
        used_h = float(h) if h is not None else D.diameter / DEFAULT_SIDE_BINS
    keys = _side_keys(D, used_h)
    if cluster_sample is not None:
        outside = np.ones(D.n, dtype=bool)
        outside[cluster_sample_subset(D, cluster_sample[0], cluster_sample[1], seed=seed)] = False
        keys[outside] = 0
        keys[:, outside] = 0
    scales = [k for k in np.unique(keys).tolist() if k]

    def job(key):
        triples = find_equilateral_triples(D, keys == key, m=m, seed=[seed, key])
        label = float(key) if used_h is None else (key + 0.5) * used_h
        return label, (rho_minmax(D, triples)[0].tolist() if triples else [])

    if workers == 1 or len(scales) <= 1:
        results = [job(k) for k in scales]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, scales))

    records = []
    for label, rhos in results:
        if not rhos:
            continue
        stat = float(np.mean(rhos)) if typical == "mean" else float(np.median(rhos))
        records.append({"r": label / 2.0, "count": len(rhos), "mean_rho": stat, "rho_values": rhos})

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
    return {"meta": meta, "records": records}


# -- serialization ----------------------------------------------------------


def _number(x, name, kind=numbers.Real):
    """``x`` if it is a ``kind`` other than a bool: JSON's ``true`` is not 1, and ``"1.0"`` is text."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise TypeError(f"{name} must be {'an integer' if kind is numbers.Integral else 'a number'}, got {x!r}")
    return x


def profile_from_dict(data) -> dict:
    """Check a stored profile and return it in the form :func:`build_profile` gives.

    A record's ``r`` must be finite and positive, its ``rho_values`` a list
    of finite values in [1, 2], and its ``count`` their number; ``r``,
    ``mean_rho`` and the rho values are numbers and ``count`` an integer.
    """
    records = []
    try:
        for rec in data["records"]:
            if not isinstance(rec["rho_values"], list):
                raise TypeError("rho_values must be a list")
            r, count = float(_number(rec["r"], "r")), int(_number(rec["count"], "count", numbers.Integral))
            rhos = [float(_number(x, "rho value")) for x in rec["rho_values"]]
            mean_rho = float(_number(rec["mean_rho"], "mean_rho"))
            if count != len(rhos):
                raise InputError(f"record r={r!r}: count {count} != {len(rhos)} rho values")
            if not (math.isfinite(r) and r > 0):
                raise InputError(f"record r={r!r}: r must be finite and > 0")
            bad = [x for x in rhos if not 1.0 <= x <= 2.0]
            if bad:
                raise InputError(f"record r={r!r}: rho value {bad[0]!r} is not a finite value in [1, 2]")
            records.append({"r": r, "count": count, "mean_rho": mean_rho, "rho_values": rhos})
        meta = dict(data["meta"])
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed profile payload: {exc}") from exc
    return {"meta": meta, "records": records}


def save_profile_json(p, path):
    _write_json(path, p)


def load_profile_json(path) -> dict:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    return profile_from_dict(data)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header_comment, columns, lines):
    with open(path, "w") as fh:
        fh.write(f"# {header_comment}\n{columns}\n")
        fh.writelines(lines)


def write_long_csv(p, path, header_comment):
    """One row per triangle: columns r,rho."""
    rows = (f"{rec['r']!r},{rho!r}\n" for rec in p["records"] for rho in rec["rho_values"])
    _write_csv(path, header_comment, "r,rho", rows)


def write_summary_csv(p, path, header_comment):
    """One row per scale: columns r,count,mean_rho."""
    rows = (f"{rec['r']!r},{rec['count']},{rec['mean_rho']!r}\n" for rec in p["records"])
    _write_csv(path, header_comment, "r,count,mean_rho", rows)

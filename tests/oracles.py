"""Independent brute-force oracles the fast implementations are checked against."""

import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist, squareform


def euclidean_matrix(coords):
    """Dense Euclidean distances between the rows of ``coords``, by ``pdist``."""
    return squareform(pdist(coords))


def floyd_warshall(n, edges):
    """Naive all-pairs shortest paths; edges are (i, j, w)."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in edges:
        if w < d[i, j]:
            d[i, j] = w
            d[j, i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def hop_counts(n, edges):
    """All-pairs hop counts by networkx BFS; inf where there is no path. Edge weights are ignored."""
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from((e[0], e[1]) for e in edges)
    d = np.full((n, n), np.inf)
    for s, lengths in nx.all_pairs_shortest_path_length(G):
        d[s, list(lengths)] = list(lengths.values())
    return d


def lambda_alpha_scan(d12, d13, d23, steps=400001):
    """Largest alpha in [1, 2] satisfying the three two-sided inequalities."""
    alphas = np.linspace(1.0, 2.0, steps)
    ok = (
        (alphas * d12 <= d13 + d23 + 1e-15)
        & (alphas * d13 <= d12 + d23 + 1e-15)
        & (alphas * d23 <= d12 + d13 + 1e-15)
    )
    hits = np.flatnonzero(ok)
    return float(alphas[hits[-1]]) if hits.size else None


def rho_minmax_loop(D, v1, v2, v3, r):
    """Plain-loop min-max expansion factor, no vectorization."""
    best = math.inf
    witness = -1
    for x in range(D.d.shape[0]):
        m = max(D.d[v1, x], D.d[v2, x], D.d[v3, x])
        if m < best:
            best = m
            witness = x
    return best / r, witness


def rho_ball_growth(D, a, b, c, step=None):
    """Expansion factor by growing the three balls until they meet.

    Starts all radii at r, half the longest of ``d[a, b]``, ``d[a, c]``,
    ``d[b, c]``, and enlarges them until some vertex lies in all three
    balls; returns ``(r_out / r, witness)``, unclamped. With ``step=None``
    the radius jumps along the ladder of distinct distances occurring in D,
    which makes the result exactly equal to the min-max; a positive
    ``step`` grows arithmetically and agrees up to one step.
    """
    from curvprof import InputError

    maxd = D.d[[a, b, c]].max(axis=0)
    r_in = float(max(D.d[a, b], D.d[a, c], D.d[b, c])) / 2.0
    if not math.isfinite(r_in):
        raise RuntimeError("ball growth cannot start: triple spans disconnected components")
    r = r_in
    ladder = None
    if step is None:
        finite = D.d[np.isfinite(D.d)]
        ladder = np.unique(finite[finite > 0])
    elif step <= 0:
        raise InputError("step must be positive")
    while not np.any(maxd <= r):
        if ladder is not None:
            pos = np.searchsorted(ladder, r, side="right")
            if pos >= ladder.size:
                raise RuntimeError("distance ladder exhausted before the balls met")
            r = float(ladder[pos])
        else:
            r = r + step
    return r / r_in, int(np.argmax(maxd <= r))


def rho_circle_closed_form(angle):
    """rho of a triple on a circle from the center angle of its longest side.

    Evaluates 2*pi/angle - 1; three equidistant points (angle 2*pi/3) give
    exactly 2.
    """
    from curvprof import InputError

    if not (0 < angle < 2 * math.pi):
        raise InputError("angle must lie in (0, 2*pi)")
    return 2 * math.pi / angle - 1


def to_distribution_loop(profile, grid):
    """(observations, support, mass) of a profile on ``grid``.

    The observations are built one Python tuple per rho value; r is divided
    by the profile's largest r unless the grid has an ``r_max``.
    """
    max_r = max(rec["r"] for rec in profile["records"])
    obs = []
    for rec in profile["records"]:
        r = rec["r"] / max_r if grid.r_max is None else rec["r"]
        for rho in rec["rho_values"]:
            obs.append((r, rho))
    obs = np.asarray(obs)
    nodes = grid.nodes()
    _, node_idx = cKDTree(nodes).query(obs)
    occupied, counts = np.unique(node_idx, return_counts=True)
    return obs, nodes[occupied], (counts / counts.sum()).astype(np.float64)


def cluster_sample_subset_rescan(D, n_clusters, per_cluster, seed=0):
    """``cluster_sample_subset``, taking each centre's cluster distances over every centre so far.

    Costs O(k^2 n) for k centres; the library keeps a running minimum.
    """
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


def enumerate_equilateral(D, lo, hi):
    """All vertex triples whose three pairwise distances fall in [lo, hi)."""
    out = []
    for a, b, c in itertools.combinations(range(D.n), 3):
        ds = (D.d[a, b], D.d[a, c], D.d[b, c])
        if all(lo <= x < hi for x in ds):
            out.append((a, b, c))
    return out


def enumerate_exact_equilateral(D):
    """All equilateral triples of an integer-valued metric, side by side."""
    return [
        t
        for side in range(1, int(D.diameter) + 1)
        for t in enumerate_equilateral(D, side - 1e-9, side + 1e-9)
    ]


def w1_dense_lp(P, Q):
    """Dense-formulation transport LP with all (redundant) marginal rows."""
    M = cdist(P.support, Q.support)
    a, b = len(P.mass), len(Q.mass)
    A_eq = np.zeros((a + b, a * b))
    for i in range(a):
        A_eq[i, i * b : (i + 1) * b] = 1.0
    for j in range(b):
        A_eq[a + j, j::b] = 1.0
    b_eq = np.concatenate([P.mass, Q.mass])
    # HiGHS's default feasibility tolerances (1e-7) can leave a flow below 0 and the cost off the optimum
    res = linprog(M.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9})
    assert res.success, res.message
    return float(res.fun)


def transport_lp_full(p, q, M):
    """(a x b plan, cost) of the transport LP that holds every one of the a * b flows, in one solve."""
    a, b = len(p), len(q)
    k = np.arange(a * b)
    A_eq = coo_matrix(
        (np.ones(2 * k.size), (np.concatenate([k // b, a + k % b]), np.tile(k, 2))), shape=(a + b, a * b)
    ).tocsr()[:-1]
    b_eq = np.concatenate([p, q[:-1]])
    res = linprog(M.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"presolve": False, "primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9})
    assert res.success, res.message
    return res.x.reshape(a, b), float(res.fun)


def transport_lp_equalities(a, b):
    """Equality matrix of the a x b transport LP, built block by block.

    Flow i*b + j is column i*b + j. Rows 0..a-1 are the source (row) sums;
    rows a..a+b-2 are the sink (column) sums, the redundant last one dropped.
    """
    nvar = a * b
    row_r = np.repeat(np.arange(a), b)
    col_r = np.arange(nvar)
    row_c = np.repeat(a + np.arange(b - 1), a)
    col_c = (np.arange(a)[None, :] * b + np.arange(b - 1)[:, None]).ravel()
    rows = np.concatenate([row_r, row_c])
    cols = np.concatenate([col_r, col_c])
    return coo_matrix((np.ones(rows.size), (rows, cols)), shape=(a + b - 1, nvar))


def w1_network_simplex(P, Q):
    """Exact min-cost flow via networkx with rationally scaled integer masses.

    Float masses are rationals with power-of-two denominators, so they scale
    to exact integers; the sink side is rescaled so supply and demand balance
    exactly. Costs are quantized at 1e-12, bounding the cost error by 1e-12
    per unit of mass.
    """
    p = [Fraction(float(x)) for x in P.mass]
    q = [Fraction(float(x)) for x in Q.mass]
    total_p, total_q = sum(p), sum(q)
    q = [x * total_p / total_q for x in q]
    den = 1
    for x in p + q:
        den = den * x.denominator // math.gcd(den, x.denominator)
    supplies = [int(x * den) for x in p]
    demands = [int(x * den) for x in q]
    M = cdist(P.support, Q.support)
    scale_cost = 10**12
    G = nx.DiGraph()
    for i, s in enumerate(supplies):
        G.add_node(("s", i), demand=-s)
    for j, t in enumerate(demands):
        G.add_node(("t", j), demand=t)
    for i in range(len(supplies)):
        for j in range(len(demands)):
            G.add_edge(("s", i), ("t", j), weight=int(round(M[i, j] * scale_cost)))
    _, flow = nx.network_simplex(G)
    cost = 0.0
    for i in range(len(supplies)):
        for j, amount in flow[("s", i)].items():
            if amount:
                cost += (amount / den) * M[i, j[1]]
    return cost


def random_connected_er(rng, n, p):
    """Edge list of a connected Erdos-Renyi graph (resampled until connected)."""
    while True:
        edges = []
        for i in range(n - 1):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, 1.0))
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, _ in edges:
            parent[find(i)] = find(j)
        if len({find(i) for i in range(n)}) == 1:
            return edges


def graph_edges_loop(n, edges, default_weight=1.0):
    """Per-edge canonicalization: the sorted (i, j, w) tuple Graph.from_edges must give.

    Raises InputError on the first self-loop, out-of-range id, duplicate
    or negative weight, checked in that order edge by edge.
    """
    from curvprof import InputError

    if n < 1:
        raise InputError("graph needs at least one vertex")
    seen = set()
    out = []
    for e in edges:
        if len(e) == 2:
            i, j = e
            w = default_weight
        else:
            i, j, w = e
        i, j = int(i), int(j)
        if i == j:
            raise InputError(f"self-loop at vertex {i}")
        if i > j:
            i, j = j, i
        if not (0 <= i and j < n):
            raise InputError(f"edge ({i},{j}) out of range for n={n}")
        if (i, j) in seen:
            raise InputError(f"duplicate edge ({i},{j})")
        w = float(w)
        if w < 0:
            raise InputError(f"negative edge weight {w} on ({i},{j})")
        seen.add((i, j))
        out.append((i, j, w))
    out.sort()
    return tuple(out)


def neighbor_selection_loop(idx, dist, k_per_point):
    """Dict-based union of per-point neighbor selections; first-seen weight wins."""
    edges = {}
    for i in range(idx.shape[0]):
        for rank in range(int(k_per_point[i])):
            j = int(idx[i, rank])
            key = (i, j) if i < j else (j, i)
            edges.setdefault(key, float(dist[i, rank]))
    return tuple((i, j, w) for (i, j), w in sorted(edges.items()))


def side_mask(D, side, side_window):
    """Boolean adjacency of vertex pairs whose distance matches the scale.

    The pair selection each scale used before side keys: an exact match
    within a relative tolerance, or a half-open window.
    """
    from curvprof.metric import EXACT_SIDE_RTOL

    d = D.d
    if side_window is None:
        tol = EXACT_SIDE_RTOL * max(1.0, side)
        mask = np.abs(d - side) <= tol
    else:
        lo, hi = side_window
        mask = (d >= lo) & (d < hi)
    np.fill_diagonal(mask, False)
    return mask


def scales(D, h):
    """(key, side label, side window) of every occurring side length.

    Exact metrics (``h`` None) key each integer side and match it exactly;
    otherwise sides are binned into half-open windows of width ``h``. Keys
    come from ``floor(d / h)``, which can disagree with the window test of
    :func:`side_mask` when ``d / h`` rounds across a window edge.
    """
    vals = D.d[(D.d > 0) & np.isfinite(D.d)]
    keys = np.unique((np.round(vals) if h is None else np.floor(vals / h)).astype(np.int64))
    # sides below one unit or one bin width cannot be certified equal
    keys = keys[keys >= 1]
    if h is None:
        return [(int(k), float(k), None) for k in keys]
    return [(int(k), float((k + 0.5) * h), (float(k * h), float((k + 1) * h))) for k in keys]


def equilateral_triples_scan(D, side, m=1.0, seed=0, side_window=None, allowed=None):
    """Candidate count by matmul, then a per-vertex lexicographic pair scan.

    find_equilateral_triples must match it on every symmetric side mask:
    same candidates, same sample, same first (j, k) per vertex.
    """
    from curvprof import InputError

    if side <= 0:
        raise InputError("side must be positive")
    if not (0 < m <= 1):
        raise InputError("sample fraction m must lie in (0, 1]")
    A = side_mask(D, side, side_window)
    if allowed is not None:
        keep = np.zeros(D.n, dtype=bool)
        keep[allowed] = True
        A &= keep[:, None] & keep[None, :]
    # a vertex can only close a triangle if it has >= 2 same-side partners
    deg = A.sum(axis=1)
    active = np.flatnonzero(deg >= 2)
    if active.size < 3:
        return []
    Asub = A[np.ix_(active, active)]
    Af = Asub.astype(np.float32)
    common = Af @ Af
    tri_weight = (common * Asub).sum(axis=1)
    candidates = active[tri_weight > 0]
    if candidates.size == 0:
        return []

    n_sample = math.ceil(m * D.n)
    if candidates.size <= n_sample:
        sampled = candidates
    else:
        rng = np.random.default_rng(seed)
        sampled = rng.choice(candidates, size=n_sample, replace=False)

    seen = set()
    for s in sampled:
        ns = np.flatnonzero(A[s])
        for pos, j in enumerate(ns):
            closing = ns[pos + 1 :]
            hits = closing[A[j, closing]]
            if hits.size:
                seen.add(tuple(sorted((int(s), int(j), int(hits[0])))))
                break

    return sorted(seen)


def equilateral_triples_matmul(D, A, m=1.0, seed=0):
    """Triple search by a dense float32 matmul over the active side graph.

    find_equilateral_triples must equal it on every side mask, asymmetric
    ones included: same candidates, same sample, same (s, j, k) picks.
    """
    from curvprof import InputError

    if not (0 < m <= 1):
        raise InputError("sample fraction m must lie in (0, 1]")
    if A.shape != D.d.shape:
        raise InputError(f"side graph must be {D.n} x {D.n}, got {A.shape}")
    # a vertex can only close a triangle if it has >= 2 same-side partners
    active = np.flatnonzero(A.sum(axis=1) >= 2)
    if active.size < 3:
        return []
    As = A[np.ix_(active, active)]
    Af = As.astype(np.float32)
    # E[s, j]: j is a side partner of s and the two share a side partner k,
    # so s, j, k close a triangle. Rows with an entry are the candidates;
    # a row's first entry and its first common partner are the pick. Af.T
    # compares rows, as the pick does: a weighted side graph can be
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
    return sorted(set(map(tuple, picks.tolist())))


def _all_integral(values):
    return np.allclose(values, np.round(values), rtol=0, atol=1e-9)


def finalize_distance_matrix_copying(d):
    """Masked-copy finalisation: an off-diagonal finite copy and np.allclose.

    The in-place _finalize_distance_matrix must give the same bytes,
    connectivity, diameter and integrality flag.
    """
    from curvprof.metric import DistanceMatrix

    n = d.shape[0]
    finite = np.isfinite(d)
    offdiag = ~np.eye(n, dtype=bool)
    finite_off = d[finite & offdiag]
    diameter = float(finite_off.max()) if finite_off.size else 0.0
    integer_valued = bool(finite_off.size == 0 or _all_integral(finite_off))
    return DistanceMatrix(
        d=np.ascontiguousarray(d, dtype=np.float64),
        connected=bool(finite.all()),
        diameter=diameter,
        integer_valued=integer_valued,
    )


def finalize_distance_matrix_one_shot(d):
    """Whole-matrix finalisation: one finite mask and one float temporary of the matrix's size.

    The row-blocked _finalize_distance_matrix must give the same flags.
    """
    from curvprof.metric import DistanceMatrix

    finite = np.isfinite(d)
    diameter = float(np.max(d, where=finite, initial=0.0))
    with np.errstate(invalid="ignore"):  # inf - inf is masked out
        err = np.abs(d - np.rint(d))
    integer_valued = bool(np.max(err, where=finite, initial=0.0) <= 1e-9)
    return DistanceMatrix(d=d, connected=bool(finite.all()), diameter=diameter, integer_valued=integer_valued)


def side_keys_one_shot(D, h):
    """Scale keys computed over the whole matrix in float64 and cast once to the smallest unsigned dtype.

    The row-blocked _side_keys must give the same keys in the same dtype.
    """
    d = D.d
    if h is None:
        keys = np.rint(d)
    else:
        keys = np.floor(d / h)
        keys -= keys * h > d
        keys += (keys + 1) * h <= d
    keys[keys < 1] = 0
    keys[np.isinf(keys)] = 0
    return keys.astype(np.min_scalar_type(int(keys.max())))


def distance_matrix_from_array_one_shot(arr):
    """Whole-matrix checks and symmetrisation, kept as the reference for distance_matrix_from_array."""
    from curvprof import InputError

    d = np.asarray(arr, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError(f"distance matrix must be square, got shape {d.shape}")
    if d.shape[0] < 1:
        raise InputError("empty distance matrix")
    if not np.isfinite(d).all():
        raise InputError("distance matrix contains NaN or Inf")
    if np.any(d < 0):
        raise InputError("distance matrix contains negative entries")
    if not np.allclose(d, d.T, rtol=1e-9, atol=1e-12):
        raise InputError("distance matrix is not symmetric")
    d = 0.5 * (d + d.T)
    if np.any(np.diag(d) != 0):
        raise InputError("distance matrix diagonal must be zero")
    return finalize_distance_matrix_one_shot(d)


def looks_square_metric_one_shot(arr):
    """Whole-matrix form of graphs._looks_square_metric."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        return False
    return bool(
        np.allclose(np.diag(arr), 0.0, atol=1e-12)
        and np.allclose(arr, arr.T, rtol=1e-9, atol=1e-12)
        and np.all(arr >= 0)
    )


def hop_counts_dijkstra(n, edges):
    """All-pairs hop counts by scipy's unweighted Dijkstra; inf where there is no path."""
    from scipy.sparse.csgraph import shortest_path

    i, j = (np.array([e[k] for e in edges], dtype=np.int64) for k in (0, 1))
    adjacency = coo_matrix((np.ones(len(edges)), (i, j)), shape=(n, n)).tocsr()
    return shortest_path(adjacency, method="D", directed=False, unweighted=True)


def neighbor_lists_argsort(data, kmax):
    """Full-row stable argsort neighbor lists, kept as the reference for _neighbor_lists.

    Rows are sorted by (distance, index) so that rank ties always resolve
    to the smaller vertex id.
    """
    from curvprof.graphs import InputError, PointCloud, _pairwise

    # a point cloud's rows are computed below; a metric's come from _pairwise
    full = None if isinstance(data, PointCloud) else _pairwise(data)
    n = data.n
    if kmax >= n:
        raise InputError(f"k={kmax} must be smaller than the number of points n={n}")
    # dense rows a block at a time: the point itself sorts last as +inf
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

"""Independent brute-force oracles the fast implementations are checked against."""

import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np
from scipy.optimize import linprog
from scipy.spatial.distance import cdist


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


def enumerate_equilateral(D, lo, hi):
    """All vertex triples whose three pairwise distances fall in [lo, hi)."""
    out = []
    sent = D.sentinel
    for a, b, c in itertools.combinations(range(D.n), 3):
        ds = (D.d[a, b], D.d[a, c], D.d[b, c])
        if sent is not None and sent in ds:
            continue
        if all(lo <= x < hi for x in ds):
            out.append((a, b, c))
    return out


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
    res = linprog(M.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


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


def equilateral_triples_scan(D, side, m=1.0, seed=0, side_window=None, allowed=None):
    """Candidate count by matmul, then a per-vertex lexicographic pair scan.

    The reference find_equilateral_triples must match on every symmetric
    side mask: same candidates, same sample, same first (j, k) per vertex.
    """
    from curvprof import InputError
    from curvprof.profile import EquilateralTriple, _side_mask

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

    triples = []
    for a, b, c in sorted(seen):
        actual = float(max(D.d[a, b], D.d[a, c], D.d[b, c]))
        triples.append(EquilateralTriple(v1=a, v2=b, v3=c, side=actual, r=actual / 2.0))
    return triples

"""Distance matrices, Gromov products, and the triangle-shape measure.

Everything downstream works on a :class:`DistanceMatrix`: a dense matrix of
nonnegative reals, symmetric up to an ulp, in which pairs living in
different connected components carry a large finite sentinel (100x the
largest true distance) instead of infinity.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

SENTINEL_FACTOR = 100.0

# side-length equality tolerance (relative) for exact integer-valued metrics
EXACT_SIDE_RTOL = 1e-9


class InputError(ValueError):
    """Malformed input data or out-of-range parameters."""


class EmptyResultError(RuntimeError):
    """A pipeline stage legitimately produced nothing to work with."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected graph as canonical edge arrays.

    ``i``, ``j``, ``w`` are read-only arrays with i < j, sorted by (i, j),
    and w >= 0; zero weights are allowed because neighborhood graphs over
    point clouds may contain coincident points. ``params`` records how the
    graph was constructed.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    params: dict | None = None

    def __post_init__(self):
        for name, dtype in (("i", np.int64), ("j", np.int64), ("w", np.float64)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_edges(cls, n, edges, params=None):
        """Normalize and validate edges into a Graph.

        Accepts (i, j) or (i, j, w) items, or an (m, 2) / (m, 3) array of
        them; (i, j) items weigh 1. Orients every edge as i < j, rejects
        self-loops, duplicates and negative or non-finite weights. The
        first offending edge is reported.
        """
        if n < 1:
            raise InputError("graph needs at least one vertex")
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.float64)
        if arr.size == 0:
            arr = np.empty((0, 3))
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise InputError("edges must be (i, j) or (i, j, w) items")
        a, b = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64)
        i, j = np.minimum(a, b), np.maximum(a, b)
        w = arr[:, 2] if arr.shape[1] == 3 else np.ones(len(arr))
        order = np.lexsort((j, i))  # stable: repeats keep their input order
        dup = np.zeros(len(arr), dtype=bool)
        dup[order[1:]] = (i[order[1:]] == i[order[:-1]]) & (j[order[1:]] == j[order[:-1]])
        bad = np.flatnonzero((i == j) | (i < 0) | (j >= n) | dup | ~np.isfinite(w) | (w < 0))
        if bad.size:
            k = bad[0]
            lo, hi = int(i[k]), int(j[k])
            if lo == hi:
                raise InputError(f"self-loop at vertex {lo}")
            if not (0 <= lo and hi < n):
                raise InputError(f"edge ({lo},{hi}) out of range for n={n}")
            if dup[k]:
                raise InputError(f"duplicate edge ({lo},{hi})")
            kind = "non-finite" if not np.isfinite(w[k]) else "negative"
            raise InputError(f"{kind} edge weight {float(w[k])} on ({lo},{hi})")
        return cls(n=n, i=i[order], j=j[order], w=w[order], params=params)

    @property
    def edges(self):
        """The edges as a tuple of (i, j, w) tuples."""
        return tuple(zip(self.i.tolist(), self.j.tolist(), self.w.tolist()))

    @property
    def is_unweighted(self):
        return bool(np.all(self.w == 1.0))


@dataclass(frozen=True)
class DistanceMatrix:
    """Nonnegative distance matrix with a disconnection sentinel.

    Weighted shortest paths are symmetric only to an ulp (each row is its
    own Dijkstra run); the triple search reads rows of its side mask, so
    every pick still closes a triangle.

    ``sentinel`` is None for connected inputs; otherwise it equals
    ``SENTINEL_FACTOR`` times the largest finite distance and is strictly
    greater than every true distance. ``diameter`` excludes sentinel entries.
    ``integer_valued`` marks exact metrics (graph hop counts or integer
    weights) where side-length equality is exact rather than binned.
    """

    d: np.ndarray
    sentinel: float | None
    diameter: float
    integer_valued: bool

    def __post_init__(self):
        self.d.setflags(write=False)

    @property
    def n(self):
        return self.d.shape[0]

    def finite_mask(self):
        """Boolean matrix of true (non-sentinel) entries."""
        if self.sentinel is None:
            return np.ones_like(self.d, dtype=bool)
        return self.d != self.sentinel

    def is_connected_triple(self, v1, v2, v3):
        if self.sentinel is None:
            return True
        sub = self.d[np.ix_([v1, v2, v3], [v1, v2, v3])]
        return not np.any(sub == self.sentinel)

    def scaled(self, c):
        """Return a copy with every distance multiplied by c > 0.

        The sentinel and flags are derived afresh from the scaled distances.
        """
        if c <= 0:
            raise InputError("scale factor must be positive")
        d = self.d * c
        if self.sentinel is not None:
            d[self.d == self.sentinel] = np.inf
        return _finalize_distance_matrix(d)


@dataclass(frozen=True)
class GromovProducts:
    """The unique r1, r2, r3 with r_i + r_j = d(x_i, x_j)."""

    r1: float
    r2: float
    r3: float

    @property
    def all_nonnegative(self):
        # fails exactly when the three distances violate the triangle inequality
        return self.r1 >= 0 and self.r2 >= 0 and self.r3 >= 0

    def as_array(self):
        return np.array([self.r1, self.r2, self.r3])


@dataclass(frozen=True)
class TripleShape:
    """Shape measure of a metric triple: 1 = collinear, 2 = equilateral."""

    lam: float
    is_degenerate: bool
    is_equilateral: bool


def _finalize_distance_matrix(d):
    """Derive diameter / integrality flags and replace inf by the sentinel.

    Works in place on ``d``, a fresh C-contiguous float64 array with a
    zero diagonal that the caller hands over; the diagonal changes neither
    the maximum nor the integrality test.
    """
    finite = np.isfinite(d)
    diameter = float(np.max(d, where=finite, initial=0.0))
    with np.errstate(invalid="ignore"):  # inf - inf is masked out
        err = np.rint(d)
        np.subtract(d, err, out=err)
        np.abs(err, out=err)
    integer_valued = bool(np.max(err, where=finite, initial=0.0) <= 1e-9)
    sentinel = None
    if not finite.all():
        # degenerate edgeless graphs have diameter 0; keep the sentinel
        # strictly above every true distance anyway
        sentinel = SENTINEL_FACTOR * (diameter if diameter > 0 else 1.0)
        np.copyto(d, sentinel, where=np.logical_not(finite, out=finite))
    return DistanceMatrix(d=d, sentinel=sentinel, diameter=diameter, integer_valued=integer_valued)


def _adjacency(graph: Graph):
    """Sparse upper-triangular weighted adjacency (zero-weight edges kept)."""
    return coo_matrix((graph.w, (graph.i, graph.j)), shape=(graph.n, graph.n)).tocsr()


def shortest_path_matrix(graph: Graph) -> DistanceMatrix:
    """All-pairs shortest-path distances of a weighted undirected graph.

    scipy has no all-pairs BFS: ``method="auto"`` runs Dijkstra (Floyd-Warshall
    once the edges number N²/4), on unit weights when the graph is unweighted.
    Disconnected pairs receive the finite sentinel
    ``SENTINEL_FACTOR * max finite distance``.
    """
    if graph.n < 1:
        raise InputError("graph has zero vertices")
    if np.any(graph.w < 0):
        raise InputError("negative edge weights are not supported")
    d = shortest_path(_adjacency(graph), method="auto", directed=False, unweighted=graph.is_unweighted)
    return _finalize_distance_matrix(d)


def distance_matrix_from_array(arr) -> DistanceMatrix:
    """Wrap a raw square array of distances (no sentinel detection).

    Validates symmetry, zero diagonal and nonnegativity; the caller is
    responsible for the triangle inequality.
    """
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
    return _finalize_distance_matrix(d)


def gromov_products(d12, d13, d23) -> GromovProducts:
    """Solve r_i + r_j = d(x_i, x_j) for the three ball radii.

    A negative component signals a triangle-inequality violation; it is
    reported, not raised, so the caller can decide.
    """
    if d12 < 0 or d13 < 0 or d23 < 0:
        raise InputError("distances must be nonnegative")
    r1 = 0.5 * (d12 + d13 - d23)
    r2 = 0.5 * (d12 + d23 - d13)
    r3 = 0.5 * (d13 + d23 - d12)
    return GromovProducts(r1=r1, r2=r2, r3=r3)


def lambda_measure(d12, d13, d23) -> TripleShape:
    """Largest alpha with alpha*d(x_i,x_j) <= d(x_i,x_k) + d(x_j,x_k) for all pairs.

    Closed form: the binding constraint is the longest side, so
    lam = (perimeter - d_max) / d_max. Ranges over [1, 2] on metric triples;
    1 means collinear, 2 equilateral. Both flags use the relative
    tolerance ``EXACT_SIDE_RTOL``.
    """
    sides = (float(d12), float(d13), float(d23))
    if min(sides) <= 0:
        raise InputError("degenerate triple: zero side length (coincident points)")
    d_max = max(sides)
    lam = (sum(sides) - d_max) / d_max
    is_equilateral = (d_max - min(sides)) <= EXACT_SIDE_RTOL * d_max
    is_degenerate = lam <= 1.0 + EXACT_SIDE_RTOL
    return TripleShape(lam=lam, is_degenerate=is_degenerate, is_equilateral=is_equilateral)


def _read_text(path):
    """Contents of a regular text file; anything that cannot be read is an InputError."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{path}: " + ("not a regular file" if path.exists() else "no such file"))
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read: {exc}") from exc


def _read_csv(path):
    """A numeric CSV as a 2-D float array; one header row is auto-skipped."""
    text = _read_text(path)
    try:
        return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    except ValueError:
        try:
            return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise InputError(f"{path}: could not parse as numeric CSV: {exc}") from exc


def load_edge_list(path) -> Graph:
    """Read a `u v [w]` whitespace-separated edge list.

    Lines starting with '#' are comments. 0- vs 1-based indexing is
    auto-detected from the minimum index seen.
    """
    raw = []
    for lineno, line in enumerate(io.StringIO(_read_text(path)), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise InputError(f"{path}:{lineno}: expected 'u v [w]', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: non-numeric field") from exc
        raw.append((u, v, w))
    if not raw:
        raise InputError(f"{path}: no edges found")
    edges = np.array(raw)
    if edges[:, :2].min() >= 1:  # 1-based ids
        edges[:, :2] -= 1
    return Graph.from_edges(int(edges[:, :2].max()) + 1, edges, params={"source": str(path)})


def load_distance_csv(path) -> DistanceMatrix:
    """Read a square, comma-separated distance matrix (a header row is skipped)."""
    return distance_matrix_from_array(_read_csv(path))

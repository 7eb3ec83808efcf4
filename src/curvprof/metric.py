"""Distance matrices, Gromov products, and the triangle-shape measure.

Everything downstream works on a :class:`DistanceMatrix`: a dense matrix of
nonnegative reals, symmetric (up to an ulp when weighted), in which pairs
living in different connected components are at distance ``inf``.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

logger = logging.getLogger(__name__)

# side-length equality tolerance (relative) for exact integer-valued metrics
EXACT_SIDE_RTOL = 1e-9

# entries in a row block of a pass over an n x n matrix: 1 MB of float64, whatever n is. A
# pass holds about two block-sized float temporaries at most, a quarter of a 1000-point matrix.
_BLOCK_ENTRIES = 1 << 17


class InputError(ValueError):
    """Malformed input data or out-of-range parameters."""


class EmptyResultError(RuntimeError):
    """A pipeline stage legitimately produced nothing to work with."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected graph as canonical edge arrays.

    ``i``, ``j``, ``w`` are read-only copies with i < j, sorted by (i, j),
    and w >= 0; zero weights are allowed because neighborhood graphs over
    point clouds may contain coincident points.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name, dtype in (("i", np.int64), ("j", np.int64), ("w", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_edges(cls, n, edges):
        """Normalize and validate edges into a Graph.

        Accepts (i, j) or (i, j, w) items, or an (m, 2) / (m, 3) array of
        them; (i, j) items weigh 1. Orients every edge as i < j, rejects
        non-integer vertex ids, self-loops, duplicates and negative or
        non-finite weights. The first offending edge is reported.
        """
        if n < 1:
            raise InputError("graph needs at least one vertex")
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.float64)
        if arr.size == 0:
            arr = np.empty((0, 3))
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise InputError("edges must be (i, j) or (i, j, w) items")
        whole = (np.isfinite(arr[:, :2]) & (arr[:, :2] == np.floor(arr[:, :2]))).all(axis=1)
        if not whole.all():
            a, b = arr[np.argmin(whole), :2]  # the first edge with a non-integer id
            raise InputError(f"non-integer vertex id on edge ({a:g},{b:g})")
        lo_id, hi_id = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
        outside = (lo_id < 0) | (hi_id >= n)
        # the range is checked on the typed ids: clipped, the refused ones cast to int64 exactly
        i, j = (np.clip(x, -1, n).astype(np.int64) for x in (lo_id, hi_id))
        w = arr[:, 2] if arr.shape[1] == 3 else np.ones(len(arr))
        order = np.lexsort((j, i))  # stable: repeats keep their input order
        dup = np.zeros(len(arr), dtype=bool)
        dup[order[1:]] = (i[order[1:]] == i[order[:-1]]) & (j[order[1:]] == j[order[:-1]])
        bad = np.flatnonzero((lo_id == hi_id) | outside | dup | ~np.isfinite(w) | (w < 0))
        if bad.size:
            k = bad[0]
            lo, hi = (f"{x + 0.0:.17g}" for x in (lo_id[k], hi_id[k]))  # whole ids as typed: 7, 1e+20
            if lo_id[k] == hi_id[k]:
                raise InputError(f"self-loop at vertex {lo}")
            if outside[k]:
                raise InputError(f"edge ({lo},{hi}) out of range for n={n}")
            if dup[k]:
                raise InputError(f"duplicate edge ({lo},{hi})")
            kind = "non-finite" if not np.isfinite(w[k]) else "negative"
            raise InputError(f"{kind} edge weight {float(w[k])} on ({lo},{hi})")
        return cls(n=n, i=i[order], j=j[order], w=w[order])

    @property
    def edges(self):
        """The edges as a tuple of (i, j, w) tuples."""
        return tuple(zip(self.i.tolist(), self.j.tolist(), self.w.tolist()))


@dataclass(frozen=True)
class DistanceMatrix:
    """Nonnegative distance matrix; pairs with no path are at ``inf``.

    Hop counts are exactly symmetric. Weighted shortest paths are
    symmetric only to an ulp (each row is its own Dijkstra run); the
    triple search reads rows of its side mask, so every pick still closes
    a triangle.

    ``connected`` is true when every entry is finite. ``diameter`` is the
    largest finite distance. ``integer_valued`` marks exact metrics (graph
    hop counts or integer weights) where side-length equality is exact
    rather than binned.

    ``d`` is taken over, not copied: it becomes read-only in the caller's
    hands too, since a copy would double the peak memory of an n x n matrix.
    """

    d: np.ndarray
    connected: bool
    diameter: float
    integer_valued: bool

    def __post_init__(self):
        self.d.setflags(write=False)

    @property
    def n(self):
        return self.d.shape[0]

    def scaled(self, c):
        """Return a copy with every distance multiplied by c > 0 and its flags derived afresh."""
        if c <= 0:
            raise InputError("scale factor must be positive")
        return _finalize_distance_matrix(self.d * c)


def _row_ranges(n):
    """The ``(lo, hi)`` row ranges of an n-column matrix in blocks of about ``_BLOCK_ENTRIES`` entries."""
    step = max(1, _BLOCK_ENTRIES // n)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _finalize_distance_matrix(d):
    """Derive the connectivity, diameter and integrality flags of ``d``.

    Takes over ``d``, a fresh C-contiguous float64 array with a zero
    diagonal; the diagonal changes neither the maximum nor the integrality
    test. Reads ``d`` in row blocks, so its temporary arrays are a block's
    size, not the matrix's.
    """
    finite, diameters, errors = zip(*(_block_flags(d[lo:hi]) for lo, hi in _row_ranges(d.shape[0])))
    return DistanceMatrix(d=d, connected=all(finite), diameter=max(diameters), integer_valued=max(errors) <= 1e-9)


def _block_flags(block):
    """A row block's flags: all finite, its largest finite entry, and how far its finite entries are from integers."""
    finite = np.isfinite(block)
    with np.errstate(invalid="ignore"):  # inf - inf is masked out
        err = np.rint(block)
        np.subtract(block, err, out=err)
        np.abs(err, out=err)
    return (
        bool(finite.all()),
        float(np.max(block, where=finite, initial=0.0)),
        float(np.max(err, where=finite, initial=0.0)),
    )


def _hop_counts(graph: Graph):
    """Hop counts of an unweighted graph as a DistanceMatrix.

    One BFS runs out of every vertex at once (Then et al., "The More the
    Merrier", PVLDB 2014): row v of a bitset, 64 sources to a uint64 word,
    holds the sources that have reached v. A level ORs each row's
    neighbours' frontier rows and keeps what was not reached before. Rows
    are sorted by degree, so neighbour slot k updates the prefix of rows of
    degree > k in place. Plane b of the bit-sliced result holds bit b of
    every distance.

    The matrix is filled from the planes in row blocks, so it is the one
    N² array made. The flags need no scan of it: hop counts are integers,
    the largest finite one is the number of levels, and the graph is
    connected when no pair is left unreached.
    """
    n, words = graph.n, -(-graph.n // 64)
    ends, others = np.concatenate((graph.i, graph.j)), np.concatenate((graph.j, graph.i))
    nbrs, deg = others[np.argsort(ends, kind="stable")], np.bincount(ends, minlength=n)
    perm = np.argsort(-deg, kind="stable")  # row p holds vertex perm[p]
    pos, first = np.argsort(perm), (np.cumsum(deg) - deg)[perm]
    rows_with = np.searchsorted(-deg[perm], -np.arange(deg.max(initial=0)), side="left")  # degree > k
    # slot k: the row of each row's k-th neighbour; an edgeless graph gets one empty slot
    head, *slots = [pos[nbrs[first[:c] + k]] for k, c in enumerate(rows_with.tolist())] or [perm[:0]]
    frontier = np.zeros((n, words), dtype=np.uint64)
    frontier[np.arange(n), perm >> 6] = np.left_shift(np.uint64(1), (perm & 63).astype(np.uint64))
    unreached = ~frontier  # padding bits past source n - 1 are never reached, and unpack drops them
    new, planes, levels = np.empty_like(frontier), [], 0
    while True:
        np.take(frontier, head, axis=0, out=new[: head.size], mode="clip")  # "clip" skips a buffered copy
        new[head.size :] = 0
        for src in slots:
            np.bitwise_or(new[: src.size], np.take(frontier, src, axis=0), out=new[: src.size])
        new &= unreached
        if not new.max():
            break
        levels += 1
        # a pair at distance L is unreached at levels 1..L, where bit b of the level flips an odd
        # number of times iff bit b of L is set: so XOR-ing at each flip leaves bit b of L
        for b in range((levels ^ (levels - 1)).bit_length()):
            if b == len(planes):
                planes.append(np.zeros_like(new))
            planes[b] ^= unreached
        unreached ^= new
        frontier, new = new, frontier

    def unpack(bits, rows):  # the given vertices' rows, one byte per source
        bytes_ = bits[pos[rows]].astype("<u8", copy=False).view(np.uint8)
        return np.unpackbits(bytes_, axis=1, count=n, bitorder="little")

    d, connected = np.empty((n, n)), True
    for lo, hi in _row_ranges(n):
        acc = np.zeros((hi - lo, n), dtype=np.uint16 if len(planes) <= 16 else np.uint32)
        for b, plane in enumerate(planes):
            acc |= np.left_shift(unpack(plane, slice(lo, hi)), b, dtype=acc.dtype)
        d[lo:hi] = acc
        apart = unpack(unreached, slice(lo, hi)).view(bool)
        d[lo:hi][apart] = np.inf
        connected = connected and not apart.any()
    return DistanceMatrix(d=d, connected=connected, diameter=float(levels), integer_valued=True)


def shortest_path_matrix(graph: Graph) -> DistanceMatrix:
    """All-pairs shortest-path distances of a weighted undirected graph.

    Unweighted graphs get exact hop counts from one bit-parallel BFS;
    weighted ones get scipy's Dijkstra, one run per source (Floyd-Warshall
    once the edges number N²/4). Disconnected pairs stay at ``inf``.
    """
    if graph.n < 1:
        raise InputError("graph has zero vertices")
    if np.any(graph.w < 0):
        raise InputError("negative edge weights are not supported")
    if np.all(graph.w == 1.0):
        D = _hop_counts(graph)
        logger.debug("shortest paths: solver=bfs n=%d edges=%d levels=%d", graph.n, graph.i.size, int(D.diameter))
        return D
    adjacency = coo_matrix((graph.w, (graph.i, graph.j)), shape=(graph.n, graph.n)).tocsr()
    d = shortest_path(adjacency, method="auto", directed=False)  # zero-weight edges kept
    logger.debug("shortest paths: solver=dijkstra n=%d edges=%d", graph.n, graph.i.size)
    return _finalize_distance_matrix(d)


def _square_checks(d):
    """Whether a square ``d`` is finite, nonnegative and symmetric, as three bools.

    Symmetric means ``np.allclose(d, d.T, rtol=1e-9, atol=1e-12)``; every
    check reads ``d`` in row blocks, comparing rows ``d[lo:hi]`` with
    columns ``d[:, lo:hi]``, so no temporary array is the matrix's size.
    """
    finite = nonnegative = symmetric = True
    for lo, hi in _row_ranges(d.shape[0]):
        rows, cols = d[lo:hi], d[:, lo:hi].T
        finite = finite and bool(np.isfinite(rows).all())
        nonnegative = nonnegative and not (rows < 0).any()
        symmetric = symmetric and np.allclose(rows, cols, rtol=1e-9, atol=1e-12)
    return finite, nonnegative, symmetric


def distance_matrix_from_array(arr) -> DistanceMatrix:
    """Wrap a raw square array of finite distances.

    Validates symmetry, zero diagonal and nonnegativity; the caller is
    responsible for the triangle inequality. The checks and the
    symmetrised copy ``0.5 * (d + d.T)`` run in row blocks: the copy is the
    one matrix-sized array made.
    """
    d = np.asarray(arr, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError(f"distance matrix must be square, got shape {d.shape}")
    if d.shape[0] < 1:
        raise InputError("empty distance matrix")
    finite, nonnegative, symmetric = _square_checks(d)
    if not finite:
        raise InputError("distance matrix contains NaN or Inf")
    if not nonnegative:
        raise InputError("distance matrix contains negative entries")
    if not symmetric:
        raise InputError("distance matrix is not symmetric")
    out = np.empty(d.shape)
    for lo, hi in _row_ranges(d.shape[0]):
        np.add(d[lo:hi], d[:, lo:hi].T, out=out[lo:hi])
        out[lo:hi] *= 0.5
    if np.any(np.diag(out) != 0):
        raise InputError("distance matrix diagonal must be zero")
    return _finalize_distance_matrix(out)


def gromov_products(d12, d13, d23) -> tuple[float, float, float]:
    """Solve r_i + r_j = d(x_i, x_j) for the three ball radii ``(r1, r2, r3)``.

    A negative component signals a triangle-inequality violation; it is
    reported, not raised, so the caller can decide.
    """
    if d12 < 0 or d13 < 0 or d23 < 0:
        raise InputError("distances must be nonnegative")
    r1 = 0.5 * (d12 + d13 - d23)
    r2 = 0.5 * (d12 + d23 - d13)
    r3 = 0.5 * (d13 + d23 - d12)
    return r1, r2, r3


def lambda_measure(d12, d13, d23) -> tuple[float, bool, bool]:
    """Largest alpha with alpha*d(x_i,x_j) <= d(x_i,x_k) + d(x_j,x_k) for all pairs.

    Closed form: the binding constraint is the longest side, so
    lam = (perimeter - d_max) / d_max. Ranges over [1, 2] on metric triples;
    1 means collinear, 2 equilateral. Returns ``(lam, is_degenerate,
    is_equilateral)``; both flags use the relative tolerance
    ``EXACT_SIDE_RTOL``.
    """
    sides = (float(d12), float(d13), float(d23))
    if min(sides) <= 0:
        raise InputError("degenerate triple: zero side length (coincident points)")
    d_max = max(sides)
    lam = (sum(sides) - d_max) / d_max
    is_equilateral = (d_max - min(sides)) <= EXACT_SIDE_RTOL * d_max
    is_degenerate = lam <= 1.0 + EXACT_SIDE_RTOL
    return lam, is_degenerate, is_equilateral


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
    base = 1 if edges[:, :2].min() >= 1 else 0
    edges[:, :2] -= base
    n = int(edges[:, :2].max()) + 1
    logger.debug("edge list %s: %d-based ids, n=%d edges=%d", path, base, n, len(edges))
    return Graph.from_edges(n, edges)

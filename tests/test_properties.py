"""Property tests: graph builders, matrix finalisation, the triple search, rho and
profile distributions against loop references, and W1 against the dense LP."""

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import csc_array
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import oracles
from curvprof import (
    DistanceMatrix,
    Graph,
    GridSpec,
    InputError,
    PointCloud,
    ProfileDistribution,
    build_profile,
    distance_matrix_from_array,
    epsilon_graph,
    shortest_path_matrix,
    to_distribution,
    transport,
    wasserstein1,
)
from curvprof import metric as metric_module
from curvprof import profile as profile_module
from curvprof.graphs import _graph_from_neighbor_selection, _looks_square_metric, _neighbor_lists, _pairwise
from curvprof.metric import _finalize_distance_matrix, _hop_counts
from curvprof.profile import (
    _EDGE_CHUNK,
    _RHO_RANGE_SLACK,
    _WINDOW_TESTS,
    DEFAULT_SIDE_BINS,
    _check_rho_range,
    _side_keys,
    cluster_sample_subset,
    find_equilateral_triples,
    rho_general,
    rho_minmax,
)

# small id ranges make reversed pairs, repeats, self-loops and
# out-of-range ids common
edge_items = st.lists(
    st.tuples(
        st.integers(-2, 9),
        st.integers(-2, 9),
        st.one_of(st.floats(-2.0, 5.0, allow_nan=False), st.sampled_from([0.0, 1.0, -1.0])),
    ),
    max_size=25,
)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 8), items=edge_items, weighted=st.booleans())
def test_from_edges_matches_loop_reference(n, items, weighted):
    edges = items if weighted else [(i, j) for i, j, _ in items]
    try:
        expected = oracles.graph_edges_loop(n, edges)
    except Exception as exc:  # noqa: BLE001 - the reference's error is the contract
        with pytest.raises(type(exc)) as got:
            Graph.from_edges(n, edges)
        assert str(got.value) == str(exc)
        return
    g = Graph.from_edges(n, edges)
    assert g.edges == expected
    assert g.n == n


@st.composite
def neighbor_selections(draw):
    n = draw(st.integers(2, 10))
    kmax = draw(st.integers(1, n - 1))
    idx = np.array(
        [draw(st.permutations([v for v in range(n) if v != i]))[:kmax] for i in range(n)]
    )
    # few distinct weights: both ends often see the same edge at different weights
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=n * kmax, max_size=n * kmax))
    k_per_point = draw(st.lists(st.integers(0, kmax), min_size=n, max_size=n))
    return idx, np.array(weights).reshape(n, kmax), np.array(k_per_point)


@settings(max_examples=300, deadline=None)
@given(sel=neighbor_selections())
def test_neighbor_selection_matches_loop_reference(sel):
    idx, dist, k_per_point = sel
    g = _graph_from_neighbor_selection(idx, dist, k_per_point)
    expected = oracles.neighbor_selection_loop(idx, dist, k_per_point)
    assert (g.i.tolist(), g.j.tolist(), g.w.tolist()) == (
        [e[0] for e in expected],
        [e[1] for e in expected],
        [e[2] for e in expected],
    )


def _lattice(n, dim, seed, levels=3):
    """n points on an integer grid of side ``levels``: equal distances and duplicates are common."""
    return np.random.default_rng(seed).integers(0, levels, (n, dim)).astype(float)


def _as_metric(coords):
    return distance_matrix_from_array(oracles.euclidean_matrix(coords))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 300),
    dim=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["uniform", "spread", "integer", "lattice"]),
)
@example(n=2, dim=1, seed=0, kind="integer")
@example(n=300, dim=60, seed=1, kind="spread")
def test_pairwise_of_a_point_cloud_equals_pdist(n, dim, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        coords = _lattice(n, dim, seed)
    elif kind == "spread":  # coordinates across six orders of magnitude
        coords = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4, (n, dim))
    else:
        coords = 50.0 * rng.random((n, dim))
        if kind == "integer":
            coords = np.rint(coords)
    got = _pairwise(PointCloud(coords=coords))
    assert got.dtype == np.float64 and got.shape == (n, n)
    assert got.tobytes() == oracles.euclidean_matrix(coords).tobytes()


@st.composite
def neighbor_inputs(draw):
    """A point cloud or its metric, a k in [1, n - 1] and an eps.

    Lattice clouds put ties and duplicate points in most rows; n above 512
    spans several row blocks (a block holds 2**18 // n rows).
    """
    n = draw(st.one_of(st.integers(2, 40), st.integers(513, 1100)))
    dim, seed = draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        coords = _lattice(n, dim, seed, levels=draw(st.sampled_from([2, 3, 5])))
    else:
        coords = 3.0 * np.random.default_rng(seed).random((n, dim))
    data = _as_metric(coords) if draw(st.booleans()) else PointCloud(coords=coords)
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    return data, k, draw(st.sampled_from([0.1, 0.5, 1.0, 1.5]))


@settings(max_examples=100, deadline=None)
@given(inp=neighbor_inputs())
@example(inp=(PointCloud(coords=_lattice(1100, 2, seed=0)), 1, 1.0))
@example(inp=(PointCloud(coords=_lattice(700, 3, seed=1)), 699, 1.0))
@example(inp=(_as_metric(_lattice(600, 2, seed=2)), 5, 1.0))
def test_neighbor_lists_equal_the_argsort_reference(inp):
    data, k, _ = inp
    idx, dist = _neighbor_lists(data, k)
    ref_idx, ref_dist = oracles.neighbor_lists_argsort(data, k)
    assert (idx.dtype, dist.dtype) == (ref_idx.dtype, ref_dist.dtype)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)


@settings(max_examples=100, deadline=None)
@given(inp=neighbor_inputs())
@example(inp=(PointCloud(coords=_lattice(1100, 2, seed=0)), 1, 1.0))
@example(inp=(_as_metric(_lattice(600, 2, seed=2)), 5, 1.5))
def test_epsilon_graph_equals_the_dense_threshold(inp):
    data, _, eps = inp
    D = data.d if isinstance(data, DistanceMatrix) else oracles.euclidean_matrix(data.coords)
    i, j = np.nonzero(np.triu(D <= eps, 1))
    g = epsilon_graph(data, eps)
    assert np.array_equal(g.i, i)
    assert np.array_equal(g.j, j)
    assert np.array_equal(g.w, D[i, j])


@st.composite
def small_metrics(draw):
    """Shortest-path metric of a random graph on <= 14 vertices.

    Unweighted, integer- or float-weighted (half-integers and near-unit
    floats put many triangles in one side bin; uniform tenths make d / h
    round across window edges); cutting every edge across a random split
    point makes some of them disconnected.
    """
    n = draw(st.integers(3, 14))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    cut = draw(st.integers(0, n))
    kept = [(a, b) for (a, b), on in zip(pairs, present) if on and (b < cut or a >= cut)]
    weights = draw(
        st.sampled_from(
            [
                st.just(1.0),
                st.just(0.1),
                st.just(0.2),
                st.just(0.3),
                st.integers(1, 4).map(float),
                st.sampled_from([0.5, 1.5, 2.5]),
                st.floats(0.9, 1.1),
                st.floats(0.0, 4.0, allow_nan=False),
            ]
        )
    )
    edges = [(a, b, draw(weights)) for a, b in kept]
    return shortest_path_matrix(Graph.from_edges(n, edges))


def _closes(A, triple):
    return any(A[p, q] and A[p, r] and A[q, r] for p, q, r in itertools.permutations(triple))


def _cycle(n, w):
    return shortest_path_matrix(Graph.from_edges(n, [(i, (i + 1) % n, w) for i in range(n)]))


def _reference_scale(k, h):
    """Side label and window of key ``k``, as the reference scale list gives them."""
    return (float(k), None) if h is None else (float((k + 0.5) * h), (float(k * h), float((k + 1) * h)))


@settings(max_examples=500, deadline=None)
@given(
    D=small_metrics(),
    m=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
    allowed=st.one_of(st.none(), st.lists(st.integers(0, 13), unique=True)),
)
# floor(d / h) keys the triangle side 1.7 one window above the one holding it
@example(D=_cycle(51, 0.1), m=1.0, seed=0, allowed=None)
def test_triple_search_matches_pair_scan_reference(D, m, seed, allowed):
    keep = np.ones(D.n, dtype=bool)
    if allowed is not None:
        allowed = np.array(sorted(v for v in allowed if v < D.n), dtype=np.int64)
        keep[:] = False
        keep[allowed] = True
    h = None if D.integer_valued else D.diameter / DEFAULT_SIDE_BINS
    keys = _side_keys(D, h)
    keys[~keep] = 0
    keys[:, ~keep] = 0

    def reference_mask(k):
        A = oracles.side_mask(D, *_reference_scale(k, h))
        return A & keep[:, None] & keep[None, :]

    # every window that could hold a finite side, listed or not
    top = max((k for k, _, _ in oracles.scales(D, h)), default=0) + 2
    assert set(np.unique(keys).tolist()) - {0} == {k for k in range(1, top) if reference_mask(k).any()}
    for k in np.unique(keys).tolist():
        if not k:
            continue
        A = keys == k
        ref = reference_mask(k)
        assert A.tobytes() == ref.tobytes()
        got = find_equilateral_triples(D, A, m=m, seed=[seed, k])
        assert got == oracles.equilateral_triples_matmul(D, A, m=m, seed=[seed, k])
        if np.array_equal(A, A.T):
            label, window = _reference_scale(k, h)
            assert got == oracles.equilateral_triples_scan(D, label, m, [seed, k], window, allowed)
        else:
            # an ulp-asymmetric weighted side graph: the row-built pick still closes
            assert all(_closes(A, t) for t in got)


@settings(max_examples=200, deadline=None)
@given(
    D=small_metrics(),
    cluster_sample=st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(1, 14))),
    seed=st.integers(0, 2**32 - 1),
)
# binned sides 1.5, 3.5 and 4.5 at h = 0.09: keys 16, 38 and 50, with gaps between
@example(
    D=distance_matrix_from_array([[0.0, 1.5, 4.5], [1.5, 0.0, 3.5], [4.5, 3.5, 0.0]]),
    cluster_sample=None,
    seed=0,
)
def test_build_profile_searches_each_key_once_in_ascending_order(D, cluster_sample, seed):
    h = None if D.integer_valued else D.diameter / DEFAULT_SIDE_BINS
    keys = _side_keys(D, h)
    if cluster_sample is not None:
        outside = np.ones(D.n, dtype=bool)
        outside[cluster_sample_subset(D, *cluster_sample, seed=seed)] = False
        keys[outside] = 0
        keys[:, outside] = 0
    searched = []
    real = profile_module.find_equilateral_triples

    def record(D, A, m, seed):
        searched.append(seed[1])
        assert A.tobytes() == (keys == seed[1]).tobytes()
        return real(D, A, m=m, seed=seed)

    with mock.patch.object(profile_module, "find_equilateral_triples", record):
        build_profile(D, m=1.0, seed=seed, cluster_sample=cluster_sample)
    assert searched == sorted(set(keys.ravel().tolist()) - {0})


@settings(max_examples=300, deadline=None)
@given(
    D=st.one_of(
        small_metrics(),
        st.builds(lambda n, dim, seed: _as_metric(_lattice(n, dim, seed, levels=2)),
                  st.integers(2, 14), st.integers(1, 3), st.integers(0, 2**32 - 1)),
    ),
    n_clusters=st.integers(1, 16),
    per_cluster=st.integers(1, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_cluster_sample_subset_equals_the_rescanning_reference(D, n_clusters, per_cluster, seed):
    # small_metrics cuts some graphs into components; 2-level lattices repeat points
    got = cluster_sample_subset(D, n_clusters, per_cluster, seed=seed)
    assert got.tobytes() == oracles.cluster_sample_subset_rescan(D, n_clusters, per_cluster, seed=seed).tobytes()


def _random_side_mask(n, density, seed, flips=0.0):
    """Random side graph on n vertices, with a false diagonal.

    Symmetric, or with a ``flips`` share of entries then flipped on one side
    only, as a weighted metric's ulp-asymmetric rows put a pair in a side
    window from one end but not from the other.
    """
    rng = np.random.default_rng(seed)
    A = np.triu(rng.random((n, n)) < density, 1)
    A |= A.T
    A ^= rng.random((n, n)) < flips
    np.fill_diagonal(A, False)
    return A


# a seed draws the entries, so that masks of whole 64-bit words and beyond
# stay cheap to generate
side_masks = st.builds(
    _random_side_mask,
    n=st.integers(3, 140),
    density=st.sampled_from([0.02, 0.05, 0.1, 0.3, 0.6, 0.9]),
    seed=st.integers(0, 2**32 - 1),
    flips=st.sampled_from([0.0, 0.0, 0.005, 0.05]),
)


def _metric_of_size(n):
    # the triple search reads only the side mask and the matrix size
    return DistanceMatrix(d=np.zeros((n, n)), connected=True, diameter=0.0, integer_valued=True)


@settings(max_examples=300, deadline=None)
@given(A=side_masks, m=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
# 63, 64, 65 and 129 vertices: padding bits, a row of exactly one word, a
# second and a third word; 140 vertices at density 0.9, a dense side graph
@example(A=_random_side_mask(63, 0.3, seed=1), m=1.0, seed=0)
@example(A=_random_side_mask(64, 0.3, seed=2), m=0.1, seed=1)
@example(A=_random_side_mask(65, 0.3, seed=3, flips=0.05), m=1.0, seed=2)
@example(A=_random_side_mask(129, 0.1, seed=4), m=0.5, seed=3)
@example(A=_random_side_mask(129, 0.6, seed=5, flips=0.005), m=1.0, seed=4)
@example(A=_random_side_mask(140, 0.9, seed=6), m=1.0, seed=5)
def test_triple_search_equals_the_matmul_reference(A, m, seed):
    D = _metric_of_size(A.shape[0])
    got = find_equilateral_triples(D, A, m=m, seed=seed)
    assert got == oracles.equilateral_triples_matmul(D, A, m=m, seed=seed)
    # a list of tuples of Python ints: callers test it with `not out` and write it as JSON
    assert type(got) is list
    assert all(type(t) is tuple and len(t) == 3 and all(type(v) is int for v in t) for t in got)


def _hub_side_mask(n, hubs, density, seed, flips=0.0, late=True):
    """Sparse random side graph whose first ``hubs`` rows join about half the rest.

    No two partners of any hub are joined, so a hub has no hit, or (``late``)
    a first hit only at its second-last partner, where its last two partners
    are joined. Most other rows have no hit either. ``flips`` as in
    :func:`_random_side_mask`.
    """
    rng = np.random.default_rng(seed)
    A = np.triu(rng.random((n, n)) < density, 1)
    A |= A.T
    partners = rng.random((min(hubs, n), n)) < 0.5
    partners[:, :hubs] = False
    joined = partners.any(axis=0)
    A[np.ix_(joined, joined)] = False
    A[:hubs] = partners
    A[:, :hubs] = partners.T
    for row in partners if late else ():
        last = np.flatnonzero(row)[-2:]
        if last.size == 2:
            A[last[0], last[1]] = A[last[1], last[0]] = True
    A ^= rng.random((n, n)) < flips
    np.fill_diagonal(A, False)
    return A


hub_masks = st.builds(
    _hub_side_mask,
    n=st.integers(3, 300),
    hubs=st.integers(0, 40),
    density=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
    seed=st.integers(0, 2**32 - 1),
    flips=st.sampled_from([0.0, 0.0, 0.005]),
    late=st.booleans(),
)


@pytest.mark.parametrize(
    "window_tests, edge_chunk",
    [(_WINDOW_TESTS, _EDGE_CHUNK), (1, _EDGE_CHUNK), (_WINDOW_TESTS, 16)],
    ids=["default", "one", "capped"],
)
@settings(max_examples=150, deadline=None)
@given(A=hub_masks, m=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
# hub rows of degree about 150 against a first window of 6 ranks: five rounds
# with late first hits and five with none; ulp-asymmetric flips give most rows
# an early hit (two rounds)
@example(A=_hub_side_mask(300, 40, 0.05, seed=0), m=1.0, seed=0)
@example(A=_hub_side_mask(300, 40, 0.05, seed=0, late=False), m=1.0, seed=0)
@example(A=_hub_side_mask(300, 40, 0.05, seed=1, flips=0.005), m=0.2, seed=1)
def test_windowed_triple_search_equals_the_matmul_reference(window_tests, edge_chunk, A, m, seed):
    D = _metric_of_size(A.shape[0])
    # a budget of one test a round makes round 0 one rank wide; windows then
    # double. A cap of 16 tests a round holds more than 16 rows to one rank each.
    with mock.patch.multiple(profile_module, _WINDOW_TESTS=window_tests, _EDGE_CHUNK=edge_chunk):
        got = find_equilateral_triples(D, A, m=m, seed=seed)
    assert got == oracles.equilateral_triples_matmul(D, A, m=m, seed=seed)


def test_hub_rows_take_several_windows(caplog):
    # the examples above run at least three rounds at the default budget
    D = _metric_of_size(300)
    with caplog.at_level("DEBUG", logger="curvprof.profile"):
        find_equilateral_triples(D, _hub_side_mask(300, 40, 0.05, seed=0))
        find_equilateral_triples(D, _hub_side_mask(300, 40, 0.05, seed=0, late=False))
    rounds = [int(re.search(r"rounds=(\d+)", r.getMessage()).group(1)) for r in caplog.records]
    assert len(rounds) == 2 and min(rounds) >= 3


near_integer = st.builds(
    lambda k, delta: k + delta,
    st.one_of(st.integers(0, 6), st.integers(0, 10**6)).map(float),
    st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9]),
).filter(lambda x: x >= 0)
entry_kinds = st.sampled_from(
    [
        st.integers(0, 6).map(float),
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
        near_integer,
        st.one_of(st.integers(0, 6).map(float), near_integer),
    ]
)


@st.composite
def unfinalized_matrices(draw):
    """Square zero-diagonal matrices as they reach finalisation, inf for disconnected pairs."""
    n = draw(st.integers(1, 8))
    entries = draw(entry_kinds)
    iu = np.triu_indices(n, k=1)
    values = np.array(draw(st.lists(entries, min_size=len(iu[0]), max_size=len(iu[0]))), dtype=np.float64)
    gaps = draw(st.sampled_from(["none", "some", "all"]))
    if gaps == "some":
        cut = np.array(draw(st.lists(st.booleans(), min_size=len(iu[0]), max_size=len(iu[0]))), dtype=bool)
        values[cut] = np.inf
    elif gaps == "all":
        values[:] = np.inf
    d = np.zeros((n, n))
    d[iu] = values
    return d + d.T


@settings(max_examples=500, deadline=None)
@given(d=unfinalized_matrices())
# 1e-9 is exactly on the integrality tolerance, 2e-9 just off it
@example(d=np.array([[0.0, 1e-9, 3.0], [1e-9, 0.0, np.inf], [3.0, np.inf, 0.0]]))
@example(d=np.array([[0.0, 2e-9], [2e-9, 0.0]]))
def test_finalize_matches_copying_reference(d):
    expected = oracles.finalize_distance_matrix_copying(d.copy())
    got = _finalize_distance_matrix(d.copy())
    assert got.d.tobytes() == expected.d.tobytes()
    assert got.d.flags.c_contiguous
    assert (got.connected, got.diameter, got.integer_valued) == (
        expected.connected,
        expected.diameter,
        expected.integer_valued,
    )


@st.composite
def unweighted_graphs(draw):
    """(n, edges) with n in 1..200: random components, an optional star, isolated vertices."""
    n = draw(st.integers(1, 200))
    parts = draw(st.integers(1, 4))  # edges join only vertices of equal id mod parts
    isolated = draw(st.integers(0, n))  # the last `isolated` vertices get no edge
    mean_degree = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.triu_indices(n, 1)
    keep = (i % parts == j % parts) & (j < n - isolated) & (rng.random(i.size) < mean_degree / n)
    edges = set(zip(i[keep].tolist(), j[keep].tolist()))
    if draw(st.booleans()):  # a star centred on vertex 0 over its residue class
        edges |= {(0, v) for v in range(parts, n - isolated, parts)}
    return n, sorted(edges)


def _cycle_edges(n, start=0):
    return [(start + v, start + (v + 1) % n) for v in range(n)]


@settings(max_examples=200, deadline=None)
@given(graph=unweighted_graphs())
# one, two and three 64-bit words of sources; 64 BFS levels on the 129-cycle
@example(graph=(63, [(v, v + 1) for v in range(62)]))
@example(graph=(64, _cycle_edges(64)))
@example(graph=(65, [(0, v) for v in range(1, 64)]))
@example(graph=(128, _cycle_edges(64) + _cycle_edges(64, start=64)))
@example(graph=(129, _cycle_edges(129)))
# an edgeless graph and a single vertex: no BFS level at all
@example(graph=(5, []))
@example(graph=(1, []))
def test_hop_counts_match_networkx_bfs(graph):
    n, edges = graph
    got = shortest_path_matrix(Graph.from_edges(n, edges))
    expected = oracles.hop_counts(n, edges)
    finite = np.isfinite(expected)
    assert got.d.tobytes() == expected.tobytes()
    assert got.connected is bool(finite.all())
    assert got.diameter == float(expected[finite].max())
    assert got.integer_valued
    # the BFS sets the flags without scanning the matrix; the scan agrees
    scan = _finalize_distance_matrix(got.d.copy())
    assert (got.connected, got.diameter, got.integer_valued) == (scan.connected, scan.diameter, scan.integer_valued)


def test_hop_counts_on_a_long_path_and_cycle():
    # long diameters, which random graphs rarely have: |i - j| and min(|i - j|, n - |i - j|)
    for n, edges, closed_form in (
        (300, [(v, v + 1) for v in range(299)], lambda gap: gap),
        (301, _cycle_edges(301), lambda gap: np.minimum(gap, 301 - gap)),
    ):
        ids = np.arange(n)
        expected = closed_form(np.abs(ids[:, None] - ids[None, :])).astype(np.float64)
        D = shortest_path_matrix(Graph.from_edges(n, edges))
        assert D.d.tobytes() == expected.tobytes()
        assert D.connected and D.diameter == expected.max()


def _blocks_of(entries):
    """Row blocks of ``entries`` matrix entries (at least one row): small metrics span several blocks."""
    return mock.patch.object(metric_module, "_BLOCK_ENTRIES", entries)


def _on_window_edges(D, k):
    """A bin width that puts the first positive finite side on the edge of window k, or None."""
    sides = D.d[np.isfinite(D.d) & (D.d > 0)]
    return float(sides[0]) / k if sides.size else None


@settings(max_examples=300, deadline=None)
@given(
    D=small_metrics(),
    scale=st.sampled_from([1.0, 0.3, 1e10]),
    bins=st.sampled_from(["exact", "default", "unit", "edge-1", "edge-3"]),
    entries=st.integers(1, 45),
)
# sides 1.5e10, 2.5e10 and 3.5e10 binned by 1e10: keys 1, 2 and 3
@example(
    D=distance_matrix_from_array([[0.0, 1.5, 2.5], [1.5, 0.0, 3.5], [2.5, 3.5, 0.0]]),
    scale=1e10,
    bins="edge-1",
    entries=3,
)
def test_blocked_flags_and_keys_equal_the_one_shot_references(D, scale, bins, entries):
    with _blocks_of(entries):
        S = D.scaled(scale)  # a blocked finalisation
        ref = oracles.finalize_distance_matrix_one_shot(D.d * scale)
        assert S.d.tobytes() == ref.d.tobytes()
        assert (S.connected, S.diameter, S.integer_valued) == (ref.connected, ref.diameter, ref.integer_valued)
        h = {
            "exact": None,
            "default": S.diameter / DEFAULT_SIDE_BINS or None,
            "unit": 1.0,  # every side of an integer metric on a window edge
            "edge-1": _on_window_edges(S, 1),
            "edge-3": _on_window_edges(S, 3),
        }[bins]
        # build_profile refuses a bin width that overflows the diameter's key, where both
        # key functions warn and the blocked one has no dtype to hold the other keys
        assume(h is None or np.isfinite(S.diameter / h))
        keys, expected = _side_keys(S, h), oracles.side_keys_one_shot(S, h)
        assert keys.dtype == expected.dtype
        assert np.array_equal(keys, expected)


@settings(max_examples=200, deadline=None)
@given(graph=unweighted_graphs(), entries=st.integers(1, 600))
@example(graph=(129, _cycle_edges(129)), entries=129)
@example(graph=(5, []), entries=1)
def test_blocked_hop_counts_equal_unweighted_dijkstra(graph, entries):
    n, edges = graph
    with _blocks_of(entries):
        got = _hop_counts(Graph.from_edges(n, edges))
    expected = oracles.hop_counts_dijkstra(n, edges)
    finite = np.isfinite(expected)
    assert got.d.tobytes() == expected.tobytes()
    assert (got.connected, got.diameter) == (bool(finite.all()), float(expected[finite].max()))


@st.composite
def near_symmetric_arrays(draw):
    """Square arrays at the edge of every check.

    Asymmetry below, on and above allclose's tolerances, and one entry
    set to -1, NaN, inf or 1e-13 (on the diagonal, 1e-13 breaks its zeros).
    """
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.random((n, n)) * 10.0 ** draw(st.sampled_from([-12, 0, 10]))
    d = d + d.T
    np.fill_diagonal(d, 0.0)
    # relative asymmetry below, on and above the tolerance; an absolute one near atol
    nudge = draw(st.sampled_from([0.0, 5e-10, 1e-9, 2e-9, 1e-6]))
    d *= 1.0 + nudge * np.triu(rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 1.0])))
    d[np.tril_indices(n, -1)] += draw(st.sampled_from([0.0, 5e-13, 2e-12]))
    spoil = draw(st.sampled_from([None, -1.0, np.nan, np.inf, 1e-13]))
    if spoil is not None:
        i, j = (int(v) for v in rng.integers(0, n, 2))
        d[i, j] = spoil
    return d


@settings(max_examples=400, deadline=None)
@given(arr=near_symmetric_arrays(), entries=st.integers(1, 60))
@example(arr=np.zeros((1, 1)), entries=1)
def test_blocked_distance_matrix_checks_equal_the_one_shot_ones(arr, entries):
    with _blocks_of(entries):
        assert _looks_square_metric(arr) is oracles.looks_square_metric_one_shot(arr)
        try:
            expected = oracles.distance_matrix_from_array_one_shot(arr)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                distance_matrix_from_array(arr)
            assert str(got.value) == str(exc)
            return
        D = distance_matrix_from_array(arr)
    assert D.d.tobytes() == expected.d.tobytes()
    assert D.d.flags.c_contiguous
    assert (D.connected, D.diameter, D.integer_valued) == (
        expected.connected,
        expected.diameter,
        expected.integer_valued,
    )


@settings(max_examples=300, deadline=None)
@given(D=small_metrics(), data=st.data())
def test_rho_minmax_matches_loop_reference(D, data):
    triples = data.draw(st.lists(st.permutations(range(D.n)).map(lambda p: tuple(p[:3])), max_size=20))
    # a longest side below twice the smallest normal float halves inexactly;
    # no scale holds one
    halves = [max(D.d[a, b], D.d[a, c], D.d[b, c]) / 2 for a, b, c in triples]
    if np.inf in halves:
        # a triple across two components has an infinite side and no rho
        with pytest.raises(InputError, match="spans disconnected components"):
            rho_minmax(D, triples)
    kept = [(t, r) for t, r in zip(triples, halves) if np.finfo(float).tiny <= r < np.inf]
    rho, witness = rho_minmax(D, [t for t, _ in kept])
    assert rho.shape == witness.shape == (len(kept),)
    for ((a, b, c), r), x, w in zip(kept, rho.tolist(), witness.tolist()):
        expected, expected_w = oracles.rho_minmax_loop(D, a, b, c, r)
        # any triple of a metric has rho in [1, 2]; only float dust is clamped
        assert 1 - _RHO_RANGE_SLACK <= expected <= 2 + _RHO_RANGE_SLACK
        assert x == min(max(expected, 1.0), 2.0)
        assert w == expected_w


@st.composite
def connected_metrics(draw):
    """Shortest-path metric of a random connected graph: a random tree plus extra edges."""
    n = draw(st.integers(3, 14))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] < e[1]), max_size=2 * n)))
    weights = draw(st.sampled_from([st.just(1.0), st.integers(1, 4).map(float), st.floats(0.1, 4.0)]))
    return shortest_path_matrix(Graph.from_edges(n, [(a, b, draw(weights)) for a, b in sorted(edges)]))


@settings(max_examples=200, deadline=None)
@given(D=connected_metrics(), m=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_profile_rho_lies_in_unit_interval(D, m, seed):
    assert D.connected
    for rec in build_profile(D, m=m, seed=seed)["records"]:
        assert all(1.0 <= x <= 2.0 for x in rec["rho_values"])


@settings(max_examples=300, deadline=None)
@given(D=connected_metrics(), data=st.data())
def test_rho_general_of_a_metric_is_at_least_one(D, data):
    # unweighted, integer- and float-weighted graph metrics never break the triangle inequality
    v1, v2, v3 = data.draw(st.permutations(range(D.n)))[:3]
    rho, _ = rho_general(D, v1, v2, v3)
    assert rho >= 1 - 1e-9


@settings(max_examples=300, deadline=None)
@given(
    D=small_metrics(),
    k=st.integers(-3, 3),
    bins=st.one_of(st.none(), st.integers(1, 60)),
    m=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_binned_profile_is_invariant_under_power_of_two_scaling(D, k, bins, m, seed):
    # c = 2**k scales every distance, side bin and half side exactly, so each
    # pair keeps its key and each rho its bits; a general c can move a side
    # across a window edge
    c = 2.0**k
    S = D.scaled(c)
    positive = D.d[(D.d > 0) & np.isfinite(D.d)]
    # an integer-valued metric takes no side bin; subnormal sides scale inexactly
    assume(not D.integer_valued and not S.integer_valued and positive.min() >= 1e-300)
    h = None if bins is None else D.diameter / bins  # None: both default to diameter / 50
    p = build_profile(D, m=m, seed=seed, h=h)
    ps = build_profile(S, m=m, seed=seed, h=None if h is None else c * h)
    assert [c * rec["r"] for rec in p["records"]] == [rec["r"] for rec in ps["records"]]
    assert [np.array(rec["rho_values"]).tobytes() for rec in p["records"]] == [
        np.array(rec["rho_values"]).tobytes() for rec in ps["records"]
    ]


def test_check_rho_range_clamps_dust_and_names_the_outlier():
    dust = np.array([1.0 - _RHO_RANGE_SLACK, 1.0, 1.5, 2.0, 2.0 + _RHO_RANGE_SLACK])
    assert _check_rho_range(dust).tolist() == [1.0, 1.0, 1.5, 2.0, 2.0]
    for bad, side in ((1.0 - 3 * _RHO_RANGE_SLACK, "below 1"), (2.0 + 3 * _RHO_RANGE_SLACK, "above 2")):
        with pytest.raises(InputError, match=re.escape(f"expansion factor {bad} {side}")):
            _check_rho_range(np.array([1.5, bad, 1.0]))


profile_records = st.lists(
    st.tuples(
        st.floats(1e-3, 1e3),
        st.lists(st.floats(1.0, 2.0), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(
    records=profile_records,
    nr=st.integers(1, 60),
    nrho=st.integers(1, 60),
    r_reach=st.none() | st.floats(1.0, 10.0),
)
def test_to_distribution_matches_loop_reference(records, nr, nrho, r_reach):
    profile = {
        "meta": {},
        "records": [{"r": r, "count": len(v), "mean_rho": float(np.mean(v)), "rho_values": v} for r, v in records],
    }
    # a raw r axis reaches the largest r itself or up to ten times beyond it
    grid = GridSpec(nr=nr, nrho=nrho, r_max=None if r_reach is None else r_reach * max(r for r, _ in records))
    obs, support, mass = oracles.to_distribution_loop(profile, grid)
    queried = []

    class RecordingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(x)
            return super().query(x, *args, **kwargs)

    # snapping hides most observation changes, so compare what is snapped too
    with mock.patch("curvprof.transport.cKDTree", RecordingTree):
        got = to_distribution(profile, grid)
    assert [q.tobytes() for q in queried] == [obs.tobytes()]
    assert got.support.tobytes() == support.tobytes()
    assert got.mass.tobytes() == mass.tobytes()


def _draw_measure(draw, grid, max_nodes):
    """A measure on 1 to ``max_nodes`` distinct grid nodes, with masses from positive integer weights."""
    nodes = grid.nodes()
    size = draw(st.integers(1, min(max_nodes, len(nodes))))
    idx = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=size, max_size=size, unique=True))
    weights = np.array(draw(st.lists(st.integers(1, 1000), min_size=size, max_size=size)), float)
    return ProfileDistribution(support=nodes[sorted(idx)], mass=weights / weights.sum(), grid=grid)


@st.composite
def grid_measure_pairs(draw):
    """Two measures of up to 12 nodes on one small grid."""
    grid = GridSpec(nr=draw(st.integers(1, 8)), nrho=draw(st.integers(1, 8)))
    P = _draw_measure(draw, grid, 12)
    return P, P if draw(st.booleans()) else _draw_measure(draw, grid, 12)


@settings(max_examples=300, deadline=None)
@given(pair=grid_measure_pairs())
def test_w1_is_symmetric_zero_on_itself_and_equals_the_dense_lp(pair):
    P, Q = pair
    assert wasserstein1(P, P) == 0.0
    assert wasserstein1(Q, Q) == 0.0
    w = wasserstein1(P, Q)
    ref = oracles.w1_dense_lp(P, Q)
    assert abs(w - ref) <= 1e-12
    assert wasserstein1(Q, P) == w
    assert wasserstein1(P, Q) == w
    assert abs(wasserstein1(Q, P) - ref) <= 1e-12
    cost, plan = wasserstein1(P, Q, return_plan=True)
    assert cost == w
    assert plan.min() >= 0.0
    assert np.abs(plan.sum(axis=1) - P.mass).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - Q.mass).max() <= 1e-12
    assert wasserstein1(Q, P, return_plan=True)[1].tobytes() == plan.T.tobytes()


@st.composite
def default_grid_measure_pairs(draw):
    """Two measures of 1-150 nodes each on the default 50x50 grid."""
    return _draw_measure(draw, GridSpec(), 150), _draw_measure(draw, GridSpec(), 150)


@settings(max_examples=100, deadline=None)
@given(pair=default_grid_measure_pairs())
@example(pair=(
    ProfileDistribution(support=GridSpec().nodes()[:1], mass=np.ones(1), grid=GridSpec()),
    ProfileDistribution(support=GridSpec().nodes()[-1:], mass=np.ones(1), grid=GridSpec()),
))
@example(pair=(
    ProfileDistribution(support=GridSpec().nodes()[:150], mass=np.full(150, 1 / 150), grid=GridSpec()),
    ProfileDistribution(support=GridSpec().nodes()[-150:], mass=np.full(150, 1 / 150), grid=GridSpec()),
))
def test_presolve_free_lp_equals_the_presolved_dense_lp(pair):
    P, Q = pair
    cost, plan = wasserstein1(P, Q, return_plan=True)
    assert abs(cost - oracles.w1_dense_lp(P, Q)) <= 1e-12
    assert plan.min() >= 0.0
    assert np.abs(plan.sum(axis=1) - P.mass).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - Q.mass).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    p=st.lists(st.integers(1, 1000), min_size=1, max_size=40),
    q=st.lists(st.integers(1, 1000), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=[1], q=[1], seed=0)
@example(p=[1] * 40, q=[1] * 40, seed=0)
def test_transport_lp_equalities_equal_the_block_built_reference(p, q, seed):
    p, q = np.array(p, float) / sum(p), np.array(q, float) / sum(q)
    M = np.random.default_rng(seed).random((p.size, q.size))
    seen = []

    def spy(c, **kwargs):
        seen.append(kwargs)
        return linprog(c, **kwargs)

    with mock.patch.object(transport, "linprog", spy):
        plan, cost = transport._solve_transport_lp(p, q, M)
    (kwargs,) = seen
    # at or below the column budget the LP holds every flow: today's one-shot solve, to the byte
    ref_plan, ref_cost = oracles.transport_lp_full(p, q, M)
    assert plan.tobytes() == ref_plan.tobytes()
    assert cost == ref_cost
    got = csc_array(kwargs["A_eq"]).sorted_indices()
    ref = csc_array(oracles.transport_lp_equalities(p.size, q.size)).sorted_indices()
    assert got.shape == ref.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(ref, part))
    assert kwargs["b_eq"].tobytes() == np.concatenate([p, q[:-1]]).tobytes()


@st.composite
def priced_lp_cases(draw):
    """A column budget of 1-64 and two measures of 1-40 nodes on the normalised r axis or a raw one of 1 to 1e4."""
    r_max = draw(st.none() | st.floats(1.0, 1e4))
    grid = GridSpec(nr=draw(st.integers(2, 10)), nrho=draw(st.integers(2, 10)), r_max=r_max)
    return draw(st.integers(1, 64)), _draw_measure(draw, grid, 40), _draw_measure(draw, grid, 40)


def _measure(grid, idx, weights):
    weights = np.asarray(weights, float)
    return ProfileDistribution(support=grid.nodes()[idx], mass=weights / weights.sum(), grid=grid)


_RAW = GridSpec(nr=10, nrho=4, r_max=1e4)


@settings(max_examples=150, deadline=None)
@given(case=priced_lp_cases())
@example(case=(3, _measure(_RAW, [5], [1]), _measure(_RAW, np.arange(0, 40, 3), np.arange(1, 15))))
@example(case=(3, _measure(_RAW, np.arange(1, 40, 2), np.arange(20, 0, -1)), _measure(_RAW, [38], [1])))
@example(case=(1, _measure(_RAW, np.arange(0, 40, 2), [1] * 20), _measure(_RAW, np.arange(1, 40, 2), [1] * 20)))
def test_priced_lp_equals_the_dense_lp_and_network_simplex(case):
    """Above a column budget of 1-64 the LP takes several pricing rounds and still finds W1."""
    budget, P, Q = case
    assume(len(P.mass) * len(Q.mass) > budget)
    # at HiGHS's default dual tolerance (1e-7) the full, the dense and the priced LP were each seen 1.2e-9 above the
    # network simplex on raw r axes of a few hundred; at 1e-9 the error stays within 1e-12 of the axis's end
    tol = 1e-12 * (P.grid.r_max or 1.0)
    with mock.patch.object(transport, "_COLUMN_BUDGET", budget):
        cost = wasserstein1(P, Q)
        assert wasserstein1(Q, P) == cost
        plan, _ = transport._solve_transport_lp(P.mass, Q.mass, cdist(P.support, Q.support))
    assert abs(cost - oracles.w1_dense_lp(P, Q)) <= tol
    assert abs(cost - oracles.w1_network_simplex(P, Q)) <= tol
    assert plan.min() >= 0.0
    assert np.abs(plan.sum(axis=1) - P.mass).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - Q.mass).max() <= 1e-12

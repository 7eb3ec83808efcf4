"""Property tests: graph builders, matrix finalisation, the triple search, rho and
profile distributions against loop references, and W1 against the dense LP."""

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import oracles
from curvprof import (
    CurvatureProfile,
    Graph,
    GridSpec,
    ProfileDistribution,
    build_profile,
    shortest_path_matrix,
    to_distribution,
    transport,
    wasserstein1,
)
from curvprof.graphs import _graph_from_neighbor_selection
from curvprof.metric import _finalize_distance_matrix
from curvprof.profile import (
    _RHO_RANGE_SLACK,
    DEFAULT_SIDE_BINS,
    ProfileRecord,
    _check_rho_range,
    _side_keys,
    find_equilateral_triples,
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
    g = _graph_from_neighbor_selection(idx, dist, k_per_point, params=None)
    expected = oracles.neighbor_selection_loop(idx, dist, k_per_point)
    assert (g.i.tolist(), g.j.tolist(), g.w.tolist()) == (
        [e[0] for e in expected],
        [e[1] for e in expected],
        [e[2] for e in expected],
    )


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
        if np.array_equal(A, A.T):
            label, window = _reference_scale(k, h)
            assert got == oracles.equilateral_triples_scan(D, label, m, [seed, k], window, allowed)
        else:
            # an ulp-asymmetric weighted side graph: the row-built pick still closes
            assert all(_closes(A, t) for t in got)


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
    assert (got.sentinel, got.diameter, got.integer_valued) == (
        expected.sentinel,
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
    kept = [(t, r) for t, r in zip(triples, halves) if r >= np.finfo(float).tiny]
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
    assert D.sentinel is None
    for rec in build_profile(D, m=m, seed=seed).records:
        assert all(1.0 <= x <= 2.0 for x in rec.rho_values)


def test_check_rho_range_clamps_dust_and_names_the_outlier():
    dust = np.array([1.0 - _RHO_RANGE_SLACK, 1.0, 1.5, 2.0, 2.0 + _RHO_RANGE_SLACK])
    assert _check_rho_range(dust).tolist() == [1.0, 1.0, 1.5, 2.0, 2.0]
    for bad, side in ((1.0 - 3 * _RHO_RANGE_SLACK, "below 1"), (2.0 + 3 * _RHO_RANGE_SLACK, "above 2")):
        with pytest.raises(RuntimeError, match=re.escape(f"expansion factor {bad} {side}")):
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
    normalize_r=st.booleans(),
)
def test_to_distribution_matches_loop_reference(records, nr, nrho, normalize_r):
    profile = CurvatureProfile(
        records=tuple(ProfileRecord(r=r, rho_values=tuple(v), mean_rho=float(np.mean(v))) for r, v in records),
        meta={},
    )
    grid = GridSpec(nr=nr, nrho=nrho)
    obs, support, mass = oracles.to_distribution_loop(profile, grid, normalize_r)
    queried = []

    class RecordingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(x)
            return super().query(x, *args, **kwargs)

    # snapping hides most observation changes, so compare what is snapped too
    with mock.patch("curvprof.transport.cKDTree", RecordingTree):
        got = to_distribution(profile, grid, normalize_r=normalize_r)
    assert [q.tobytes() for q in queried] == [obs.tobytes()]
    assert got.support.tobytes() == support.tobytes()
    assert got.mass.tobytes() == mass.tobytes()
    assert got.meta["total_triangles"] == sum(len(v) for _, v in records)


@st.composite
def grid_measure_pairs(draw):
    """Two measures on one small grid, with masses from positive integer weights."""
    grid = GridSpec(nr=draw(st.integers(1, 8)), nrho=draw(st.integers(1, 8)))
    nodes = grid.nodes()

    def measure():
        idx = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=12, unique=True))
        weights = np.array(draw(st.lists(st.integers(1, 1000), min_size=len(idx), max_size=len(idx))), float)
        return ProfileDistribution(support=nodes[sorted(idx)], mass=weights / weights.sum(), grid=grid)

    P = measure()
    return P, P if draw(st.booleans()) else measure()


@settings(max_examples=300, deadline=None)
@given(pair=grid_measure_pairs())
def test_w1_is_symmetric_zero_on_itself_and_equals_the_dense_lp(pair):
    P, Q = pair
    assert wasserstein1(P, P) == 0.0
    assert wasserstein1(Q, Q) == 0.0
    transport._transport.cache_clear()
    w = wasserstein1(P, Q)
    ref = oracles.w1_dense_lp(P, Q)
    assert abs(w - ref) <= 1e-12
    transport._transport.cache_clear()
    assert wasserstein1(Q, P) == w
    assert wasserstein1(P, Q) == w
    assert abs(wasserstein1(Q, P) - ref) <= 1e-12
    solved = transport._dist_key(P) != transport._dist_key(Q)
    assert transport._transport.cache_info()[:2] == ((2, 1) if solved else (0, 0))
    cost, flows = wasserstein1(P, Q, return_plan=True)
    assert cost == w
    row = np.zeros(len(P.mass))
    col = np.zeros(len(Q.mass))
    for i, j, amount in flows:
        assert amount > 0
        row[i] += amount
        col[j] += amount
    assert np.abs(row - P.mass).max() <= 1e-10
    assert np.abs(col - Q.mass).max() <= 1e-10

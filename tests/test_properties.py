"""Property tests: array-native graph builders and the triple search against loop references."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from curvprof import Graph, shortest_path_matrix
from curvprof.graphs import _graph_from_neighbor_selection
from curvprof.profile import DEFAULT_SIDE_BINS, _scales, _side_mask, find_equilateral_triples

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
    floats put many triangles in one side bin); cutting every edge across a
    random split point makes some of them disconnected.
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


@settings(max_examples=500, deadline=None)
@given(
    D=small_metrics(),
    m=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
    allowed=st.one_of(st.none(), st.lists(st.integers(0, 13), unique=True)),
)
def test_triple_search_matches_pair_scan_reference(D, m, seed, allowed):
    if allowed is not None:
        allowed = np.array(sorted(v for v in allowed if v < D.n), dtype=np.int64)
    h = None if D.integer_valued else D.diameter / DEFAULT_SIDE_BINS
    for key, label, window in _scales(D, h):
        args = (D, label, m, [seed, key], window, allowed)
        got = find_equilateral_triples(*args)
        A = _side_mask(D, label, window)
        if allowed is not None:
            keep = np.zeros(D.n, dtype=bool)
            keep[allowed] = True
            A &= keep[:, None] & keep[None, :]
        if np.array_equal(A, A.T):
            assert got == oracles.equilateral_triples_scan(*args)
        else:
            # an ulp-asymmetric weighted mask: the row-built pick still closes
            assert all(_closes(A, (t.v1, t.v2, t.v3)) for t in got)

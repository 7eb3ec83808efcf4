"""Property tests: the array-native graph builders against loop references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from curvprof import Graph
from curvprof.graphs import _graph_from_neighbor_selection

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

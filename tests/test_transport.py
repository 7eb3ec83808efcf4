import math

import numpy as np
import pytest

import oracles
from curvprof import (
    CurvatureProfile,
    EmptyResultError,
    Graph,
    GridSpec,
    InputError,
    ProfileDistribution,
    build_profile,
    estimate_dimension,
    shortest_path_matrix,
    to_distribution,
    transport,
    wasserstein1,
)
from curvprof.profile import ProfileRecord


def make_profile(records, meta=None):
    return CurvatureProfile(
        records=tuple(
            ProfileRecord(r=r, rho_values=tuple(v), mean_rho=float(np.mean(v)))
            for r, v in records
        ),
        meta=meta or {},
    )


def random_distribution(rng, grid, max_support=20):
    nodes = grid.nodes()
    k = int(rng.integers(2, max_support + 1))
    idx = rng.choice(len(nodes), size=k, replace=False)
    mass = rng.random(k)
    mass /= mass.sum()
    return ProfileDistribution(support=nodes[np.sort(idx)], mass=mass, grid=grid)


class TestToDistribution:
    def test_single_observation_lands_on_corner(self):
        p = make_profile([(2.0, [1.0])])
        dist = to_distribution(p)
        assert dist.support.shape == (1, 2)
        assert dist.support[0, 0] == pytest.approx(1.0)  # r normalized by own max
        assert dist.support[0, 1] == pytest.approx(1.0)
        assert dist.mass[0] == 1.0

    def test_identical_observations_merge(self):
        p = make_profile([(2.0, [1.5, 1.5])])
        dist = to_distribution(p)
        assert dist.support.shape == (1, 2)
        assert dist.mass[0] == 1.0

    def test_on_grid_observations_are_identity(self):
        grid = GridSpec(nr=11, nrho=11)
        # r_norm values 0.5 and 1.0 and rho values sit exactly on grid nodes
        p = make_profile([(1.0, [1.2, 1.2, 1.6]), (2.0, [1.1])])
        dist = to_distribution(p, grid)
        sup = {(round(a, 6), round(b, 6)): m for (a, b), m in zip(dist.support, dist.mass)}
        assert sup[(0.5, 1.2)] == pytest.approx(0.5)
        assert sup[(0.5, 1.6)] == pytest.approx(0.25)
        assert sup[(1.0, 1.1)] == pytest.approx(0.25)

    def test_empty_profile_rejected(self):
        with pytest.raises(EmptyResultError):
            to_distribution(make_profile([]))

    def test_records_without_rho_values_rejected(self):
        # a stored profile may hold records with count 0
        p = CurvatureProfile(records=(ProfileRecord(r=1.0, rho_values=(), mean_rho=1.0),), meta={})
        with pytest.raises(EmptyResultError):
            to_distribution(p)

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(0)
        edges = oracles.random_connected_er(rng, 30, 0.15)
        D = shortest_path_matrix(Graph.from_edges(30, edges))
        p = build_profile(D, m=1.0, seed=0)
        dist = to_distribution(p)
        assert abs(dist.mass.sum() - 1.0) <= 1e-12
        assert len({tuple(x) for x in dist.support}) == len(dist.support)


class TestWasserstein:
    def test_identity(self):
        grid = GridSpec()
        rng = np.random.default_rng(1)
        P = random_distribution(rng, grid)
        assert wasserstein1(P, P) == 0.0

    def test_two_point_transport(self):
        grid = GridSpec()
        P = ProfileDistribution(support=np.array([[0.0, 1.0]]), mass=np.array([1.0]), grid=grid)
        Q = ProfileDistribution(support=np.array([[0.0, 2.0]]), mass=np.array([1.0]), grid=grid)
        assert wasserstein1(P, Q) == pytest.approx(1.0, abs=1e-12)

    def test_integer_coordinates_are_read_as_values(self):
        grid = GridSpec()
        P = ProfileDistribution(support=np.array([[0, 1]]), mass=np.array([1]), grid=grid)
        Q = ProfileDistribution(support=np.array([[0, 2]]), mass=np.array([1]), grid=grid)
        assert wasserstein1(P, Q) == pytest.approx(1.0, abs=1e-12)

    def test_half_mass_split(self):
        grid = GridSpec()
        P = ProfileDistribution(support=np.array([[0.0, 1.0]]), mass=np.array([1.0]), grid=grid)
        Q = ProfileDistribution(
            support=np.array([[0.0, 1.0], [0.0, 2.0]]), mass=np.array([0.5, 0.5]), grid=grid
        )
        assert wasserstein1(P, Q) == pytest.approx(0.5, abs=1e-12)

    def test_mismatched_grids_rejected(self):
        P = ProfileDistribution(support=np.array([[0.0, 1.0]]), mass=np.array([1.0]), grid=GridSpec())
        Q = ProfileDistribution(
            support=np.array([[0.0, 1.0]]), mass=np.array([1.0]), grid=GridSpec(nr=10)
        )
        with pytest.raises(InputError):
            wasserstein1(P, Q)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (-1, 50)])
    def test_grid_without_nodes_rejected(self, shape):
        with pytest.raises(InputError, match="at least one node"):
            GridSpec(nr=shape[0], nrho=shape[1])

    def test_against_dense_lp_and_network_simplex_oracles(self):
        grid = GridSpec()
        rng = np.random.default_rng(2)
        for _ in range(25):
            P = random_distribution(rng, grid)
            Q = random_distribution(rng, grid)
            w = wasserstein1(P, Q)
            assert abs(w - oracles.w1_dense_lp(P, Q)) <= 1e-8
            assert abs(w - oracles.w1_network_simplex(P, Q)) <= 1e-8

    def test_symmetry_exact(self):
        grid = GridSpec()
        rng = np.random.default_rng(3)
        for _ in range(10):
            P = random_distribution(rng, grid)
            Q = random_distribution(rng, grid)
            assert wasserstein1(P, Q) == wasserstein1(Q, P)

    def test_triangle_inequality_spot_check(self):
        grid = GridSpec()
        rng = np.random.default_rng(4)
        for _ in range(10):
            P = random_distribution(rng, grid)
            Q = random_distribution(rng, grid)
            R = random_distribution(rng, grid)
            assert wasserstein1(P, R) <= wasserstein1(P, Q) + wasserstein1(Q, R) + 1e-8

    def test_plan_marginals_match(self):
        grid = GridSpec()
        rng = np.random.default_rng(5)
        P = random_distribution(rng, grid)
        Q = random_distribution(rng, grid)
        cost, flows = wasserstein1(P, Q, return_plan=True)
        row = np.zeros(len(P.mass))
        col = np.zeros(len(Q.mass))
        for i, j, amt in flows:
            assert amt >= 0
            row[i] += amt
            col[j] += amt
        assert np.abs(row - P.mass).max() <= 1e-10
        assert np.abs(col - Q.mass).max() <= 1e-10
        assert cost == wasserstein1(P, Q)
        moved = sum(amt * np.linalg.norm(P.support[i] - Q.support[j]) for i, j, amt in flows)
        assert cost == pytest.approx(moved, abs=1e-12)

    def test_cached_solve_matches_cold_solve_in_either_order(self):
        grid = GridSpec()
        rng = np.random.default_rng(7)
        P = random_distribution(rng, grid)
        Q = random_distribution(rng, grid)
        transport._transport.cache_clear()
        cold_qp = wasserstein1(Q, P, return_plan=True)
        transport._transport.cache_clear()
        cold_pq = wasserstein1(P, Q, return_plan=True)
        for a, b, cold in ((P, Q, cold_pq), (Q, P, cold_qp)) * 2:
            assert wasserstein1(a, b, return_plan=True) == cold
            assert wasserstein1(a, b) == cold[0]
        info = transport._transport.cache_info()
        assert (info.misses, info.hits) == (1, 8)
        assert cold_qp[1] == tuple((j, i, amount) for i, j, amount in cold_pq[1])

    def test_grid_refinement_stability(self):
        rng = np.random.default_rng(6)
        edges = oracles.random_connected_er(rng, 40, 0.12)
        D = shortest_path_matrix(Graph.from_edges(40, edges))
        p1 = build_profile(D, m=1.0, seed=1)
        edges2 = oracles.random_connected_er(rng, 40, 0.2)
        p2 = build_profile(shortest_path_matrix(Graph.from_edges(40, edges2)), m=1.0, seed=2)
        coarse = GridSpec(nr=25, nrho=25)
        fine = GridSpec(nr=49, nrho=49)  # halves both spacings
        w_coarse = wasserstein1(to_distribution(p1, coarse), to_distribution(p2, coarse))
        w_fine = wasserstein1(to_distribution(p1, fine), to_distribution(p2, fine))
        dx = 1.0 / (coarse.nr - 1)
        drho = 1.0 / (coarse.nrho - 1)
        assert abs(w_coarse - w_fine) <= math.hypot(dx, drho)


class TestEstimateDimension:
    def test_exact_match_wins(self):
        D = shortest_path_matrix(Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]))
        p = build_profile(D, m=1.0, seed=0)
        other = make_profile([(1.0, [1.0, 1.0]), (2.0, [1.5])])
        d_best, curve = estimate_dimension(p, {2: other, 3: p, 4: other})
        assert d_best == 3
        assert dict(curve)[3] == 0.0

    def test_monotone_curve_picks_last(self):
        base = make_profile([(1.0, [1.0]), (2.0, [1.3, 1.7]), (3.0, [2.0])])
        cands = {
            1: make_profile([(1.0, [2.0])]),
            2: make_profile([(1.0, [1.8, 2.0])]),
            3: make_profile([(1.0, [1.0]), (2.0, [1.3, 1.7]), (3.0, [2.0])]),
        }
        d_best, curve = estimate_dimension(base, cands)
        ws = [w for _, w in curve]
        assert ws[0] > ws[1] > ws[2]
        assert d_best == 3

    def test_single_candidate_trivial(self):
        p = make_profile([(1.0, [1.5])])
        d_best, curve = estimate_dimension(p, {4: p})
        assert d_best == 4 and curve == [(4, 0.0)]

    def test_empty_profile_error_names_dimension(self):
        p = make_profile([(1.0, [1.5])])
        with pytest.raises(EmptyResultError, match="dimension 2"):
            estimate_dimension(p, {2: make_profile([]), 3: p})

    def test_on_empty_inf_mode(self):
        p = make_profile([(1.0, [1.5])])
        d_best, curve = estimate_dimension(p, {2: make_profile([]), 3: p}, on_empty="inf")
        assert d_best == 3
        assert curve[0] == (2, float("inf"))

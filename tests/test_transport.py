import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import oracles
from curvprof import (
    EmptyResultError,
    Graph,
    GridSpec,
    InputError,
    PointCloud,
    ProfileDistribution,
    build_profile,
    estimate_dimension,
    shortest_path_matrix,
    to_distribution,
    transport,
    wasserstein1,
)


def make_profile(records, meta=None):
    return {
        "meta": meta or {},
        "records": [
            {"r": r, "count": len(v), "mean_rho": float(np.mean(v)), "rho_values": list(v)}
            for r, v in records
        ],
    }


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

    def test_integer_r_reads_as_float(self):
        records = [(1, [1.2, 1.5]), (3, [1.1]), (4, [1.9, 1.0])]
        as_int = to_distribution(make_profile(records))
        as_float = to_distribution(make_profile([(float(r), v) for r, v in records]))
        assert np.array_equal(as_int.support, as_float.support)
        assert np.array_equal(as_int.mass, as_float.mass)

    def test_empty_profile_rejected(self):
        with pytest.raises(EmptyResultError):
            to_distribution(make_profile([]))

    def test_records_without_rho_values_rejected(self):
        # a stored profile may hold records with count 0
        p = {"meta": {}, "records": [{"r": 1.0, "count": 0, "mean_rho": 1.0, "rho_values": []}]}
        with pytest.raises(EmptyResultError):
            to_distribution(p)

    def test_raw_r_beyond_the_grid_rejected(self):
        # snapped onto a [0, 1] axis, r = 7 and r = 3 would both land on r = 1 and the two profiles would read W1 0
        grid = GridSpec(r_max=1.0)
        for top in (7.0, 3.0):
            with pytest.raises(InputError, match=f"r = {top!r}, beyond the grid's r_max = 1.0"):
                to_distribution(make_profile([(1.0, [1.5]), (top, [1.5])]), grid)

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(0)
        edges = oracles.random_connected_er(rng, 30, 0.15)
        D = shortest_path_matrix(Graph.from_edges(30, edges))
        p = build_profile(D, m=1.0, seed=0)
        dist = to_distribution(p)
        assert abs(dist.mass.sum() - 1.0) <= 1e-12
        assert len({tuple(x) for x in dist.support}) == len(dist.support)


@pytest.mark.parametrize(
    "support, mass",
    [
        (np.array([0.0, 0.5]), np.array([0.5, 0.5])),
        (np.array([[0.0, 1.0, 0.0], [0.5, 1.0, 0.0]]), np.array([0.5, 0.5])),
        (np.array([[0.0, 1.0], [0.5, 1.0]]), np.array([0.5, 0.25, 0.25])),
    ],
    ids=["support-k", "support-k-by-3", "mass-length-differs"],
)
def test_distribution_of_other_shapes_refused(support, mass):
    with pytest.raises(InputError, match="k x 2"):
        ProfileDistribution(support=support, mass=mass, grid=GridSpec())


@pytest.mark.parametrize(
    "build, names",
    [
        (lambda a: PointCloud(coords=a["coords"]), ["coords"]),
        (lambda a: Graph(n=3, i=a["i"], j=a["j"], w=a["w"]), ["i", "j", "w"]),
        (lambda a: ProfileDistribution(support=a["support"], mass=a["mass"], grid=GridSpec()),
         ["support", "mass"]),
    ],
    ids=["PointCloud", "Graph", "ProfileDistribution"],
)
def test_value_types_store_read_only_copies(build, names):
    arrays = {
        "coords": np.array([[0.0, 0.0], [1.0, 0.0]]),
        "i": np.array([0, 1]), "j": np.array([1, 2]), "w": np.array([1.0, 2.0]),
        "support": np.array([[0.0, 1.0], [0.5, 2.0]]), "mass": np.array([0.5, 0.5]),
    }
    value = build(arrays)
    for name in names:
        assert arrays[name].flags.writeable
        stored = getattr(value, name)
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, arrays[name])
        np.testing.assert_array_equal(stored, arrays[name])


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

    @pytest.mark.parametrize("r_max", [0.0, -1.0, float("nan"), float("inf")])
    def test_grid_r_max_must_be_finite_and_positive(self, r_max):
        with pytest.raises(InputError, match="r_max must be finite and > 0"):
            GridSpec(r_max=r_max)

    def test_normalised_and_raw_distributions_rejected(self):
        p = make_profile([(0.5, [1.5]), (1.0, [1.2])])
        P, Q = to_distribution(p), to_distribution(p, GridSpec(r_max=1.0))
        np.testing.assert_array_equal(P.support, Q.support)
        with pytest.raises(InputError, match="different grids"):
            wasserstein1(P, Q)

    def test_against_dense_lp_and_network_simplex_oracles(self):
        grid = GridSpec()
        rng = np.random.default_rng(2)
        for _ in range(25):
            P = random_distribution(rng, grid)
            Q = random_distribution(rng, grid)
            w = wasserstein1(P, Q)
            assert abs(w - oracles.w1_dense_lp(P, Q)) <= 1e-8
            assert abs(w - oracles.w1_network_simplex(P, Q)) <= 1e-8

    def test_seeded_pair_has_no_negative_flow(self):
        # at HiGHS's default feasibility tolerance this pair's plan held a flow of -9.2e-8,
        # missed its marginals by as much, and its cost was 5.7e-10 below the optimum
        rng, nodes = np.random.default_rng(209), GridSpec().nodes()

        def measure():
            k, head = int(rng.integers(60, 121)), int(rng.integers(0, 25))
            rest = rng.choice(np.arange(head, len(nodes)), size=k - head, replace=False)
            idx = np.sort(np.concatenate([np.arange(head), rest]))
            w = rng.integers(1, 1001, size=k)
            ext = rng.random(k) < 0.15
            w[ext] = rng.choice([1, 2, 1000], size=ext.sum())
            return ProfileDistribution(nodes[idx], w / w.sum(), GridSpec())

        P, Q = measure(), measure()
        assert (len(P.mass), len(Q.mass)) == (102, 96)
        assert transport._solve_transport_lp(P.mass, Q.mass, cdist(P.support, Q.support))[0].min() >= 0.0
        cost, plan = wasserstein1(P, Q, return_plan=True)
        assert np.abs(plan.sum(axis=1) - P.mass).max() <= 1e-12
        assert np.abs(plan.sum(axis=0) - Q.mass).max() <= 1e-12
        assert abs(cost - oracles.w1_network_simplex(P, Q)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 914])
    def test_raw_r_axis_pair_is_exact(self, seed):
        # at HiGHS's default dual tolerance (1e-7) these pairs read 9.7e-10 (seed 0) and 1.6e-9 (seed 914) above W1
        rng, grid = np.random.default_rng(seed), GridSpec(r_max=300.0)
        nodes = grid.nodes()

        def measure(k):
            idx, w = np.sort(rng.choice(len(nodes), k, replace=False)), rng.random(k)
            return ProfileDistribution(nodes[idx], w / w.sum(), grid)

        P, Q = (measure(k) for k in [rng.integers(5, 30) for _ in range(2)])
        assert abs(wasserstein1(P, Q) - oracles.w1_network_simplex(P, Q)) <= 1e-12 * grid.r_max

    def test_large_pair_prices_under_a_quarter_of_its_flows(self, monkeypatch):
        # HiGHS's memory grows with the LP's columns and tracemalloc cannot see it, so count the columns
        rng, nodes = np.random.default_rng(300), GridSpec().nodes()

        def measure():
            w = rng.integers(1, 1001, size=300)
            return ProfileDistribution(nodes[np.sort(rng.choice(len(nodes), 300, replace=False))], w / w.sum(),
                                       GridSpec())

        P, Q = measure(), measure()
        M = cdist(P.support, Q.support)
        columns = []
        real_linprog = transport.linprog
        monkeypatch.setattr(transport, "linprog", lambda c, **kw: columns.append(c.size) or real_linprog(c, **kw))
        plan, cost = transport._solve_transport_lp(P.mass, Q.mass, M)
        assert len(columns) > 1
        assert max(columns) < 300 * 300 / 4
        assert plan.shape == (300, 300)
        # the dense oracle's equality matrix would take 432 MB here
        assert abs(cost - oracles.transport_lp_full(P.mass, Q.mass, M)[1]) <= 1e-12

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
        cost, plan = wasserstein1(P, Q, return_plan=True)
        assert plan.shape == (len(P.mass), len(Q.mass))
        assert plan.min() >= 0
        assert np.abs(plan.sum(axis=1) - P.mass).max() <= 1e-12
        assert np.abs(plan.sum(axis=0) - Q.mass).max() <= 1e-12
        assert cost == wasserstein1(P, Q)
        assert cost == pytest.approx(float((plan * cdist(P.support, Q.support)).sum()), abs=1e-12)

    def test_plan_of_identical_inputs_keeps_each_mass_in_place(self):
        P = random_distribution(np.random.default_rng(8), GridSpec())
        cost, plan = wasserstein1(P, P, return_plan=True)
        assert cost == 0.0
        assert plan.tobytes() == np.diag(P.mass).tobytes()

    def test_repeated_solves_match_in_either_order(self):
        grid = GridSpec()
        rng = np.random.default_rng(7)
        P = random_distribution(rng, grid)
        Q = random_distribution(rng, grid)
        first_qp = wasserstein1(Q, P, return_plan=True)
        first_pq = wasserstein1(P, Q, return_plan=True)
        for a, b, first in ((P, Q, first_pq), (Q, P, first_qp)) * 2:
            cost, plan = wasserstein1(a, b, return_plan=True)
            assert cost == first[0]
            assert plan.tobytes() == first[1].tobytes()
            assert wasserstein1(a, b) == first[0]
        assert first_qp[1].T.tobytes() == first_pq[1].tobytes()

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

    def test_each_distinct_candidate_distribution_is_solved_once(self, monkeypatch):
        original = make_profile([(1.0, [1.0]), (2.0, [1.3, 1.7]), (3.0, [2.0])])
        a = make_profile([(1.0, [2.0])])
        # three profiles, none equal to another, that all snap to one distribution
        b = [make_profile([(1.0, [1.6, 2.0])]), make_profile([(1.0, [1.601, 2.0])]),
             make_profile([(2.0, [1.6, 2.0])])]
        embedded = {2: a, 3: b[0], 4: b[1], 5: b[2]}
        solves = []
        real_lp = transport._solve_transport_lp
        monkeypatch.setattr(transport, "_solve_transport_lp", lambda *args: solves.append(1) or real_lp(*args))
        _, curve = estimate_dimension(original, embedded)
        assert len(solves) == 2
        P0 = to_distribution(original)
        assert curve == [(d, wasserstein1(P0, to_distribution(embedded[d]))) for d in (2, 3, 4, 5)]

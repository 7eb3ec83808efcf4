"""Acceptance battery: one test per criterion, each printing a PASS line.

Criteria that produce profiles register every computed rho in a module-level
registry; the range criterion (number 5) is defined last so it sees all of
them (pytest runs tests in definition order).
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import oracles
from curvprof import (
    Graph,
    GridSpec,
    PointCloud,
    ProfileDistribution,
    adaptive_graph,
    build_profile,
    circle_sample,
    classical_mds,
    distance_matrix_from_array,
    erdos_renyi,
    estimate_dimension,
    gaussian_isometric,
    knn_graph,
    plane_sample,
    rho_minmax,
    shortest_path_matrix,
    tree_graph,
    watts_strogatz,
)
from curvprof import cli

RHO_REGISTRY = []


def register(profile):
    for rec in profile["records"]:
        RHO_REGISTRY.extend(rec["rho_values"])
    return profile


@pytest.fixture
def reporter(capsys):
    """Per-criterion PASS line, emitted outside pytest's capture."""

    def _report(num, msg):
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:02d} PASS: {msg}", flush=True)

    return _report


@pytest.fixture(scope="module")
def tree_profile():
    t0 = time.time()
    D = shortest_path_matrix(tree_graph(2, 8))
    p = register(build_profile(D, m=1.0, seed=0, workers=2))
    return p, time.time() - t0


@pytest.fixture(scope="module")
def circle_profile():
    D = circle_sample(500, seed=42)
    return register(build_profile(D, m=1.0, seed=42, workers=2))


@pytest.fixture(scope="module")
def plane_profile():
    cloud = plane_sample(2000, seed=7)
    D = shortest_path_matrix(adaptive_graph(cloud, 15, 20))
    return register(build_profile(D, m=0.1, seed=7, workers=2))


def test_criterion_01_tree_reference(tree_profile, reporter):
    profile, elapsed = tree_profile
    assert elapsed < 10.0, f"tree profile took {elapsed:.1f}s"
    assert profile["records"]
    for rec in profile["records"]:
        assert rec["mean_rho"] == 1.0
        assert all(x == 1.0 for x in rec["rho_values"])
    reporter(1, f"binary tree depth 8: {len(profile['records'])} scales all at rho=1.0 in {elapsed:.1f}s")


def test_criterion_02_circle_reference(circle_profile, reporter):
    populated = [rec for rec in circle_profile["records"] if rec["count"] >= 5]
    assert populated, "no scale collected at least 5 triangles"
    for rec in populated:
        assert rec["mean_rho"] >= 1.9, f"scale r={rec['r']}: mean rho {rec['mean_rho']}"
    # three exactly equidistant points: the arc metric is the constant matrix
    side = 2 * math.pi / 3
    D3 = distance_matrix_from_array(side * (1 - np.eye(3)))
    rho = rho_minmax(D3, [(0, 1, 2)])[0].tolist()
    RHO_REGISTRY.extend(rho)
    assert rho == [2.0]
    reporter(2, f"circle 500: {len(populated)} populated scale(s), min mean rho "
              f"{min(r['mean_rho'] for r in populated):.4f}; equidistant triple rho == 2.0 exactly")


def test_criterion_03_plane_reference(plane_profile, reporter):
    max_r = max(rec["r"] for rec in plane_profile["records"])
    mid = [rec for rec in plane_profile["records"] if 0.2 * max_r <= rec["r"] <= 0.6 * max_r]
    assert mid, "no mid-range scales"
    pooled = [x for rec in mid for x in rec["rho_values"]]
    mean = float(np.mean(pooled))
    assert 1.05 <= mean <= 1.25, f"mid-scale mean rho {mean}"
    reporter(3, f"plane 2000 adaptive(15,20): mid-scale mean rho {mean:.4f} "
              f"(reference 2/sqrt(3) = {2 / math.sqrt(3):.4f})")


def test_criterion_04_ball_growth_oracle_equivalence(reporter):
    rng = np.random.default_rng(1234)
    graphs = 0
    triples = 0
    while graphs < 100:
        n = int(rng.integers(10, 61))
        p = max(2.0 / n, 1.2 * math.log(n) / n)
        edges = oracles.random_connected_er(rng, n, p)
        D = shortest_path_matrix(Graph.from_edges(n, edges))
        assert D.connected
        graphs += 1
        enumerated = oracles.enumerate_exact_equilateral(D)
        exact = rho_minmax(D, enumerated)[0].tolist()
        grown = [oracles.rho_ball_growth(D, *t, step=None)[0] for t in enumerated]
        assert grown == exact
        RHO_REGISTRY.extend(exact)
        triples += len(enumerated)
    assert triples > 1000, "battery too small to be meaningful"
    reporter(4, f"ball growth == min-max exactly on {triples} triples over {graphs} connected ER graphs")


def test_criterion_06_scale_invariance(reporter):
    # weighted geodesic metric of a kNN graph over a plane sample
    D = shortest_path_matrix(knn_graph(plane_sample(300, seed=6), 8))
    assert D.connected and not D.integer_valued
    S = D.scaled(7.3)
    p = register(build_profile(D, m=1.0, seed=3))
    ps = register(build_profile(S, m=1.0, seed=3))
    assert p["records"]
    assert len(p["records"]) == len(ps["records"])
    for a, b in zip(p["records"], ps["records"]):
        assert abs(b["r"] - 7.3 * a["r"]) <= 1e-12 * abs(7.3 * a["r"])
        assert a["count"] == b["count"]
        for x, y in zip(a["rho_values"], b["rho_values"]):
            assert abs(x - y) <= 1e-12
    reporter(6, f"scaling by 7.3: {sum(r['count'] for r in p['records'])} rho values unchanged to 1e-12, "
              "all r scaled")


def test_criterion_07_wasserstein_correctness(reporter):
    grid = GridSpec()
    nodes = grid.nodes()
    rng = np.random.default_rng(77)
    from curvprof import wasserstein1

    worst = 0.0
    for _ in range(50):
        dists = []
        for _ in range(2):
            k = int(rng.integers(2, 21))
            idx = np.sort(rng.choice(len(nodes), size=k, replace=False))
            mass = rng.random(k)
            mass /= mass.sum()
            dists.append(ProfileDistribution(support=nodes[idx], mass=mass, grid=grid))
        P, Q = dists
        w = wasserstein1(P, Q)
        worst = max(worst, abs(w - oracles.w1_dense_lp(P, Q)))
        assert worst <= 1e-8
        assert wasserstein1(P, Q) == wasserstein1(Q, P)
        assert wasserstein1(P, P) == 0.0
    reporter(7, f"exact W1 vs dense LP oracle: max |diff| = {worst:.2e} over 50 pairs; "
              "W1(P,P)=0 and symmetry exact")


def test_criterion_08_isometric_embedding(reporter):
    worst = 0.0
    for n in (1, 2, 3, 4):
        low, high = gaussian_isometric(500, n, seed=n)
        assert high.dim == n + 50
        err = float(np.abs(pdist(low.coords) - pdist(high.coords)).max())
        worst = max(worst, err)
        assert err <= 1e-10, f"n={n}: distance error {err}"
    reporter(8, f"gaussian isometric lift preserves all pairwise distances (max err {worst:.2e})")


def _dimension_run(n, seed):
    X, Y = gaussian_isometric(800, n, seed=seed)
    D0 = shortest_path_matrix(adaptive_graph(Y, 10, 15))
    original = register(build_profile(D0, m=0.1, seed=seed, workers=2))
    ambient = distance_matrix_from_array(squareform(pdist(Y.coords)))
    profiles = {}
    for d in range(1, 9):
        coords, _ = classical_mds(ambient, d)
        Dd = shortest_path_matrix(knn_graph(PointCloud(coords=coords), 10))
        prof = build_profile(Dd, m=0.1, seed=seed, workers=2)
        if prof["records"]:
            register(prof)
        profiles[d] = prof
    d_best, curve = estimate_dimension(original, profiles, on_empty="inf")
    finite = [w for _, w in curve if math.isfinite(w)]
    elbow = min(d for d, w in curve if w <= 1.1 * min(finite))
    return d_best, elbow, curve


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_09_dimension_recovery(n, reporter):
    t0 = time.time()
    hits = 0
    outcomes = []
    for seed in range(5):
        d_best, elbow, _ = _dimension_run(n, seed)
        ok = d_best == n or elbow == n
        hits += ok
        outcomes.append((seed, d_best, elbow))
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"n={n} took {elapsed:.0f}s"
    assert hits >= 4, f"n={n}: only {hits}/5 seeds recovered (outcomes {outcomes})"
    reporter(9, f"intrinsic dimension n={n} recovered in {hits}/5 seeds "
              f"({elapsed:.0f}s; argmin/elbow per seed: {outcomes})")


def test_criterion_10_network_profiles(reporter):
    t0 = time.time()
    for name, make in (
        ("ER", lambda s: erdos_renyi(1000, 4.0, seed=s)),
        ("WS", lambda s: watts_strogatz(1000, 4, 0.1, seed=s)),
    ):
        votes = 0
        for seed in range(5):
            D = shortest_path_matrix(make(seed))
            p = register(build_profile(D, m=0.1, seed=seed, workers=2))
            assert len(p["records"]) >= 3, f"{name} seed {seed}: only {len(p['records'])} scales"
            if name == "WS":
                votes += p["records"][-1]["mean_rho"] <= p["records"][0]["mean_rho"]
        if name == "WS":
            assert votes >= 3, f"WS large-scale flattening seen in only {votes}/5 seeds"
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"network battery took {elapsed:.0f}s"
    reporter(10, f"ER/WS 1000-node profiles: >=3 scales each, WS tree-like trend by majority "
               f"({elapsed:.0f}s total)")


def test_criterion_11_determinism(tmp_path, reporter):
    edge_file = tmp_path / "ws.edges"
    assert cli.main(
        ["generate", "--kind", "ws", "--n", "200", "--k", "4", "--beta", "0.1",
         "--seed", "11", "--out", str(edge_file)]
    ) == 0
    out = tmp_path / "prof"
    blobs = []
    for workers in ("1", "1", "8"):
        rc = cli.main(
            ["profile", str(edge_file), "-m", "0.2", "--seed", "11",
             "--workers", workers, "--out", str(out)]
        )
        assert rc == 0
        blobs.append(
            ((tmp_path / "prof.long.csv").read_bytes(),
             (tmp_path / "prof.summary.csv").read_bytes(),
             (tmp_path / "prof.profile.json").read_bytes())
        )
    assert blobs[0] == blobs[1] == blobs[2]
    reporter(11, "identical config reproduces byte-identical outputs across reruns and workers 1 vs 8")


# defined last on purpose: every profile built above registered its rho values
def test_criterion_05_rho_range(reporter):
    assert len(RHO_REGISTRY) > 10000, "registry unexpectedly small"
    values = np.asarray(RHO_REGISTRY)
    assert values.min() >= 1.0
    assert values.max() <= 2.0
    reporter(5, f"all {len(values)} expansion factors across the acceptance runs lie in "
              f"[{values.min():.6f}, {values.max():.6f}] within [1, 2]")

"""Checks of the benchmark's own output checks and tracing, on shrunken workloads.

    python3 -m pytest perfbench
"""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import passrun  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "network": {"batch": 2, "n": 150, "avg_degree": 4.0, "ws_k": 4, "ws_beta": 0.1, "m": 0.1},
    "cloud": {"batch": 1, "n": 200, "kmin": 8, "kmax": 12, "m": 0.1},
    "dimension": {
        "batch": 1, "n": 60, "dim": 3, "extra_dims": 10, "dims": "1-8", "kmin": 6, "kmax": 9, "m": 0.1,
    },
}
SEED = 7


def _run(workdir, name, traced, seed=SEED):
    workdir.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return passrun.run_pass(name, SMALL[name], seed, traced)
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module", params=sorted(SMALL))
def passes(request, tmp_path_factory):
    """An untraced and a traced pass of one shrunken workload, plus an
    independent count of triple-search calls made during the traced one."""
    from curvprof import profile

    name = request.param
    base = tmp_path_factory.mktemp(name)
    plain = _run(base / "plain", name, traced=False)
    original = profile.find_equilateral_triples
    searches = []

    def counting(*args, **kwargs):
        searches.append(1)
        return original(*args, **kwargs)

    profile.find_equilateral_triples = counting
    try:
        traced = _run(base / "traced", name, traced=True)
    finally:
        profile.find_equilateral_triples = original
    return name, plain, traced, base / "traced", len(searches)


def test_passes_are_clean(passes):
    name, plain, traced, _, _ = passes
    for rep in (plain, traced):
        assert not rep["golden"]  # shrunken parameters: invariants only
        for call in rep["calls"]:
            assert call["exit"] == 0 and call["errors"] == [], call


def test_tracing_leaves_outputs_byte_identical(passes):
    _, plain, traced, _, _ = passes
    assert [c["digest"] for c in traced["calls"]] == [c["digest"] for c in plain["calls"]]


def test_scales_count_triple_search_calls(passes):
    _, _, traced, _, searches = passes
    assert traced["layers"]["profile.scales"] == searches > 0


def test_triangles_match_written_profiles(passes):
    name, _, traced, workdir, _ = passes
    layers = traced["layers"]
    written = [
        workloads.summarize("profile", workdir / files[0])
        for _, kind, files in workloads.pass_calls(name, SMALL[name], SEED)
        if kind == "profile"
    ]
    if not written:
        pytest.skip("workload writes no profile")
    assert layers["profile.triangles"] == sum(rec["count"] for recs in written for rec in recs)
    assert layers["profile.scales"] - layers["profile.empty_scales"] == sum(map(len, written))


def test_dimension_solves_one_w1_per_nonempty_dimension(passes):
    name, _, traced, _, _ = passes
    if name != "dimension":
        pytest.skip("only estimate-dim scores dimensions")
    layers = traced["layers"]
    # dims 1-8; the 1-D re-embedding is empty and scores inf without a solve
    assert layers["transport.w1_calls"] == 7
    assert layers["embed.mds_calls"] == 8


def test_layer_shares_add_up_to_pass_wall(passes):
    _, _, traced, _, _ = passes
    layers = traced["layers"]
    total = sum(layers[m] for m in spans.TIME_METRICS.values())
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9, abs=1e-9)


def test_tracer_restores_wrapped_functions():
    from curvprof import cli, transport

    before = (cli.build_profile, transport.wasserstein1)
    with spans.Tracer().install():
        assert cli.build_profile is not before[0]
    assert (cli.build_profile, transport.wasserstein1) == before


def test_wall_shares_split_overlapping_worker_spans():
    S = spans.Span
    root = S("pass", 0.0, 10.0, None, 1)
    build = S("profile.build", 1.0, 9.0, root, 1)
    first = S("profile.triples", 2.0, 6.0, build, 2)  # two worker threads overlap on [4, 6]
    second = S("profile.triples", 4.0, 8.0, build, 3)
    shares = spans.wall_shares([root, build, first, second], root)
    assert shares[root] == pytest.approx(2.0)
    assert shares[build] == pytest.approx(2.0)  # [1, 2] and [8, 9]
    assert shares[first] == pytest.approx(3.0)  # [2, 4] alone, half of [4, 6]
    assert shares[second] == pytest.approx(3.0)
    assert sum(shares.values()) == pytest.approx(10.0)


def test_checks_reject_altered_outputs():
    records = [{"r": 1.0, "count": 2, "mean_rho": 1.5, "rho_values": [1.25, 1.75]}]
    golden = workloads.golden_form("profile", records)
    assert workloads.check_golden("profile", records, golden) == []
    changed = [dict(records[0], rho_values=[1.25, 1.7500000000000002])]
    assert workloads.check_golden("profile", changed, golden)
    assert workloads.check_invariants("profile", [dict(records[0], count=3)])
    assert workloads.check_invariants("profile", [dict(records[0], rho_values=[0.5, 2.5])])
    assert workloads.check_golden("w1", 0.1 + 2e-12, 0.1)
    assert workloads.check_invariants("w1", float("nan"))
    curve = {"d_best": 3, "curve": [[1, float("inf")], [2, 0.08], [3, 0.03]]}
    assert workloads.check_invariants("dim", curve) == []
    assert workloads.check_golden("dim", dict(curve, d_best=2), curve)
    assert workloads.check_invariants("dim", dict(curve, curve=[[1, 0.1], [2, float("inf")]]))


def test_checked_in_workloads_have_goldens():
    for name, params in workloads.WORKLOADS.items():
        goldens = workloads.goldens_for(name, params, workloads.GOLDEN_SEED)
        assert len(goldens) == len(workloads.pass_calls(name, params, workloads.GOLDEN_SEED))
        assert workloads.goldens_for(name, params, workloads.GOLDEN_SEED + 1) is None


def test_golden_seed_without_goldens_fails_every_call(tmp_path):
    # the shrunken parameters have no goldens: at the golden seed that must
    # fail the check rather than fall back to invariants
    with pytest.raises(LookupError):
        workloads.goldens_for("dimension", SMALL["dimension"], workloads.GOLDEN_SEED)
    rep = _run(tmp_path / "pass", "dimension", traced=False, seed=workloads.GOLDEN_SEED)
    assert not rep["golden"]
    for call in rep["calls"]:
        assert call["exit"] == 0
        assert any("goldens.json" in e for e in call["errors"]), call


def test_benchmark_json_matches_reported_metrics(passes):
    _, plain, traced, _, _ = passes
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert all(name in plain for name in run.END_TO_END if name != "peak_rss_mb")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    # the run adds the untraced wall time and the overhead to each traced pass's metrics
    assert set(traced["layers"]) | {"trace.untraced_wall_s", "trace.overhead_s"} == set(spans.LAYER_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

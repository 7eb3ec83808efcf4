import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvprof
from curvprof import cli, transport
from curvprof.generate import plane_sample


def write_cycle(path, n=6):
    path.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))


def run_cli_process(cwd, *args, **kwargs):
    """``curvprof`` run as a fresh process on this checkout's package, so stderr shows what a user sees."""
    env = {**os.environ, "PYTHONPATH": str(Path(curvprof.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "curvprof.cli", *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120, **kwargs)


def write_tree(path, depth=4):
    from curvprof.generate import tree_graph

    g = tree_graph(2, depth)
    path.write_text("".join(f"{i} {j}\n" for i, j, _ in g.edges))


class TestProfileCommand:
    def test_cycle_profile(self, tmp_path, capsys):
        inp = tmp_path / "c6.edges"
        write_cycle(inp)
        out = tmp_path / "c6"
        rc = cli.main(["profile", str(inp), "-m", "1.0", "--out", str(out)])
        assert rc == 0
        payload = json.loads((tmp_path / "c6.profile.json").read_text())
        assert payload["records"][0]["r"] == 1.0
        assert payload["records"][0]["mean_rho"] == 2.0
        assert "config" in payload["meta"]
        summary = (tmp_path / "c6.summary.csv").read_text()
        assert summary.splitlines()[1] == "r,count,mean_rho"

    def test_tree_profile_all_ones(self, tmp_path):
        inp = tmp_path / "tree.edges"
        write_tree(inp)
        rc = cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "t")])
        assert rc == 0
        payload = json.loads((tmp_path / "t.profile.json").read_text())
        assert payload["records"]
        assert all(rec["mean_rho"] == 1.0 for rec in payload["records"])

    def test_empty_profile_exits_3(self, tmp_path):
        inp = tmp_path / "path.edges"
        inp.write_text("0 1\n1 2\n2 3\n3 4\n")
        rc = cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "p")])
        assert rc == 3

    def test_missing_input_exits_2(self, tmp_path):
        assert cli.main(["profile", str(tmp_path / "nope.edges")]) == 2

    def test_point_cloud_requires_graph_rule(self, tmp_path):
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, plane_sample(40, seed=0).coords, delimiter=",")
        assert cli.main(["profile", str(inp), "--out", str(tmp_path / "x")]) == 2

    def test_point_cloud_adaptive_route(self, tmp_path):
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, plane_sample(120, seed=0).coords, delimiter=",")
        rc = cli.main(
            ["profile", str(inp), "--kmin", "4", "--kmax", "8", "-m", "1.0", "--out", str(tmp_path / "x")]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "x.profile.json").read_text())
        assert payload["meta"]["scale_rule"] == "binned"

    def test_byte_identical_reruns_and_worker_counts(self, tmp_path):
        inp = tmp_path / "g.edges"
        write_cycle(inp, 30)
        out = tmp_path / "prof"
        blobs = []
        for workers in ("1", "1", "8"):
            rc = cli.main(
                ["profile", str(inp), "-m", "0.5", "--seed", "5", "--workers", workers,
                 "--out", str(out)]
            )
            assert rc == 0
            blobs.append(
                ((out.parent / "prof.long.csv").read_bytes(),
                 (out.parent / "prof.summary.csv").read_bytes())
            )
        # identical config -> identical bytes; worker count must not leak in
        assert blobs[0] == blobs[1] == blobs[2]

    def test_cluster_sample_flag(self, tmp_path):
        inp = tmp_path / "c.edges"
        write_cycle(inp, 24)
        rc = cli.main(
            ["profile", str(inp), "-m", "1.0", "--cluster-sample", "3,4", "--out", str(tmp_path / "cs")]
        )
        assert rc in (0, 3)  # subset may or may not retain triples
        payload = json.loads((tmp_path / "cs.profile.json").read_text())
        assert payload["meta"]["cluster_sample"] == [3, 4]
        assert cli.main(["profile", str(inp), "--cluster-sample", "nope"]) == 2

    def test_sides_of_1e10_keep_their_scale(self, tmp_path, capsys):
        # integer sides of 1e10 are scale keys far beyond any array indexed by key
        inp = tmp_path / "big.edges"
        inp.write_text("0 1 10000000000\n1 2 10000000000\n0 2 10000000000\n2 3 10000000000\n")
        assert cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "big")]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["r=5e+09 count=1 rho=2.000000"]

    def test_gnuplot_script(self, tmp_path):
        inp = tmp_path / "c6.edges"
        write_cycle(inp)
        rc = cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "c"), "--gnuplot-script"])
        assert rc == 0
        assert "rho_plane" in (tmp_path / "c.gp").read_text()


def _strip_config(raw: bytes) -> bytes:
    lines = raw.split(b"\n")
    return b"\n".join(x for x in lines if not x.startswith(b"#"))


class TestRhoCommand:
    def test_star_leaves(self, tmp_path, capsys):
        inp = tmp_path / "star.edges"
        inp.write_text("0 1\n0 2\n0 3\n")
        rc = cli.main(["rho", str(inp), "1", "2", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rho = 1.000000" in out
        assert "witness vertex = 0" in out
        assert "(equilateral)" in out

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [["profile", "{}", "-m", "1.0"], ["rho", "{}", "0", "1", "2"]],
                             ids=lambda argv: argv[0])
    def test_non_finite_weight_exits_2(self, tmp_path, capsys, argv, weight):
        # triangle with a tail; a NaN or inf edge used to be dropped silently
        inp = tmp_path / "t.edges"
        inp.write_text(f"0 1 {weight}\n1 2\n0 2\n2 3\n")
        assert cli.main([a.format(inp) for a in argv]) == 2
        assert f"non-finite edge weight {weight} on (0,1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [inp]

    @pytest.mark.parametrize(
        "name, content, triple, expected",
        [
            ("c6.edges", "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n", "0 2 4",
             "d(0,2) = 2   d(0,4) = 2   d(2,4) = 2\n"
             "gromov products: r1 = 1, r2 = 1, r3 = 1\n"
             "lambda = 2.000000  (equilateral)\n"
             "rho = 2.000000   witness vertex = 0\n"
             "equilateral min-max rho = 2.000000   witness = 0\n"),
            # triangle with a tail: {0,1,3} has sides (1, 2, 2) -> lambda 1.5
            ("tail.edges", "0 1\n1 2\n0 2\n2 3\n", "0 1 3",
             "d(0,1) = 1   d(0,3) = 2   d(1,3) = 2\n"
             "gromov products: r1 = 0.5, r2 = 0.5, r3 = 1.5\n"
             "lambda = 1.500000\n"
             "rho = 2.000000   witness vertex = 0\n"),
        ],
        ids=["c6", "triangle-with-tail"],
    )
    def test_report_text(self, tmp_path, capsys, name, content, triple, expected):
        inp = tmp_path / name
        inp.write_text(content)
        assert cli.main(["rho", str(inp), *triple.split()]) == 0
        assert capsys.readouterr() == (expected, "")

    # nonmetric.csv: an equilateral triple of side 2 whose corners lie 0.5 from a fourth point
    @pytest.mark.parametrize(
        "name, content, triple, message",
        [
            ("two.edges", "0 1\n2 3\n", "0 1 2", "triple spans disconnected components"),
            ("zero-side.csv", "0,0,1\n0,0,1\n1,1,0\n", "0 1 2",
             "degenerate triple: zero side length (coincident points)"),
            ("all-zero.csv", "0,0,0\n0,0,0\n0,0,0\n", "0 1 2",
             "degenerate triple: zero side length (coincident points)"),
            ("nonmetric.csv", "0,2,2,0.5\n2,0,2,0.5\n2,2,0,0.5\n0.5,0.5,0.5,0\n", "0 1 3",
             "Gromov product -0.5 below 0: the distances break the triangle inequality"),
            ("nonmetric.csv", "0,2,2,0.5\n2,0,2,0.5\n2,2,0,0.5\n0.5,0.5,0.5,0\n", "0 1 2",
             "expansion factor 0.5 below 1: the distances break the triangle inequality"),
        ],
        ids=["cross-component", "one-zero-side", "all-zero", "negative-gromov-product", "rho-below-one"],
    )
    def test_rejected_triple_text(self, tmp_path, capsys, name, content, triple, message):
        inp = tmp_path / name
        inp.write_text(content)
        assert cli.main(["rho", str(inp), *triple.split()]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_distance_matrix_honours_graph_rule(self, tmp_path, capsys):
        # a 5-point line metric: at eps 0.5 the epsilon graph has no edges
        inp = tmp_path / "line.csv"
        x = np.arange(5.0)
        np.savetxt(inp, np.abs(x[:, None] - x[None, :]), delimiter=",")
        assert cli.main(["rho", str(inp), "0", "2", "4"]) == 0
        assert "d(0,2) = 2" in capsys.readouterr().out
        assert cli.main(["rho", str(inp), "0", "2", "4", "--eps", "0.5"]) == 2
        assert "disconnected components" in capsys.readouterr().err


class TestGenerateCommand:
    @pytest.mark.parametrize(
        "argv,outfile",
        [
            (["--kind", "er", "--n", "60", "--avg-degree", "4"], "er.edges"),
            (["--kind", "ws", "--n", "60", "--k", "4", "--beta", "0.1"], "ws.edges"),
            (["--kind", "tree", "--branching", "2", "--depth", "4"], "tree.edges"),
            (["--kind", "circle", "--n", "40"], "circle.csv"),
            (["--kind", "plane", "--n", "40"], "plane.csv"),
            (["--kind", "dla", "--branches", "3", "--length", "10", "--subdim", "2"], "dla.csv"),
        ],
    )
    def test_kinds_write_files(self, tmp_path, argv, outfile):
        out = tmp_path / outfile
        rc = cli.main(["generate", *argv, "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert out.exists() and out.stat().st_size > 0

    def test_gaussian_writes_pair(self, tmp_path):
        out = tmp_path / "g"
        rc = cli.main(["generate", "--kind", "gaussian", "--n", "50", "--dim", "2", "--out", str(out)])
        assert rc == 0
        low = np.loadtxt(f"{out}.low.csv", delimiter=",")
        high = np.loadtxt(f"{out}.high.csv", delimiter=",")
        assert low.shape == (50, 2) and high.shape == (50, 52)

    def test_generator_is_looked_up_when_called(self, tmp_path, monkeypatch):
        # a wrapper put on curvprof.generate after import, as a profiler does, is the one that runs
        import curvprof.generate as gen_mod

        argv = ["generate", "--kind", "er", "--n", "40", "--seed", "2", "--out"]
        assert cli.main([*argv, str(tmp_path / "plain.edges")]) == 0
        calls, real = [], gen_mod.erdos_renyi
        monkeypatch.setattr(gen_mod, "erdos_renyi", lambda *a, **kw: calls.append(kw) or real(*a, **kw))
        assert cli.main([*argv, str(tmp_path / "wrapped.edges")]) == 0
        assert calls == [{"n": 40, "avg_degree": 4.0, "seed": 2}]
        assert (tmp_path / "wrapped.edges").read_bytes() == (tmp_path / "plain.edges").read_bytes()

    def test_generate_then_profile_roundtrip(self, tmp_path):
        out = tmp_path / "net.edges"
        assert cli.main(["generate", "--kind", "ws", "--n", "80", "--k", "4", "--beta", "0.1", "--out", str(out)]) == 0
        assert cli.main(["profile", str(out), "-m", "1.0", "--out", str(tmp_path / "net")]) == 0


class TestProvenance:
    """Generated edge lists and profile JSONs record where the graph came from."""

    @pytest.mark.parametrize(
        "argv, header",
        [
            (["--kind", "er", "--n", "10", "--seed", "3"],
             '# generated: {"avg_degree": 4.0, "kind": "er", "n": 10, "seed": 3}'),
            (["--kind", "ws", "--n", "10", "--beta", "0.25", "--seed", "3"],
             '# generated: {"beta": 0.25, "k": 4, "kind": "ws", "n": 10, "seed": 3}'),
            (["--kind", "tree", "--depth", "3", "--seed", "3"],
             '# generated: {"branching": 2, "depth": 3, "kind": "tree"}'),
        ],
        ids=["er", "ws", "tree"],
    )
    def test_generated_header_line(self, tmp_path, argv, header):
        out = tmp_path / "g.edges"
        assert cli.main(["generate", *argv, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == header

    def test_graph_params_name_only_an_edge_list_source(self, tmp_path):
        edges, pts, dist = tmp_path / "c6.edges", tmp_path / "pts.csv", tmp_path / "circle.csv"
        write_cycle(edges)
        np.savetxt(pts, plane_sample(60, seed=2).coords, delimiter=",")
        assert cli.main(["generate", "--kind", "circle", "--n", "60", "--seed", "0", "--out", str(dist)]) == 0
        runs = {edges: [], pts: ["--k", "5"], dist: []}
        expected = {edges: {"source": str(edges)}, pts: None, dist: None}
        for inp, rule in runs.items():
            out = tmp_path / f"{inp.stem}-out"
            assert cli.main(["profile", str(inp), "-m", "1.0", *rule, "--out", str(out)]) == 0
            meta = json.loads(Path(f"{out}.profile.json").read_text())["meta"]
            assert meta["graph_params"] == expected[inp]


class TestCompareCommand:
    def test_identical_profiles_w1_zero(self, tmp_path, capsys):
        inp = tmp_path / "c6.edges"
        write_cycle(inp)
        cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "p")])
        rc = cli.main(
            ["compare", str(tmp_path / "p.profile.json"), str(tmp_path / "p.profile.json"),
             "--out", str(tmp_path / "cmp.json")]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "cmp.json").read_text())
        assert payload["w1"] == 0.0
        assert payload["grid"]["nr"] == 50

    def test_different_profiles_positive(self, tmp_path):
        c6 = tmp_path / "c6.edges"
        write_cycle(c6)
        tree = tmp_path / "tree.edges"
        write_tree(tree)
        cli.main(["profile", str(c6), "-m", "1.0", "--out", str(tmp_path / "a")])
        cli.main(["profile", str(tree), "-m", "1.0", "--out", str(tmp_path / "b")])
        rc = cli.main(
            ["compare", str(tmp_path / "a.profile.json"), str(tmp_path / "b.profile.json"),
             "--out", str(tmp_path / "ab.json")]
        )
        assert rc == 0
        assert json.loads((tmp_path / "ab.json").read_text())["w1"] > 0.5

    def test_malformed_profile_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert cli.main(["compare", str(bad), str(bad)]) == 2

    def test_stored_count_must_match_rho_values(self, tmp_path, capsys):
        inp = tmp_path / "c6.edges"
        write_cycle(inp)
        cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "p")])
        path = tmp_path / "p.profile.json"
        payload = json.loads(path.read_text())
        payload["records"][0]["count"] += 1
        path.write_text(json.dumps(payload))
        assert cli.main(["compare", str(path), str(path)]) == 2
        assert "rho values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda recs: recs[0].update(r=float("nan")), "r must be finite and > 0"),
            (lambda recs: recs[0].update(r=float("inf")), "r must be finite and > 0"),
            (lambda recs: recs[0].update(r=-1.0), "r must be finite and > 0"),
            (lambda recs: [rec.update(r=0.0) for rec in recs], "r must be finite and > 0"),
            (lambda recs: recs[0]["rho_values"].__setitem__(0, float("nan")), "not a finite value in [1, 2]"),
            (lambda recs: recs[0]["rho_values"].__setitem__(0, 7.0), "not a finite value in [1, 2]"),
            (lambda recs: recs[0].update(rho_values="12", count=2), "rho_values must be a list"),
            (lambda recs: recs[0].update(count=2.5), "malformed profile payload: count must be an integer"),
            (lambda recs: recs[0].update(count=True), "malformed profile payload: count must be an integer"),
            (lambda recs: recs[0].update(r="1.0"), "malformed profile payload: r must be a number"),
            (lambda recs: recs[0].update(r=True), "malformed profile payload: r must be a number"),
        ],
        ids=[
            "nan-r", "inf-r", "negative-r", "all-r-zero", "nan-rho", "rho-7", "rho-values-string",
            "count-2.5", "count-true", "r-string", "r-true",
        ],
    )
    def test_bad_stored_values_exit_2(self, tmp_path, capsys, edit, message):
        inp = tmp_path / "tree.edges"
        write_tree(inp)
        cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "t")])
        good = tmp_path / "t.profile.json"
        payload = json.loads(good.read_text())
        edit(payload["records"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["compare", str(bad), str(good)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_no_normalize_r_keeps_the_scale_axis(self, tmp_path):
        # a hop-count profile has r >= 1 everywhere: on a [0, 1] axis every
        # scale would snap onto the same column
        inp = tmp_path / "tree.edges"
        write_tree(inp)
        cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "t")])
        path = tmp_path / "t.profile.json"
        payload = json.loads(path.read_text())
        for rec in payload["records"]:
            rec["r"] *= 2
        doubled = tmp_path / "doubled.json"
        doubled.write_text(json.dumps(payload))
        out = tmp_path / "cmp.json"
        assert cli.main(["compare", str(path), str(doubled), "--no-normalize-r", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["w1"] > 0
        assert result["grid"]["r_range"] == [0.0, max(rec["r"] for rec in payload["records"])]
        assert cli.main(["compare", str(path), str(doubled), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["w1"] == 0.0


class TestEmbedCommand:
    def test_mds_on_points(self, tmp_path):
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, plane_sample(30, seed=2).coords, delimiter=",")
        rc = cli.main(["embed", str(inp), "--method", "mds", "--dims", "1,2", "--out", str(tmp_path / "e")])
        assert rc == 0
        assert np.loadtxt(f"{tmp_path}/e.d2.csv", delimiter=",").shape == (30, 2)
        report = json.loads((tmp_path / "e.embed.json").read_text())
        assert set(report["dimensions"]) == {"1", "2"}

    def test_isomap_requires_k(self, tmp_path):
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, plane_sample(30, seed=2).coords, delimiter=",")
        assert cli.main(["embed", str(inp), "--method", "isomap", "--dims", "2"]) == 2

    @pytest.mark.parametrize("method", [[], ["--method", "mds"]], ids=["default", "mds"])
    def test_mds_rejects_k_and_writes_nothing(self, tmp_path, capsys, method):
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, plane_sample(30, seed=2).coords, delimiter=",")
        argv = ["embed", str(inp), *method, "--k", "7", "--dims", "2", "--out", str(tmp_path / "e")]
        assert cli.main(argv) == 2
        assert "--k is the Isomap neighbour count" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pts.csv"]

    @pytest.mark.parametrize("blobs", [(30, 12), (30,)])
    def test_isomap_report_names_the_kept_rows(self, tmp_path, caplog, blobs):
        rng = np.random.default_rng(4)
        # far-apart blobs give a disconnected kNN graph; the larger one is kept
        coords = np.vstack([rng.normal(size=(n, 2)) + 100.0 * b for b, n in enumerate(blobs)])
        order = rng.permutation(len(coords))
        inp = tmp_path / "two.csv"
        np.savetxt(inp, coords[order], delimiter=",")
        argv = ["embed", str(inp), "--method", "isomap", "--k", "4", "--dims", "2", "--out", str(tmp_path / "two")]
        with caplog.at_level("WARNING", logger="curvprof.embed"):
            assert cli.main(argv) == 0
        assert ("largest component" in caplog.text) == (len(blobs) > 1)
        report = json.loads((tmp_path / "two.embed.json").read_text())
        if len(blobs) == 1:
            assert report["kept_indices"] is None
            return
        assert report["kept_indices"] == np.flatnonzero(order < blobs[0]).tolist()
        assert np.loadtxt(tmp_path / "two.d2.csv", delimiter=",").shape == (blobs[0], 2)

    def test_stress_of_a_planar_cloud_is_zero(self, tmp_path):
        rng = np.random.default_rng(0)
        coords = rng.random((20, 2))
        inp = tmp_path / "plane.csv"
        np.savetxt(inp, np.linalg.norm(coords[:, None] - coords[None, :], axis=2), delimiter=",")
        argv = ["embed", str(inp), "--format", "distmatrix", "--dims", "2", "--out", str(tmp_path / "e")]
        assert cli.main(argv) == 0
        report = json.loads((tmp_path / "e.embed.json").read_text())["dimensions"]["2"]
        assert report["stress"] <= 1e-8
        assert report["n_clamped"] == 0

    def test_star_tree_has_stress(self, tmp_path):
        # the hop-count metric of a star with three leaves
        inp = tmp_path / "star.csv"
        inp.write_text("0,1,1,1\n1,0,2,2\n1,2,0,2\n1,2,2,0\n")
        argv = ["embed", str(inp), "--format", "distmatrix", "--dims", "2", "--out", str(tmp_path / "e")]
        assert cli.main(argv) == 0
        assert json.loads((tmp_path / "e.embed.json").read_text())["dimensions"]["2"]["stress"] > 0

    @pytest.mark.parametrize(
        "argv",
        [["embed", "--method", "isomap", "--k", "4"], ["estimate-dim", "--method", "isomap", "-m", "0.5"]],
        ids=["embed", "estimate-dim"],
    )
    def test_isomap_dimension_beyond_the_largest_component_exits_2(self, tmp_path, capsys, argv):
        # 30 + 12 far-apart points: the kNN graph keeps 30, and d = 35 is below n = 42 only
        rng = np.random.default_rng(4)
        inp = tmp_path / "blobs.csv"
        np.savetxt(inp, np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(12, 2)) + 100.0]), delimiter=",")
        assert cli.main([argv[0], str(inp), *argv[1:], "--dims", "35", "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr() == ("", "error: target dimension d=35 must be below 30, the point count of "
                                           "the largest component of the disconnected graph on n=42 points\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.csv"]

    def test_isomap_notice_names_no_source_line(self, tmp_path):
        # two disjoint triangles; the notice is a log record, not a warning with the caller's path and line
        (tmp_path / "two.edges").write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
        proc = run_cli_process(tmp_path, "embed", "two.edges", "--method", "isomap", "--dims", "1")
        assert proc.returncode == 0
        assert proc.stderr == "graph is disconnected; embedding the largest component (3 of 6 points)\n"

    def test_isomap_notice_on_a_point_cloud_names_the_knn_graph(self, tmp_path):
        # two far-apart triangles of points: the 2-NN graph built from them has two components
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.savetxt(tmp_path / "two.csv", np.vstack([tri, tri + 100.0]), delimiter=",")
        proc = run_cli_process(tmp_path, "embed", "two.csv", "--method", "isomap", "--k", "2", "--dims", "1")
        assert proc.returncode == 0
        assert proc.stderr == "kNN graph is disconnected; embedding the largest component (3 of 6 points)\n"


class TestEstimateDimCommand:
    def test_gaussian_small_pipeline(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert cli.main(["generate", "--kind", "gaussian", "--n", "150", "--dim", "2", "--seed", "3", "--out", str(out)]) == 0
        rc = cli.main(
            ["estimate-dim", f"{out}.high.csv", "--dims", "1-4", "--kmin", "8", "--kmax", "12",
             "--embed-k", "8", "-m", "0.5", "--seed", "3", "--out", str(tmp_path / "est")]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "est.dim.json").read_text())
        assert payload["d_best"] in (2, 3, 4)
        curve = (tmp_path / "est.dimcurve.csv").read_text().splitlines()
        assert curve[1] == "d,w1"
        assert "d_best" in capsys.readouterr().out

    def test_single_dimension_trivial(self, tmp_path):
        c6 = tmp_path / "c6.edges"
        write_cycle(c6, 12)
        rc = cli.main(["estimate-dim", str(c6), "--method", "mds", "--dims", "3", "-m", "1.0",
                       "--embed-k", "3", "--out", str(tmp_path / "e")])
        assert rc == 0
        payload = json.loads((tmp_path / "e.dim.json").read_text())
        assert payload["d_best"] == 3


class TestExternalEmbeddings:
    def test_external_dimension_curve(self, tmp_path):
        rng = np.random.default_rng(8)
        coords = rng.random((60, 3))
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, coords, delimiter=",")
        embdir = tmp_path / "embs"
        embdir.mkdir()
        np.savetxt(embdir / "umap_d2.csv", coords[:, :2], delimiter=",")
        np.savetxt(embdir / "umap_d3.csv", coords, delimiter=",")
        rc = cli.main(
            ["estimate-dim", str(inp), "--method", "external", "--embeddings-dir", str(embdir),
             "--dims", "2,3", "--kmin", "5", "--kmax", "8", "--embed-k", "5", "-m", "1.0",
             "--out", str(tmp_path / "ext")]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "ext.dim.json").read_text())
        assert payload["d_best"] == 3  # the d=3 "embedding" is the data itself

    def test_two_files_for_one_dimension_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "pts.csv"
        coords = np.random.default_rng(0).random((40, 3))
        np.savetxt(inp, coords, delimiter=",")
        embdir = tmp_path / "embs"
        embdir.mkdir()
        for name in ("x.d3.csv", "y.d3.csv", "z.d2.csv"):
            np.savetxt(embdir / name, coords, delimiter=",")
        argv = ["estimate-dim", str(inp), "--method", "external", "--embeddings-dir", str(embdir),
                "--kmin", "5", "--kmax", "8", "-m", "1.0", "--out", str(tmp_path / "ext")]
        assert cli.main(argv + ["--dims", "2,3"]) == 2
        assert f"{embdir / 'x.d3.csv'} and {embdir / 'y.d3.csv'} both name dimension 3" in capsys.readouterr().err
        assert not (tmp_path / "ext.dim.json").exists()
        # a dimension that is not asked for may have any number of files
        assert cli.main(argv + ["--dims", "2"]) == 0

    def test_missing_dimension_file_exits_2(self, tmp_path):
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, np.random.default_rng(0).random((40, 3)), delimiter=",")
        embdir = tmp_path / "embs"
        embdir.mkdir()
        rc = cli.main(
            ["estimate-dim", str(inp), "--method", "external", "--embeddings-dir", str(embdir),
             "--dims", "2", "--kmin", "5", "--kmax", "8"]
        )
        assert rc == 2


class TestEnvironmentOverrides:
    def test_seed_and_workers_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CURVPROF_SEED", "123")
        monkeypatch.setenv("CURVPROF_WORKERS", "1")
        inp = tmp_path / "c.edges"
        write_cycle(inp, 12)
        rc = cli.main(["profile", str(inp), "-m", "0.5", "--out", str(tmp_path / "p")])
        assert rc == 0
        payload = json.loads((tmp_path / "p.profile.json").read_text())
        assert payload["meta"]["seed"] == 123

    def test_workers_default_to_one(self, monkeypatch):
        monkeypatch.delenv("CURVPROF_WORKERS", raising=False)
        assert cli.build_parser().parse_args(["profile", "x"]).workers == 1

    @pytest.mark.parametrize("var", ["CURVPROF_SEED", "CURVPROF_WORKERS"])
    def test_non_integer_env_value_exits_2(self, tmp_path, monkeypatch, capsys, var):
        monkeypatch.setenv(var, "abc")
        inp = tmp_path / "c.edges"
        write_cycle(inp, 12)
        assert cli.main(["profile", str(inp), "--out", str(tmp_path / "p")]) == 2
        assert var in capsys.readouterr().err

    @pytest.mark.parametrize(
        "var, argv",
        [
            ("CURVPROF_SEED", ["estimate-dim", "{inp}", "--dims", "2"]),
            ("CURVPROF_WORKERS", ["estimate-dim", "{inp}", "--dims", "2"]),
            ("CURVPROF_SEED", ["generate", "--kind", "er", "--n", "10"]),
        ],
        ids=["estimate-dim-seed", "estimate-dim-workers", "generate-seed"],
    )
    def test_other_readers_of_a_bad_value_exit_2(self, tmp_path, monkeypatch, capsys, var, argv):
        monkeypatch.setenv(var, "-1")
        inp = tmp_path / "c.edges"
        write_cycle(inp, 12)
        assert cli.main([a.format(inp=inp) for a in argv] + ["--out", str(tmp_path / "p")]) == 2
        assert var in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [inp]

    @pytest.mark.parametrize("var", ["CURVPROF_SEED", "CURVPROF_WORKERS"])
    def test_subcommands_without_the_option_ignore_the_variable(self, tmp_path, monkeypatch, capsys, var):
        inp = tmp_path / "t.edges"
        write_tree(inp, 3)
        profile = str(tmp_path / "t.profile.json")
        assert cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "t")]) == 0
        monkeypatch.setenv(var, "abc")
        capsys.readouterr()
        assert cli.main(["compare", profile, profile]) == 0
        assert capsys.readouterr().out == "w1 = 0.0\n"
        assert cli.main(["rho", str(inp), "0", "3", "4"]) == 0
        assert cli.main(["embed", str(inp), "--dims", "2", "--out", str(tmp_path / "e")]) == 0


def _child(code, threads, cwd=None):
    """Run ``python -c code`` in a fresh interpreter with curvprof on its path.

    ``threads`` is the child's OPENBLAS_NUM_THREADS; None removes it.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    src = str(Path(curvprof.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _cli_runs(tmp_path, calls, thread_counts):
    """Run the CLI calls in one child per thread count; (stdout, {file: bytes}) each."""
    code = f"from curvprof import cli\nfor argv in {calls!r}:\n    assert cli.main(argv) == 0, argv"
    runs = []
    for threads in thread_counts:
        cwd = tmp_path / str(threads)
        cwd.mkdir()
        stdout = _child(code, threads, cwd=cwd)
        runs.append((stdout, {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}))
    return runs


class TestBlasThreads:
    @pytest.mark.parametrize("threads,expected", [(None, b"1"), ("2", b"2")])
    def test_import_defaults_to_one_thread_and_keeps_the_users(self, threads, expected):
        code = "import curvprof, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _child(code, threads).strip() == expected

    def test_small_inputs_give_the_same_bytes_on_one_and_two_threads(self, tmp_path):
        # at n = 60 OpenBLAS runs these gemm and eigh calls the same way on either count
        calls = [
            ["generate", "--kind", "gaussian", "--n", "60", "--dim", "2", "--extra-dims", "3", "--seed", "0",
             "--out", "g"],
            ["embed", "g.high.csv", "--method", "mds", "--dims", "1-4", "--out", "e"],
            ["estimate-dim", "g.high.csv", "--method", "mds", "--dims", "1-4", "--kmin", "6", "--kmax", "8",
             "-m", "0.2", "--out", "mds"],
            ["estimate-dim", "g.high.csv", "--method", "isomap", "--embed-k", "10", "--dims", "1-4",
             "--kmin", "6", "--kmax", "8", "-m", "0.2", "--out", "iso"],
        ]
        one, two = _cli_runs(tmp_path, calls, ("1", "2"))
        assert len(one[1]) == 11
        assert one == two

    def test_default_gives_the_one_thread_bytes(self, tmp_path):
        # at n = 150 two threads split gemm and eigh sums differently and move the last
        # bits of the MDS coordinates, so without the default the bytes would follow
        # the machine's core count
        calls = [
            ["generate", "--kind", "gaussian", "--n", "150", "--dim", "2", "--extra-dims", "10", "--seed", "1",
             "--out", "g"],
            ["embed", "g.high.csv", "--method", "mds", "--dims", "2-4", "--out", "e"],
        ]
        default, one = _cli_runs(tmp_path, calls, (None, "1"))
        assert len(default[1]) == 6
        assert default == one


class TestUnreadableInput:
    @pytest.mark.parametrize("name", ["data.csv", "data.edges"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "{}", "--k", "3"],
            ["rho", "{}", "0", "1", "2"],
            ["embed", "{}", "--dims", "2"],
            ["estimate-dim", "{}"],
            ["compare", "{}", "{}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_directory_exits_2(self, tmp_path, capsys, name, argv):
        directory = tmp_path / name
        directory.mkdir()
        assert cli.main([a.format(directory) for a in argv]) == 2
        assert "not a regular file" in capsys.readouterr().err


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "{profile}", "{profile}", "--out", "{out}"],
            ["generate", "--kind", "er", "--n", "20", "--out", "{out}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_directory_as_out_exits_2(self, tmp_path, capsys, argv):
        inp = tmp_path / "c6.edges"
        write_cycle(inp)
        cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "p")])
        capsys.readouterr()
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        args = [a.format(profile=tmp_path / "p.profile.json", out=outdir) for a in argv]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Is a directory" in err


class TestComputedOnce:
    def test_estimate_dim_solves_one_eigenproblem(self, tmp_path, monkeypatch):
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, np.random.default_rng(4).standard_normal((60, 3)), delimiter=",")
        calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(1) or real_eigh(*a, **kw))
        rc = cli.main(["estimate-dim", str(inp), "--dims", "1-8", "--kmin", "5", "--kmax", "8",
                       "-m", "0.2", "--out", str(tmp_path / "est")])
        assert rc == 0
        assert len(calls) == 1

    def test_estimate_dim_solves_one_lp_per_distinct_pair(self, tmp_path, monkeypatch):
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, np.random.default_rng(4).standard_normal((60, 3)), delimiter=",")
        pairs, solves = [], []
        real_w1, real_lp = transport.wasserstein1, transport._solve_transport_lp

        def w1(P, Q, **kwargs):
            pairs.append(frozenset((transport._dist_key(P), transport._dist_key(Q))))
            return real_w1(P, Q, **kwargs)

        monkeypatch.setattr(transport, "wasserstein1", w1)
        monkeypatch.setattr(transport, "_solve_transport_lp", lambda *a: solves.append(1) or real_lp(*a))
        rc = cli.main(["estimate-dim", str(inp), "--dims", "1-8", "--kmin", "5", "--kmax", "8",
                       "-m", "0.2", "--out", str(tmp_path / "est")])
        assert rc == 0
        # every candidate is still scored; each distinct pair is asked for once, and only unequal ones reach the LP
        assert len((tmp_path / "est.dimcurve.csv").read_text().splitlines()) == 2 + 8
        assert len(pairs) == len(set(pairs))
        assert len(solves) == len({pair for pair in pairs if len(pair) == 2})


class TestPrecomputedMetric:
    def test_metric_flag_routes_square_csv(self, tmp_path, capsys):
        # 4-point line metric read as precomputed distances, then fed to the kNN builder
        d = np.array(
            [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 2.0], [2.0, 1.0, 0.0, 1.0], [3.0, 2.0, 1.0, 0.0]]
        )
        inp = tmp_path / "d.csv"
        np.savetxt(inp, d, delimiter=",")
        rc = cli.main(["rho", str(inp), "0", "1", "2", "--format", "distmatrix", "--k", "1"])
        assert rc == 0
        assert "d(0,1) = 1   d(0,2) = 2   d(1,2) = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["profile"], ["rho", "0", "1", "2"]], ids=["profile", "rho"])
    def test_distances_that_break_the_triangle_inequality_exit_2(self, tmp_path, capsys, command):
        # an equilateral triple of side 2 whose three corners lie 0.5 from a fourth point: rho = 0.5
        inp = tmp_path / "d.csv"
        inp.write_text("0,2,2,0.5\n2,0,2,0.5\n2,2,0,0.5\n0.5,0.5,0.5,0\n")
        argv = [command[0], str(inp), *command[1:]]
        assert cli.main(argv + (["--out", str(tmp_path / "p")] if command[0] == "profile" else [])) == 2
        err = capsys.readouterr().err
        assert err == "error: expansion factor 0.5 below 1: the distances break the triangle inequality\n"


class TestRemovedOptions:
    """Options that changed no output are gone: argparse rejects them before any file is written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "{c6}", "-m", "1.0", "--metric", "precomputed"],
            ["embed", "{pts}", "--dims", "2", "--kmin", "5", "--kmax", "8"],
            ["embed", "{pts}", "--dims", "2", "--eps", "0.3"],
            ["estimate-dim", "{pts}", "--dims", "1-2", "--kmin", "5", "--kmax", "8", "--median"],
        ],
        ids=["profile-metric", "embed-kmin-kmax", "embed-eps", "estimate-dim-median"],
    )
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        write_cycle(tmp_path / "c6.edges")
        np.savetxt(tmp_path / "pts.csv", plane_sample(30, seed=2).coords, delimiter=",")
        before = sorted(tmp_path.iterdir())
        args = [a.format(c6=tmp_path / "c6.edges", pts=tmp_path / "pts.csv") for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_config_records_only_the_options_read(self, tmp_path):
        np.savetxt(tmp_path / "pts.csv", plane_sample(30, seed=2).coords, delimiter=",")
        assert cli.main(["embed", str(tmp_path / "pts.csv"), "--dims", "2", "--out", str(tmp_path / "e")]) == 0
        cfg = json.loads((tmp_path / "e.embed.json").read_text())["config"]
        assert sorted(cfg) == ["command", "dims", "format", "input", "k", "method", "out"]


class TestParsing:
    def test_dims_parser(self):
        assert cli._parse_dims("1-4", 60) == [1, 2, 3, 4]
        assert cli._parse_dims("2,5,3", 60) == [2, 3, 5]
        with pytest.raises(Exception):
            cli._parse_dims("0", 60)

    def test_dims_bounds_are_checked_before_the_range_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "range", lambda *a: built.append(a) or range(*a), raising=False)
        with pytest.raises(curvprof.InputError, match=r"--dims: dimension 1000000000 must satisfy 1 <= d < n=60"):
            cli._parse_dims("1-1000000000", 60)
        assert built == []
        assert cli._parse_dims("2-4,7", 60) == [2, 3, 4, 7]
        assert built == [(2, 5), (7, 8)]

    def test_grid_parser(self):
        g = cli._parse_grid("25x40")
        assert g.nr == 25 and g.nrho == 40


class TestMalformedOptions:
    @pytest.mark.parametrize("spec", ["a", "1-", "2,x", "1.5"])
    @pytest.mark.parametrize("command", ["embed", "estimate-dim"])
    def test_bad_dims_exit_2(self, tmp_path, capsys, command, spec):
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, plane_sample(30, seed=2).coords, delimiter=",")
        assert cli.main([command, str(inp), "--dims", spec, "--out", str(tmp_path / "e")]) == 2
        assert repr(spec) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["embed", "{pts}", "--dims", "1-500"],
            ["embed", "{pts}", "--method", "isomap", "--k", "5", "--dims", "1-500"],
            ["estimate-dim", "{pts}", "--dims", "1-500"],
            ["estimate-dim", "{pts}", "--method", "isomap", "--dims", "1-500"],
            ["estimate-dim", "{pts}", "--method", "external", "--embeddings-dir", "{embs}", "--dims", "2,60"],
        ],
        ids=["embed-mds", "embed-isomap", "estimate-dim-mds", "estimate-dim-isomap", "estimate-dim-external"],
    )
    def test_dims_beyond_the_point_count_exit_2(self, tmp_path, capsys, argv):
        inp, embs = tmp_path / "pts.csv", tmp_path / "embs"
        np.savetxt(inp, plane_sample(60, seed=2).coords, delimiter=",")
        embs.mkdir()
        before = sorted(tmp_path.iterdir())
        args = [a.format(pts=inp, embs=embs) for a in argv]
        assert cli.main(args + ["--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --dims") and "n=60" in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("grid", ["0x5", "5x0"])
    def test_zero_sized_grid_exits_2(self, tmp_path, capsys, grid):
        inp = tmp_path / "c6.edges"
        write_cycle(inp)
        cli.main(["profile", str(inp), "-m", "1.0", "--out", str(tmp_path / "p")])
        profile = str(tmp_path / "p.profile.json")
        capsys.readouterr()
        assert cli.main(["compare", profile, profile, "--grid", grid]) == 2
        assert "at least one node" in capsys.readouterr().err
        rc = cli.main(["estimate-dim", str(inp), "--method", "mds", "--dims", "2", "-m", "1.0",
                       "--embed-k", "3", "--grid", grid, "--out", str(tmp_path / "e")])
        assert rc == 2

    @pytest.mark.parametrize("embed_k", ["0", "40"])
    def test_embed_k_outside_the_point_count_exits_2_first(self, tmp_path, capsys, monkeypatch, embed_k):
        inp = tmp_path / "pts.csv"
        np.savetxt(inp, plane_sample(40, seed=2).coords, delimiter=",")
        built = []
        monkeypatch.setattr(cli, "build_profile", lambda *a, **kw: built.append(1))
        rc = cli.main(["estimate-dim", str(inp), "--embed-k", embed_k, "--dims", "1-2",
                       "--out", str(tmp_path / "e")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: --embed-k (default --kmin, --k or 10) is {embed_k}; "
                                           "it must satisfy 1 <= k < n=40\n")
        assert built == []

    def test_refused_allocation_exits_2(self, tmp_path):
        # a 100000x100000 grid asks numpy for 74.5 GiB; the address-space cap makes sure it is refused
        write_cycle(tmp_path / "c6.edges")
        assert cli.main(["profile", str(tmp_path / "c6.edges"), "-m", "1.0", "--out", str(tmp_path / "c6")]) == 0
        proc = run_cli_process(tmp_path, "compare", "c6.profile.json", "c6.profile.json", "--grid", "100000x100000",
                               preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: not enough memory: Unable to allocate 74.5 GiB")

    @pytest.mark.parametrize("side_bin", ["nan", "inf", "-1", "0", "1e-309"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bad_side_bin_exits_2(self, tmp_path, capsys, side_bin, weighted):
        if weighted:
            inp = tmp_path / "pts.csv"
            np.savetxt(inp, plane_sample(40, seed=0).coords, delimiter=",")
            argv = ["profile", str(inp), "--k", "5"]
        else:
            inp = tmp_path / "c6.edges"
            write_cycle(inp)
            argv = ["profile", str(inp), "-m", "1.0"]
        assert cli.main(argv + ["--side-bin", side_bin, "--out", str(tmp_path / "p")]) == 2
        assert "side bin width" in capsys.readouterr().err
        assert not (tmp_path / "p.profile.json").exists()

    def test_side_bin_on_integer_metric_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "t.edges"
        inp.write_text("0 1\n1 2\n0 2\n2 3\n")
        argv = ["profile", str(inp), "-m", "1.0", "--side-bin", "0.5", "--out", str(tmp_path / "p")]
        assert cli.main(argv) == 2
        assert "weighted metrics only" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [inp]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["profile", "{}", "-m", "1.0", "--k", "2"], "--k"),
            (["rho", "{}", "0", "1", "2", "--eps", "0.1"], "--eps"),
            (["estimate-dim", "{}", "--dims", "2", "--kmin", "3", "--kmax", "4"], "--kmin, --kmax"),
            (["profile", "{}", "-m", "1.0", "--density-k-direction", "desc"], "--density-k-direction"),
            (["embed", "{}", "--method", "isomap", "--k", "5", "--dims", "1"], "--k"),
        ],
        ids=["profile-k", "rho-eps", "estimate-dim-kmin-kmax", "profile-direction", "embed-isomap-k"],
    )
    def test_graph_rule_on_edge_list_exits_2(self, tmp_path, capsys, argv, named):
        # an edge list is already a graph: a graph rule would be recorded but never read
        inp = tmp_path / "t.edges"
        inp.write_text("0 1\n1 2\n0 2\n2 3\n")
        assert cli.main([a.format(inp) for a in argv]) == 2
        assert f"{named} applies to point clouds and metrics only" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [inp]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["profile", "{pts}", "--k", "6", "--eps", "0.01"], "--k and --eps name different graph rules"),
            (["profile", "{pts}", "--kmin", "4", "--kmax", "6", "--k", "9"],
             "--kmin/--kmax and --k name different graph rules"),
            (["estimate-dim", "{pts}", "--dims", "2", "--kmin", "4", "--kmax", "6", "--eps", "0.3"],
             "--kmin/--kmax and --eps name different graph rules"),
            (["rho", "{pts}", "0", "1", "2", "--k", "3", "--density-k-direction", "asc"],
             "--density-k-direction applies to the adaptive rule only"),
            (["profile", "{pts}", "--eps", "0.3", "--density-k-direction", "desc"],
             "--density-k-direction applies to the adaptive rule only"),
            (["profile", "{dist}", "--format", "distmatrix", "--density-k-direction", "desc"],
             "--density-k-direction applies to the adaptive rule only"),
            (["estimate-dim", "{pts}", "--dims", "2", "--kmax", "20"], "--kmin and --kmax must be given together"),
        ],
        ids=["k-eps", "adaptive-k", "adaptive-eps", "direction-k", "direction-eps", "direction-metric",
             "estimate-dim-kmax-alone"],
    )
    def test_one_graph_rule_per_run(self, tmp_path, capsys, argv, message):
        # an option the chosen rule does not read would be recorded in the config but change nothing
        pts = plane_sample(30, seed=2).coords
        np.savetxt(tmp_path / "pts.csv", pts, delimiter=",")
        np.savetxt(tmp_path / "d.csv", np.linalg.norm(pts[:, None] - pts[None], axis=-1), delimiter=",")
        before = sorted(tmp_path.iterdir())
        args = [a.format(pts=tmp_path / "pts.csv", dist=tmp_path / "d.csv") for a in argv]
        assert cli.main(args + (["--out", str(tmp_path / "o")] if argv[0] != "rho" else [])) == 2
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "argv, env, named",
        [
            (["profile", "{edges}", "--seed", "-1"], None, "--seed"),
            (["estimate-dim", "{edges}", "--dims", "2", "--seed", "-1"], None, "--seed"),
            (["generate", "--kind", "er", "--n", "10", "--seed", "-1"], None, "--seed"),
            (["generate", "--kind", "ws", "--n", "10", "--seed", "-1"], None, "--seed"),
            (["generate", "--kind", "plane", "--n", "10", "--seed", "-1"], None, "--seed"),
            (["profile", "{edges}"], "-2", "CURVPROF_SEED"),
            (["profile", "{edges}", "--workers", "0"], None, "--workers"),
            (["estimate-dim", "{edges}", "--dims", "2", "--workers", "0"], None, "--workers"),
            (["profile", "{edges}"], "0", "CURVPROF_WORKERS"),
            (["generate", "--kind", "gaussian", "--n", "20", "--dim", "2", "--extra-dims", "-2"], None,
             "extra_dims"),
            (["generate", "--kind", "dla", "--branches", "3", "--length", "5", "--noise", "-1"], None, "noise"),
            (["generate", "--kind", "dla", "--branches", "3", "--length", "5", "--noise", "nan"], None, "noise"),
            (["generate", "--kind", "circle", "--n", "10", "--radius", "0"], None, "radius"),
            (["generate", "--kind", "circle", "--n", "10", "--radius", "-1"], None, "radius"),
            (["generate", "--kind", "circle", "--n", "10", "--radius", "nan"], None, "radius"),
            # the generators' parameters are the options' names, so their refusals name what was typed
            (["generate", "--kind", "dla", "--branches", "1"], None, "need branches >= 2"),
            (["generate", "--kind", "dla", "--length", "1"], None, "need length >= 2"),
            (["generate", "--kind", "dla", "--subdim", "0"], None, "need subdim >= 1"),
            (["generate", "--kind", "gaussian", "--n", "3", "--dim", "3"], None, "need n > dim >= 1"),
            (["profile", "{pts}", "--eps", "nan"], None, "eps"),
            # an option that the kind does not read: the first one is named
            (["generate", "--kind", "tree", "--depth", "2", "--n", "7", "--seed", "3", "--avg-degree", "9"], None,
             "--n does not apply to --kind tree"),
            (["generate", "--kind", "er", "--n", "10", "--depth", "3"], None, "--depth does not apply to --kind er"),
            (["generate", "--kind", "gaussian", "--n", "20", "--noise", "0.1"], None,
             "--noise does not apply to --kind gaussian"),
            (["estimate-dim", "{edges}", "--dims", "2", "--embeddings-dir", "{edges}"], None,
             "--embeddings-dir applies to --method external only"),
        ],
        ids=["profile-seed", "estimate-dim-seed", "er-seed", "ws-seed", "plane-seed", "env-seed",
             "profile-workers", "estimate-dim-workers", "env-workers",
             "gaussian-extra-dims", "dla-negative-noise", "dla-nan-noise", "circle-zero-radius",
             "circle-negative-radius", "circle-nan-radius", "dla-branches", "dla-length", "dla-subdim",
             "gaussian-n-dim", "eps-nan", "tree-n", "er-depth", "gaussian-noise",
             "embeddings-dir-without-external"],
    )
    def test_bad_value_names_itself_and_exits_2(self, tmp_path, monkeypatch, capsys, argv, env, named):
        edges, pts = tmp_path / "t.edges", tmp_path / "pts.csv"
        edges.write_text("0 1\n1 2\n0 2\n2 3\n")
        np.savetxt(pts, plane_sample(30, seed=2).coords, delimiter=",")
        if env is not None:  # the variable is the one the message names
            monkeypatch.setenv(named, env)
        before = sorted(tmp_path.iterdir())
        args = [a.format(edges=edges, pts=pts) for a in argv]
        assert cli.main(args + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "internal error" not in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "rule, direction",
        [(["--k", "5"], None), (["--kmin", "4", "--kmax", "6"], "asc"),
         (["--kmin", "4", "--kmax", "6", "--density-k-direction", "desc"], "desc")],
        ids=["knn", "adaptive-default", "adaptive-desc"],
    )
    def test_config_records_the_direction_only_when_read(self, tmp_path, rule, direction):
        np.savetxt(tmp_path / "pts.csv", plane_sample(60, seed=2).coords, delimiter=",")
        rc = cli.main(["profile", str(tmp_path / "pts.csv"), "-m", "1.0", *rule, "--out", str(tmp_path / "p")])
        assert rc == 0
        cfg = json.loads((tmp_path / "p.profile.json").read_text())["meta"]["config"]
        assert cfg["density_k_direction"] == direction

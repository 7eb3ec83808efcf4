import json

import numpy as np
import pytest

from curvprof import cli, transport
from curvprof.generate import plane_sample


def write_cycle(path, n=6):
    path.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))


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

    def test_c6_triple(self, tmp_path, capsys):
        inp = tmp_path / "c6.edges"
        write_cycle(inp)
        rc = cli.main(["rho", str(inp), "0", "2", "4"])
        assert rc == 0
        assert "rho = 2.000000" in capsys.readouterr().out

    def test_non_equilateral_reports_lambda(self, tmp_path, capsys):
        # triangle with a tail: {0,1,3} has sides (1, 2, 2) -> lambda 1.5
        inp = tmp_path / "p.edges"
        inp.write_text("0 1\n1 2\n0 2\n2 3\n")
        rc = cli.main(["rho", str(inp), "0", "1", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lambda = 1.500000" in out
        assert "rho =" in out

    def test_cross_component_exits_2(self, tmp_path):
        inp = tmp_path / "two.edges"
        inp.write_text("0 1\n2 3\n")
        assert cli.main(["rho", str(inp), "0", "1", "2"]) == 2

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

    def test_generate_then_profile_roundtrip(self, tmp_path):
        out = tmp_path / "net.edges"
        assert cli.main(["generate", "--kind", "ws", "--n", "80", "--k", "4", "--beta", "0.1", "--out", str(out)]) == 0
        assert cli.main(["profile", str(out), "-m", "1.0", "--out", str(tmp_path / "net")]) == 0


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
        ],
        ids=["nan-r", "inf-r", "negative-r", "all-r-zero", "nan-rho", "rho-7", "rho-values-string"],
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

    @pytest.mark.parametrize("blobs", [(30, 12), (30,)])
    def test_isomap_report_names_the_kept_rows(self, tmp_path, blobs):
        rng = np.random.default_rng(4)
        # far-apart blobs give a disconnected kNN graph; the larger one is kept
        coords = np.vstack([rng.normal(size=(n, 2)) + 100.0 * b for b, n in enumerate(blobs)])
        order = rng.permutation(len(coords))
        inp = tmp_path / "two.csv"
        np.savetxt(inp, coords[order], delimiter=",")
        argv = ["embed", str(inp), "--method", "isomap", "--k", "4", "--dims", "2", "--out", str(tmp_path / "two")]
        if len(blobs) > 1:
            with pytest.warns(UserWarning, match="largest component"):
                assert cli.main(argv) == 0
        else:
            assert cli.main(argv) == 0
        report = json.loads((tmp_path / "two.embed.json").read_text())
        if len(blobs) == 1:
            assert report["kept_indices"] is None
            return
        assert report["kept_indices"] == np.flatnonzero(order < blobs[0]).tolist()
        assert np.loadtxt(tmp_path / "two.d2.csv", delimiter=",").shape == (blobs[0], 2)


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

    @pytest.mark.parametrize("var", ["CURVPROF_SEED", "CURVPROF_WORKERS"])
    def test_non_integer_env_value_exits_2(self, tmp_path, monkeypatch, capsys, var):
        monkeypatch.setenv(var, "abc")
        inp = tmp_path / "c.edges"
        write_cycle(inp, 12)
        assert cli.main(["profile", str(inp), "--out", str(tmp_path / "p")]) == 2
        assert var in capsys.readouterr().err


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
        transport._transport.cache_clear()
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
        # every candidate is still scored; only distinct unequal pairs reach the LP
        assert len(pairs) == 7
        distinct = {pair for pair in pairs if len(pair) == 2}
        assert len(solves) == len(distinct) < len(pairs)


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
        assert cli._parse_dims("1-4") == [1, 2, 3, 4]
        assert cli._parse_dims("2,5,3") == [2, 3, 5]
        with pytest.raises(Exception):
            cli._parse_dims("0")

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

    @pytest.mark.parametrize("side_bin", ["nan", "inf", "-1", "0"])
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

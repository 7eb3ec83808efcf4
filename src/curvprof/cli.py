"""Command-line front end: profile, rho, embed, compare, estimate-dim, generate.

Every run resolves its full configuration (including the seed) and embeds
it in all outputs, so any result file can be reproduced from its own
metadata. Exit codes: 0 success, 2 input error, 3 empty result, 4 internal
error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import embed as embed_mod
from . import generate as gen_mod
from .graphs import PointCloud, adaptive_graph, epsilon_graph, knn_graph
from .metric import (
    EmptyResultError,
    Graph,
    InputError,
    _read_csv,
    distance_matrix_from_array,
    gromov_products,
    lambda_measure,
    load_edge_list,
    shortest_path_matrix,
)
from .profile import (
    RHO_CIRCLE,
    RHO_PLANE,
    RHO_TREE,
    build_profile,
    load_profile_json,
    rho_general,
    rho_minmax,
    save_profile_json,
    write_long_csv,
    write_summary_csv,
)
from .transport import GridSpec, estimate_dimension, to_distribution, wasserstein1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_INTERNAL = 4

EDGE_EXTENSIONS = {".edges", ".edgelist", ".txt", ".tsv"}


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"environment variable {name}={raw!r} is not an integer") from None


def _looks_square_metric(arr):
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        return False
    return (
        np.allclose(np.diag(arr), 0.0, atol=1e-12)
        and np.allclose(arr, arr.T, rtol=1e-9, atol=1e-12)
        and np.all(arr >= 0)
    )


def load_input(path, fmt=None):
    """Load an input file as ('graph'|'dist'|'points', object).

    Auto-detection: edge-list extensions parse as edge lists; CSVs become a
    distance matrix when square/symmetric/zero-diagonal and a point cloud
    otherwise. ``fmt`` overrides detection.
    """
    if fmt is None and Path(path).suffix.lower() in EDGE_EXTENSIONS:
        fmt = "edgelist"
    if fmt == "edgelist":
        return "graph", load_edge_list(path)
    if fmt not in (None, "distmatrix", "points"):
        raise InputError(f"unknown format {fmt!r}")
    arr = _read_csv(path)
    if fmt == "distmatrix" or (fmt is None and _looks_square_metric(arr)):
        return "dist", distance_matrix_from_array(arr)
    return "points", PointCloud(coords=arr)


def _build_graph(data, args):
    """Apply the requested neighborhood rule to a point cloud or precomputed metric."""
    if args.kmin is not None or args.kmax is not None:
        if args.kmin is None or args.kmax is None:
            raise InputError("--kmin and --kmax must be given together")
        return adaptive_graph(data, args.kmin, args.kmax, direction=args.density_k_direction)
    if args.k is not None:
        return knn_graph(data, args.k)
    if args.eps is not None:
        return epsilon_graph(data, args.eps)
    raise InputError("point-cloud input needs a graph rule: --k, --kmin/--kmax, or --eps")


def _metric_from_input(kind, data, args):
    """Route any input to the DistanceMatrix that profile and rho run on."""
    if kind == "dist" and all(v is None for v in (args.k, args.kmin, args.kmax, args.eps)):
        return data
    return shortest_path_matrix(data if kind == "graph" else _build_graph(data, args))


def _resolved_config(args, command):
    # workers is an execution detail: results are independent of it, so it
    # stays out of the reproducibility record
    skip = {"func", "workers"}
    cfg = {"command": command}
    for key, val in sorted(vars(args).items()):
        if key in skip or callable(val):
            continue
        if isinstance(val, Path):
            val = str(val)
        cfg[key] = val
    return cfg


def _config_comment(cfg):
    return "config: " + json.dumps(cfg, sort_keys=True)


def _parse_dims(spec):
    dims = set()
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, sep, hi = chunk.partition("-")
        try:
            dims.update(range(int(lo), int(hi if sep else lo) + 1))
        except ValueError as exc:
            raise InputError(f"--dims must look like '1-8' or '2,3,5', got {spec!r}") from exc
    if not dims:
        raise InputError(f"no dimensions parsed from {spec!r}")
    if min(dims) < 1:
        raise InputError("dimensions must be >= 1")
    return sorted(dims)


def _parse_grid(spec):
    m = re.fullmatch(r"(\d+)x(\d+)", spec)
    if not m:
        raise InputError(f"grid must look like '50x50', got {spec!r}")
    return GridSpec(nr=int(m.group(1)), nrho=int(m.group(2)))


def _parse_cluster_sample(spec):
    if spec is None:
        return None
    m = re.fullmatch(r"(\d+),(\d+)", spec)
    if not m:
        raise InputError(f"--cluster-sample must look like 'K,N', got {spec!r}")
    return int(m.group(1)), int(m.group(2))


# -- subcommands -------------------------------------------------------------


def cmd_profile(args):
    kind, data = load_input(args.input, args.format)
    D = _metric_from_input(kind, data, args)
    cfg = _resolved_config(args, "profile")
    graph_params = data.params if isinstance(data, Graph) else None
    profile = build_profile(
        D,
        m=args.m,
        seed=args.seed,
        h=args.side_bin,
        workers=args.workers,
        typical="median" if args.median else "mean",
        cluster_sample=_parse_cluster_sample(args.cluster_sample),
        extra_meta={"config": cfg, "graph_params": graph_params, "input_kind": kind},
    )
    out = Path(args.out) if args.out else Path(args.input).with_suffix("")
    json_path = Path(f"{out}.profile.json")
    save_profile_json(profile, json_path)
    comment = _config_comment(cfg)
    write_long_csv(profile, f"{out}.long.csv", header_comment=comment)
    write_summary_csv(profile, f"{out}.summary.csv", header_comment=comment)
    if args.gnuplot_script:
        _write_gnuplot_script(f"{out}.gp", f"{out}.summary.csv")
    print(f"wrote {json_path}, {out}.long.csv, {out}.summary.csv")
    if profile.is_empty:
        print("profile is empty: no equilateral triples at any scale", file=sys.stderr)
        return EXIT_EMPTY
    for rec in profile.records:
        print(f"r={rec.r:g} count={rec.count} rho={rec.mean_rho:.6f}")
    return EXIT_OK


def _write_gnuplot_script(path, summary_csv):
    lines = [
        "set datafile separator ','",
        "set xlabel 'r'",
        "set ylabel 'rho'",
        "set yrange [0.9:2.1]",
        f"rho_tree = {RHO_TREE!r}",
        f"rho_plane = {RHO_PLANE!r}",
        f"rho_circle = {RHO_CIRCLE!r}",
        "plot \\",
        f"  '{summary_csv}' using 1:3 with points pt 7 title 'mean rho', \\",
        "  rho_tree with lines dt 2 lc 'gold' title 'tree', \\",
        "  rho_plane with lines dt 2 lc 'purple' title 'plane', \\",
        "  rho_circle with lines dt 2 lc 'red' title 'circle'",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_rho(args):
    D = _metric_from_input(*load_input(args.input, args.format), args)
    v1, v2, v3 = args.vertices
    for v in (v1, v2, v3):
        if not (0 <= v < D.n):
            raise InputError(f"vertex {v} out of range (n={D.n})")
    if len({v1, v2, v3}) != 3:
        raise InputError("need three distinct vertices")
    if not D.is_connected_triple(v1, v2, v3):
        raise InputError("triple spans disconnected components (sentinel distance)")
    d12, d13, d23 = D.d[v1, v2], D.d[v1, v3], D.d[v2, v3]
    g = gromov_products(d12, d13, d23)
    shape = lambda_measure(d12, d13, d23)
    rho, witness = rho_general(D, v1, v2, v3)
    print(f"d({v1},{v2}) = {d12:g}   d({v1},{v3}) = {d13:g}   d({v2},{v3}) = {d23:g}")
    print(f"gromov products: r1 = {g.r1:g}, r2 = {g.r2:g}, r3 = {g.r3:g}")
    print(f"lambda = {shape.lam:.6f}"
          + ("  (equilateral)" if shape.is_equilateral else "")
          + ("  (degenerate)" if shape.is_degenerate else ""))
    print(f"rho = {rho:.6f}   witness vertex = {witness}")
    if shape.is_equilateral:
        rhos, witnesses = rho_minmax(D, [sorted((v1, v2, v3))])
        print(f"equilateral min-max rho = {rhos[0]:.6f}   witness = {witnesses[0]}")
    return EXIT_OK


def cmd_embed(args):
    kind, data = load_input(args.input, args.format)
    dims = _parse_dims(args.dims)
    cfg = _resolved_config(args, "embed")
    out = Path(args.out) if args.out else Path(args.input).with_suffix("")
    if args.method == "mds":
        full = embed_mod.classical_mds(shortest_path_matrix(data) if kind == "graph" else data, dims[-1])
    elif kind != "graph" and args.k is None:
        raise InputError("isomap on a point cloud or metric needs --k")
    else:
        full = embed_mod.isomap(data, k=args.k or 0, d=dims[-1])
    kept = full.kept_indices
    report = {"config": cfg, "dimensions": {}, "kept_indices": None if kept is None else kept.tolist()}
    for d in dims:
        res = embed_mod._leading(full, d)
        path = f"{out}.d{d}.csv"
        np.savetxt(path, res.points.coords, delimiter=",")
        report["dimensions"][str(d)] = {
            "file": path,
            "stress": res.stress,
            "n_clamped": res.n_clamped,
            "top_eigenvalues": [float(x) for x in res.eigenvalues[: min(10, len(res.eigenvalues))]],
        }
        print(f"d={d}: wrote {path} (stress {res.stress:.4f})")
    with open(f"{out}.embed.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def cmd_compare(args):
    pa = load_profile_json(args.profile_a)
    pb = load_profile_json(args.profile_b)
    grid = _parse_grid(args.grid)
    if args.no_normalize_r:
        # raw r keeps the profiles' units, so the r axis must reach the largest
        # r of either profile (an empty profile fails in to_distribution below)
        max_r = max((p.max_r() for p in (pa, pb) if not p.is_empty), default=1.0)
        grid = replace(grid, r_range=(0.0, max_r))
    da = to_distribution(pa, grid, normalize_r=not args.no_normalize_r)
    db = to_distribution(pb, grid, normalize_r=not args.no_normalize_r)
    cost, flows = wasserstein1(da, db, return_plan=True)
    payload = {
        "w1": cost,
        "grid": grid.to_dict(),
        "plan_summary": {
            "n_flows": len(flows),
            "max_flow": max((f[2] for f in flows), default=0.0),
        },
        "config": _resolved_config(args, "compare"),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"w1 = {cost!r}")
    return EXIT_OK


def _external_embeddings(directory, dims, expected_n):
    found = {}
    for path in sorted(Path(directory).glob("*.csv")):
        m = re.search(r"d(\d+)\.csv$", path.name)
        if not m:
            continue
        found[int(m.group(1))] = path
    missing = [d for d in dims if d not in found]
    if missing:
        raise InputError(f"no embedding CSV (named like 'xxx_d3.csv') for dimensions {missing}")
    return {d: embed_mod.load_external_embedding(found[d], expected_n=expected_n) for d in dims}


def cmd_estimate_dim(args):
    kind, data = load_input(args.input, args.format)
    if kind == "points" and args.k is None and args.kmin is None and args.eps is None:
        args.kmin, args.kmax = 10, 15  # adaptive default for the original side
    D0 = _metric_from_input(kind, data, args)
    cfg = _resolved_config(args, "estimate-dim")
    dims = _parse_dims(args.dims)
    grid = _parse_grid(args.grid)
    embed_k = args.embed_k if args.embed_k is not None else (args.kmin or args.k or 10)

    original = build_profile(D0, m=args.m, seed=args.seed, h=args.side_bin, workers=args.workers)
    if original.is_empty:
        raise EmptyResultError("original profile is empty")

    if args.method == "external":
        if not args.embeddings_dir:
            raise InputError("--method external needs --embeddings-dir")
        clouds = _external_embeddings(args.embeddings_dir, dims, D0.n)
    else:
        if args.method == "mds":
            # re-embed the dataset's own metric, not the profile graph
            full = embed_mod.classical_mds(D0 if kind == "graph" else data, dims[-1])
        else:
            full = embed_mod.isomap(data, k=embed_k, d=dims[-1])
        clouds = {d: embed_mod._leading(full, d).points for d in dims}

    profiles = {}
    for d, cloud in clouds.items():
        g = knn_graph(cloud, embed_k)
        Dd = shortest_path_matrix(g)
        profiles[d] = build_profile(Dd, m=args.m, seed=args.seed, workers=args.workers)

    d_best, curve = estimate_dimension(original, profiles, grid=grid, on_empty=args.on_empty)
    for d, w1 in curve:
        if w1 == float("inf"):
            print(f"note: dimension {d} produced no equilateral structure (w1 = inf)", file=sys.stderr)
    out = Path(args.out) if args.out else Path(args.input).with_suffix("")
    with open(f"{out}.dimcurve.csv", "w") as fh:
        fh.write(f"# {_config_comment(cfg)}\n")
        fh.write("d,w1\n")
        for d, w1 in curve:
            fh.write(f"{d},{w1!r}\n")
    with open(f"{out}.dim.json", "w") as fh:
        json.dump(
            {"d_best": d_best, "curve": [[d, w] for d, w in curve], "config": cfg},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    for d, w1 in curve:
        print(f"d={d} w1={w1:.6g}")
    print(f"d_best = {d_best}")
    return EXIT_OK


def cmd_generate(args):
    seed = args.seed
    out = Path(args.out)
    kind = args.kind
    if kind == "er":
        g = gen_mod.erdos_renyi(args.n, args.avg_degree, seed=seed)
        _write_edge_list(g, out)
    elif kind == "ws":
        g = gen_mod.watts_strogatz(args.n, args.k, args.beta, seed=seed)
        _write_edge_list(g, out)
    elif kind == "tree":
        g = gen_mod.tree_graph(args.branching, args.depth)
        _write_edge_list(g, out)
    elif kind == "circle":
        D = gen_mod.circle_sample(args.n, seed=seed, radius=args.radius)
        np.savetxt(out, D.d, delimiter=",")
    elif kind == "plane":
        cloud = gen_mod.plane_sample(args.n, seed=seed)
        np.savetxt(out, cloud.coords, delimiter=",")
    elif kind == "dla":
        cloud = gen_mod.dla_tree(
            args.branches,
            args.length,
            args.subdim,
            seed=seed,
            length_jitter=args.length_jitter,
            noise=args.noise,
        )
        np.savetxt(out, cloud.coords, delimiter=",")
    elif kind == "gaussian":
        low, high = gen_mod.gaussian_isometric(args.n, args.dim, seed=seed, extra_dims=args.extra_dims)
        np.savetxt(f"{out}.low.csv", low.coords, delimiter=",")
        np.savetxt(f"{out}.high.csv", high.coords, delimiter=",")
        print(f"wrote {out}.low.csv and {out}.high.csv")
        return EXIT_OK
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown kind {kind}")
    print(f"wrote {out}")
    return EXIT_OK


def _write_edge_list(g: Graph, path):
    with open(path, "w") as fh:
        fh.write(f"# generated: {json.dumps(g.params, sort_keys=True)}\n")
        for i, j, w in g.edges:
            if w == 1.0:
                fh.write(f"{i} {j}\n")
            else:
                fh.write(f"{i} {j} {w!r}\n")


# -- argument parsing --------------------------------------------------------


def _add_input_opts(p):
    p.add_argument("--k", type=int, default=None, help="vanilla kNN neighbor count")
    p.add_argument("--format", choices=("edgelist", "distmatrix", "points"), default=None,
                   help="override input auto-detection")


def _add_graph_opts(p):
    _add_input_opts(p)
    p.add_argument("--kmin", type=int, default=None, help="adaptive rule minimum k")
    p.add_argument("--kmax", type=int, default=None, help="adaptive rule maximum k")
    p.add_argument("--eps", type=float, default=None, help="epsilon-ball radius")
    p.add_argument(
        "--density-k-direction",
        choices=("asc", "desc"),
        default="asc",
        help="denser points get larger k (asc, default) or smaller (desc)",
    )


def _add_profile_opts(p):
    p.add_argument("-m", type=float, default=0.1, help="per-scale sample fraction (default 0.1)")
    p.add_argument("--seed", type=int, default=_env_int("CURVPROF_SEED", 0))
    p.add_argument("--workers", type=int, default=_env_int("CURVPROF_WORKERS", os.cpu_count() or 1))


def build_parser():
    parser = argparse.ArgumentParser(prog="curvprof", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="compute a curvature profile")
    p.add_argument("input")
    _add_graph_opts(p)
    _add_profile_opts(p)
    p.add_argument("--side-bin", type=float, default=None,
                   help="side bin width; weighted metrics only (default diameter/50)")
    p.add_argument("--median", action="store_true", help="report per-scale median instead of mean")
    p.add_argument("--cluster-sample", default=None, metavar="K,N",
                   help="hybrid variant: restrict triples to N sampled vertices per each of K clusters (untuned)")
    p.add_argument("--out", default=None, help="output prefix (default: input stem)")
    p.add_argument("--gnuplot-script", action="store_true", help="also write a .gp plot script")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("rho", help="inspect a single vertex triple")
    p.add_argument("input")
    p.add_argument("vertices", type=int, nargs=3, metavar="V")
    _add_graph_opts(p)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("embed", help="classical MDS / Isomap embeddings")
    p.add_argument("input")
    p.add_argument("--method", choices=("mds", "isomap"), default="mds")
    p.add_argument("--dims", required=True, help="e.g. '2,3' or '1-8'")
    _add_input_opts(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("compare", help="W1 distance between two profile JSONs")
    p.add_argument("profile_a")
    p.add_argument("profile_b")
    p.add_argument("--grid", default="50x50")
    p.add_argument("--no-normalize-r", action="store_true",
                   help="compare raw r on an axis from 0 to the largest r of either profile, "
                        "instead of dividing each profile's r by its own largest r")
    p.add_argument("--out", default=None, help="write the comparison JSON here")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("estimate-dim", help="intrinsic-dimension estimate from the W1 curve")
    p.add_argument("input")
    p.add_argument("--method", choices=("mds", "isomap", "external"), default="mds")
    p.add_argument("--dims", default="1-8")
    p.add_argument("--embeddings-dir", default=None, help="external embedding CSVs named like xxx_d3.csv")
    p.add_argument("--embed-k", type=int, default=None,
                   help="k for the embedding-side vanilla graph (default: kmin)")
    p.add_argument("--on-empty", choices=("inf", "error"), default="inf",
                   help="score embeddings with no equilateral structure as w1=inf (default) or fail")
    p.add_argument("--grid", default="50x50")
    _add_graph_opts(p)
    _add_profile_opts(p)
    p.add_argument("--side-bin", type=float, default=None,
                   help="side bin width of the input's profile; weighted metrics only (default "
                        "diameter/50); embedded profiles always use their own diameter/50")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate_dim)

    p = sub.add_parser("generate", help="seeded synthetic datasets")
    p.add_argument("--kind", required=True,
                   choices=("er", "ws", "circle", "plane", "tree", "dla", "gaussian"))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=_env_int("CURVPROF_SEED", 0))
    p.add_argument("--n", type=int, default=1000, help="node/point count (er, ws, circle, plane, gaussian)")
    p.add_argument("--avg-degree", type=float, default=4.0, help="er: expected degree")
    p.add_argument("--k", type=int, default=4, help="ws: lattice neighbors (even)")
    p.add_argument("--beta", type=float, default=0.1, help="ws: rewiring probability")
    p.add_argument("--radius", type=float, default=1.0, help="circle: radius")
    p.add_argument("--branching", type=int, default=2, help="tree: children per node")
    p.add_argument("--depth", type=int, default=8, help="tree: depth")
    p.add_argument("--branches", type=int, default=10, help="dla: branch count")
    p.add_argument("--length", type=int, default=300, help="dla: nodes per branch")
    p.add_argument("--subdim", type=int, default=1, help="dla: dimensions per branch block")
    p.add_argument("--length-jitter", type=float, default=0.0, help="dla: relative branch-length jitter")
    p.add_argument("--noise", type=float, default=0.0, help="dla: Gaussian coordinate noise")
    p.add_argument("--dim", type=int, default=3, help="gaussian: intrinsic dimension")
    p.add_argument("--extra-dims", type=int, default=50, help="gaussian: ambient lift = dim + extra")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None):
    try:
        # the parser's defaults read CURVPROF_SEED / CURVPROF_WORKERS
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EmptyResultError as exc:
        print(f"empty result: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

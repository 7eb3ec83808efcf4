"""Command-line front end: profile, rho, embed, compare, estimate-dim, generate.

Every run resolves its full configuration (including the seed) and embeds
it in all outputs, so any result file can be reproduced from its own
metadata. Exit codes: 0 success, 2 input error (a refused allocation
included), 3 empty result, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import embed as embed_mod
from . import generate as gen_mod
from .graphs import PointCloud, adaptive_graph, epsilon_graph, knn_graph, load_input
from .metric import (
    DistanceMatrix,
    EmptyResultError,
    Graph,
    InputError,
    gromov_products,
    lambda_measure,
    shortest_path_matrix,
)
from .profile import (
    RHO_CIRCLE,
    RHO_PLANE,
    RHO_TREE,
    _write_csv,
    _write_json,
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


def _nonnegative_int(raw, name, low=0):
    """``raw`` as an integer >= ``low`` (0 or 1), else an InputError naming ``name``; numpy takes no negative seed."""
    try:
        value = int(raw)
    except ValueError:
        value = low - 1
    if value < low:
        raise InputError(f"{name} must be a {'positive' if low else 'non-negative'} integer, got {raw!r}")
    return value


def _env_default(name, default):
    # None when the variable is set: main parses it then, for the subcommands that take the option
    return None if name in os.environ else default


def _build_graph(data, args):
    """Apply the one neighborhood rule the options name to a point cloud or precomputed metric."""
    adaptive = args.kmin is not None or args.kmax is not None
    rules = {"--kmin/--kmax": adaptive, "--k": args.k is not None, "--eps": args.eps is not None}
    named = [opt for opt, given in rules.items() if given]
    if len(named) > 1:
        raise InputError(f"{' and '.join(named)} name different graph rules: give one")
    if args.density_k_direction is not None and not adaptive:
        raise InputError("--density-k-direction applies to the adaptive rule only: give --kmin and --kmax")
    if adaptive:
        if args.kmin is None or args.kmax is None:
            raise InputError("--kmin and --kmax must be given together")
        # the config records the direction the rule read
        args.density_k_direction = args.density_k_direction or "asc"
        return adaptive_graph(data, args.kmin, args.kmax, direction=args.density_k_direction)
    if args.k is not None:
        return knn_graph(data, args.k)
    if args.eps is not None:
        return epsilon_graph(data, args.eps)
    raise InputError("point-cloud input needs a graph rule: --k, --kmin/--kmax, or --eps")


def _metric_from_input(kind, data, args):
    """Route any input to the DistanceMatrix that profile and rho run on (an edge list takes no graph rule)."""
    given = [f"--{name.replace('_', '-')}" for name in ("k", "kmin", "kmax", "eps", "density_k_direction")
             if getattr(args, name) is not None]
    if kind == "graph" and given:
        raise InputError(f"{', '.join(given)} applies to point clouds and metrics only; "
                         "this input is an edge list")
    if kind == "dist" and not given:
        return data
    return shortest_path_matrix(data if kind == "graph" else _build_graph(data, args))


def _resolved_config(args):
    # workers is an execution detail: results are independent of it, so it
    # stays out of the reproducibility record; the subcommand is args.command
    skip = {"func", "workers"}
    return {key: val for key, val in sorted(vars(args).items()) if key not in skip and not callable(val)}


def _config_comment(cfg):
    return "config: " + json.dumps(cfg, sort_keys=True)


def _parse_dims(spec, n):
    """The dimensions ``spec`` names, sorted; each bound is checked to lie in [1, n) before its range is built."""
    dims = set()
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, sep, hi = chunk.partition("-")
        try:
            lo, hi = int(lo), int(hi if sep else lo)
        except ValueError as exc:
            raise InputError(f"--dims must look like '1-8' or '2,3,5', got {spec!r}") from exc
        for bound in (lo, hi):
            if not 1 <= bound < n:
                raise InputError(f"--dims: dimension {bound} must satisfy 1 <= d < n={n}")
        dims.update(range(lo, hi + 1))
    if not dims:
        raise InputError(f"no dimensions parsed from {spec!r}")
    return sorted(dims)


def _parse_grid(spec, r_max=None):
    m = re.fullmatch(r"(\d+)x(\d+)", spec)
    if not m:
        raise InputError(f"grid must look like '50x50', got {spec!r}")
    return GridSpec(nr=int(m.group(1)), nrho=int(m.group(2)), r_max=r_max)


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
    cfg = _resolved_config(args)
    graph_params = {"source": args.input} if kind == "graph" else None
    profile = build_profile(
        D,
        m=args.m,
        seed=args.seed,
        h=args.side_bin,
        workers=args.workers,
        typical="median" if args.median else "mean",
        cluster_sample=_parse_cluster_sample(args.cluster_sample),
    )
    profile["meta"].update(config=cfg, graph_params=graph_params, input_kind=kind)
    out = Path(args.out) if args.out else Path(args.input).with_suffix("")
    json_path = Path(f"{out}.profile.json")
    save_profile_json(profile, json_path)
    comment = _config_comment(cfg)
    write_long_csv(profile, f"{out}.long.csv", header_comment=comment)
    write_summary_csv(profile, f"{out}.summary.csv", header_comment=comment)
    if args.gnuplot_script:
        _write_gnuplot_script(f"{out}.gp", f"{out}.summary.csv")
    print(f"wrote {json_path}, {out}.long.csv, {out}.summary.csv")
    if not profile["records"]:
        print("profile is empty: no equilateral triples at any scale", file=sys.stderr)
        return EXIT_EMPTY
    for rec in profile["records"]:
        print(f"r={rec['r']:g} count={rec['count']} rho={rec['mean_rho']:.6f}")
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
    # first: it refuses a triple across components or one that breaks the triangle inequality
    rho, witness = rho_general(D, v1, v2, v3)
    d12, d13, d23 = D.d[v1, v2], D.d[v1, v3], D.d[v2, v3]
    r1, r2, r3 = gromov_products(d12, d13, d23)
    lam, degenerate, equilateral = lambda_measure(d12, d13, d23)
    print(f"d({v1},{v2}) = {d12:g}   d({v1},{v3}) = {d13:g}   d({v2},{v3}) = {d23:g}")
    print(f"gromov products: r1 = {r1:g}, r2 = {r2:g}, r3 = {r3:g}")
    print(f"lambda = {lam:.6f}"
          + ("  (equilateral)" if equilateral else "")
          + ("  (degenerate)" if degenerate else ""))
    print(f"rho = {rho:.6f}   witness vertex = {witness}")
    if equilateral:
        rhos, witnesses = rho_minmax(D, [sorted((v1, v2, v3))])
        print(f"equilateral min-max rho = {rhos[0]:.6f}   witness = {witnesses[0]}")
    return EXIT_OK


def cmd_embed(args):
    kind, data = load_input(args.input, args.format)
    dims = _parse_dims(args.dims, data.n)
    cfg = _resolved_config(args)
    out = Path(args.out) if args.out else Path(args.input).with_suffix("")
    if args.method == "mds":
        if args.k is not None:
            raise InputError("--k is the Isomap neighbour count; --method mds reads none")
        coords, evals = embed_mod.classical_mds(shortest_path_matrix(data) if kind == "graph" else data, dims[-1])
        kept = None
    elif kind == "graph" and args.k is not None:
        raise InputError("--k applies to point clouds and metrics only; this input is an edge list")
    elif kind != "graph" and args.k is None:
        raise InputError("isomap on a point cloud or metric needs --k")
    else:
        coords, evals, kept = embed_mod.isomap(data, k=args.k or 0, d=dims[-1])
    report = {"config": cfg, "dimensions": {}, "kept_indices": None if kept is None else kept.tolist()}
    # stress: the share of absolute spectral mass the first d axes do not carry
    # (0 for an exactly d-realizable metric); n_clamped: negative eigenvalues among them
    total_mass = float(np.abs(evals).sum())
    for d in dims:
        carried = float(np.maximum(evals[:d], 0.0).sum())
        stress = 0.0 if total_mass == 0 else max(0.0, (total_mass - carried) / total_mass)
        path = f"{out}.d{d}.csv"
        np.savetxt(path, coords[:, :d], delimiter=",")
        report["dimensions"][str(d)] = {
            "file": path,
            "stress": stress,
            "n_clamped": int(np.sum(evals[:d] < 0)),
            "top_eigenvalues": evals[:10].tolist(),
        }
        print(f"d={d}: wrote {path} (stress {stress:.4f})")
    _write_json(f"{out}.embed.json", report)
    return EXIT_OK


def cmd_compare(args):
    pa = load_profile_json(args.profile_a)
    pb = load_profile_json(args.profile_b)
    # raw r keeps the profiles' units, so the r axis must reach the largest
    # r of either profile (an empty profile fails in to_distribution below)
    r_max = max((rec["r"] for p in (pa, pb) for rec in p["records"]), default=1.0) if args.no_normalize_r else None
    grid = _parse_grid(args.grid, r_max)
    cost, plan = wasserstein1(to_distribution(pa, grid), to_distribution(pb, grid), return_plan=True)
    payload = {
        "w1": cost,
        "grid": grid.to_dict(),
        "plan_summary": {
            "n_flows": int(np.count_nonzero(plan > 1e-15)),
            "max_flow": float(plan.max()),
        },
        "config": _resolved_config(args),
    }
    if args.out:
        _write_json(args.out, payload)
    print(f"w1 = {cost!r}")
    return EXIT_OK


def _external_embeddings(directory, dims, expected_n):
    """The point cloud of each of ``dims``: the one CSV in ``directory`` named for it, of ``expected_n`` rows."""
    found = {}
    for path in sorted(Path(directory).glob("*.csv")):
        m = re.search(r"d(\d+)\.csv$", path.name)
        d = int(m.group(1)) if m else None
        if d in found:
            raise InputError(f"{found[d]} and {path} both name dimension {d}")
        if d in dims:
            found[d] = path
    missing = [d for d in dims if d not in found]
    if missing:
        raise InputError(f"no embedding CSV (named like 'xxx_d3.csv') for dimensions {missing}")
    clouds = {d: load_input(found[d], "points")[1] for d in dims}
    for d, cloud in clouds.items():
        if cloud.n != expected_n:
            raise InputError(f"{found[d]}: embedding has {cloud.n} rows but the dataset has {expected_n} points")
    return clouds


def cmd_estimate_dim(args):
    if args.embeddings_dir is not None and args.method != "external":
        raise InputError("--embeddings-dir applies to --method external only")
    if args.method == "external" and not args.embeddings_dir:
        raise InputError("--method external needs --embeddings-dir")
    kind, data = load_input(args.input, args.format)
    if kind == "points" and all(getattr(args, o) is None for o in ("k", "kmin", "kmax", "eps")):
        args.kmin, args.kmax = 10, 15  # adaptive default for the original side
    D0 = _metric_from_input(kind, data, args)
    cfg = _resolved_config(args)
    dims = _parse_dims(args.dims, D0.n)
    grid = _parse_grid(args.grid)
    embed_k = args.embed_k if args.embed_k is not None else (args.kmin or args.k or 10)
    if not 1 <= embed_k < D0.n:
        raise InputError(f"--embed-k (default --kmin, --k or 10) is {embed_k}; "
                         f"it must satisfy 1 <= k < n={D0.n}")

    original = build_profile(D0, m=args.m, seed=args.seed, h=args.side_bin, workers=args.workers)
    if not original["records"]:
        raise EmptyResultError("original profile is empty")

    if args.method == "external":
        clouds = _external_embeddings(args.embeddings_dir, dims, D0.n)
    else:
        if args.method == "mds":
            # re-embed the dataset's own metric, not the profile graph
            coords = embed_mod.classical_mds(D0 if kind == "graph" else data, dims[-1])[0]
        else:
            coords = embed_mod.isomap(data, k=embed_k, d=dims[-1])[0]
        clouds = {d: PointCloud(coords=coords[:, :d]) for d in dims}

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
    _write_csv(f"{out}.dimcurve.csv", _config_comment(cfg), "d,w1", (f"{d},{w1!r}\n" for d, w1 in curve))
    _write_json(f"{out}.dim.json", {"d_best": d_best, "curve": [[d, w] for d, w in curve], "config": cfg})
    for d, w1 in curve:
        print(f"d={d} w1={w1:.6g}")
    print(f"d_best = {d_best}")
    return EXIT_OK


# each kind's generator in curvprof.generate and the defaults of the options it reads, keyed
# by the generator's parameters; --out applies to every kind, --seed to those that list it
_KINDS = {
    "er": ("erdos_renyi", {"n": 1000, "avg_degree": 4.0, "seed": 0}),
    "ws": ("watts_strogatz", {"n": 1000, "k": 4, "beta": 0.1, "seed": 0}),
    "circle": ("circle_sample", {"n": 1000, "radius": 1.0, "seed": 0}),
    "plane": ("plane_sample", {"n": 1000, "seed": 0}),
    "tree": ("tree_graph", {"branching": 2, "depth": 8}),
    "dla": ("dla_tree", {"branches": 10, "length": 300, "subdim": 1, "length_jitter": 0.0, "noise": 0.0, "seed": 0}),
    "gaussian": ("gaussian_isometric", {"n": 1000, "dim": 3, "extra_dims": 50, "seed": 0}),
}


def cmd_generate(args):
    name, defaults = _KINDS[args.kind]
    given = {opt: value for opt, value in vars(args).items() if value is not None}
    for opt in given:
        if opt not in (*defaults, "command", "func", "kind", "out", "seed"):
            raise InputError(f"--{opt.replace('_', '-')} does not apply to --kind {args.kind}")
    params = {opt: given.get(opt, value) for opt, value in defaults.items()}
    # looked up when called, so a wrapper put on the module after import is the one that runs
    made = getattr(gen_mod, name)(**params)
    print(f"wrote {_write_generated(made, Path(args.out), {'kind': args.kind, **params})}")
    return EXIT_OK


def _write_generated(made, out, generated):
    """Write a generator's result by its type (a Graph's edges all weigh 1); returns what stdout names."""
    if isinstance(made, Graph):
        with open(out, "w") as fh:
            fh.write(f"# generated: {json.dumps(generated, sort_keys=True)}\n")
            fh.writelines(f"{i} {j}\n" for i, j in zip(made.i.tolist(), made.j.tolist()))
        return out
    if isinstance(made, tuple):
        for part, cloud in zip(("low", "high"), made):
            np.savetxt(f"{out}.{part}.csv", cloud.coords, delimiter=",")
        return f"{out}.low.csv and {out}.high.csv"
    np.savetxt(out, made.d if isinstance(made, DistanceMatrix) else made.coords, delimiter=",")
    return out


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
        default=None,
        help="adaptive rule: denser points get larger k (asc, default) or smaller (desc)",
    )


def _add_profile_opts(p):
    p.add_argument("-m", type=float, default=0.1, help="per-scale sample fraction (default 0.1)")
    p.add_argument("--seed", type=int, default=_env_default("CURVPROF_SEED", 0))
    p.add_argument("--workers", type=int, default=_env_default("CURVPROF_WORKERS", 1),
                   help="threads for the per-scale triangle searches (default 1)")


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
    p.add_argument("--kind", required=True, choices=tuple(_KINDS))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=_env_default("CURVPROF_SEED", 0))
    # no defaults here: cmd_generate takes them from _KINDS, so an option of another kind shows
    p.add_argument("--n", type=int, help="node/point count (er, ws, circle, plane, gaussian)")
    p.add_argument("--avg-degree", type=float, help="er: expected degree")
    p.add_argument("--k", type=int, help="ws: lattice neighbors (even)")
    p.add_argument("--beta", type=float, help="ws: rewiring probability")
    p.add_argument("--radius", type=float, help="circle: radius")
    p.add_argument("--branching", type=int, help="tree: children per node")
    p.add_argument("--depth", type=int, help="tree: depth")
    p.add_argument("--branches", type=int, help="dla: branch count")
    p.add_argument("--length", type=int, help="dla: nodes per branch")
    p.add_argument("--subdim", type=int, help="dla: dimensions per branch block")
    p.add_argument("--length-jitter", type=float, help="dla: relative branch-length jitter")
    p.add_argument("--noise", type=float, help="dla: Gaussian coordinate noise")
    p.add_argument("--dim", type=int, help="gaussian: intrinsic dimension")
    p.add_argument("--extra-dims", type=int, help="gaussian: ambient lift = dim + extra")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for name, var, low in (("seed", "CURVPROF_SEED", 0), ("workers", "CURVPROF_WORKERS", 1)):
            if getattr(args, name, low) is None:  # the subcommand takes the option, and var is set
                setattr(args, name, _nonnegative_int(os.environ[var], f"environment variable {var}", low))
            else:
                _nonnegative_int(getattr(args, name, low), f"--{name}", low)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # numpy refused an allocation the input asked for
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EmptyResultError as exc:
        print(f"empty result: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

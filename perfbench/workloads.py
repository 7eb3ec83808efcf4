"""Benchmark workloads: seeded inputs, the CLI calls of one pass, output checks.

Every workload writes its inputs with ``curvprof generate`` and then runs
the user-facing commands on them with relative paths from the pass's
working directory, so the outputs (which embed the resolved config,
paths included) do not depend on where the checkout lives.

Sizes are scaled down from the acceptance runs so that one pass takes a
few seconds and one timed run holds several passes; README.md gives the
rationale of each workload.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
GOLDEN_SEED = 0
W1_TOL = 1e-12

WORKLOADS = {
    "network": {"batch": 4, "n": 800, "avg_degree": 4.0, "ws_k": 4, "ws_beta": 0.1, "m": 0.1},
    "cloud": {"batch": 3, "n": 1000, "kmin": 15, "kmax": 20, "m": 0.1},
    "dimension": {
        "batch": 12, "n": 100, "dim": 3, "extra_dims": 50, "dims": "1-8", "kmin": 8, "kmax": 12,
        "m": 0.05,
    },
}
MAX_BATCH = 1000


def instance_seed(seed, j):
    """Generator seed of instance ``j`` in the batch of run seed ``seed``."""
    return MAX_BATCH * seed + j


def setup_calls(name, p, seed):
    """``curvprof generate`` argv lists that write the workload's input files.

    A pass works on ``p["batch"]`` independent instances, so that one run
    averages over several inputs drawn from its seed.
    """
    if not 1 <= p["batch"] <= MAX_BATCH:
        raise ValueError(f"batch must lie in [1, {MAX_BATCH}]")
    calls = []
    for j in range(p["batch"]):
        s = str(instance_seed(seed, j))
        if name == "network":
            calls += [
                ["generate", "--kind", "er", "--n", str(p["n"]), "--avg-degree", repr(p["avg_degree"]),
                 "--seed", s, "--out", f"er{j}.edges"],
                ["generate", "--kind", "ws", "--n", str(p["n"]), "--k", str(p["ws_k"]),
                 "--beta", repr(p["ws_beta"]), "--seed", s, "--out", f"ws{j}.edges"],
            ]
        elif name == "cloud":
            calls.append(["generate", "--kind", "plane", "--n", str(p["n"]), "--seed", s,
                          "--out", f"plane{j}.csv"])
        elif name == "dimension":
            calls.append(["generate", "--kind", "gaussian", "--n", str(p["n"]), "--dim", str(p["dim"]),
                          "--extra-dims", str(p["extra_dims"]), "--seed", s, "--out", f"gauss{j}"])
        else:
            raise KeyError(name)
    return calls


def pass_calls(name, p, seed):
    """The CLI calls of one pass as (argv, check kind, output files).

    The first output file is the one the check reads; all of them are
    hashed to compare passes byte for byte.
    """
    m, s = repr(p["m"]), str(seed)
    calls = []
    for j in range(p["batch"]):
        if name == "network":
            calls += [
                (["profile", f"er{j}.edges", "-m", m, "--seed", s], "profile",
                 [f"er{j}.profile.json", f"er{j}.long.csv", f"er{j}.summary.csv"]),
                (["profile", f"ws{j}.edges", "-m", m, "--seed", s], "profile",
                 [f"ws{j}.profile.json", f"ws{j}.long.csv", f"ws{j}.summary.csv"]),
                (["compare", f"er{j}.profile.json", f"ws{j}.profile.json", "--out", f"compare{j}.json"],
                 "w1", [f"compare{j}.json"]),
            ]
        elif name == "cloud":
            calls.append(
                (["profile", f"plane{j}.csv", "--kmin", str(p["kmin"]), "--kmax", str(p["kmax"]),
                  "-m", m, "--seed", s], "profile",
                 [f"plane{j}.profile.json", f"plane{j}.long.csv", f"plane{j}.summary.csv"]))
        elif name == "dimension":
            calls.append(
                (["estimate-dim", f"gauss{j}.high.csv", "--dims", p["dims"], "--kmin", str(p["kmin"]),
                  "--kmax", str(p["kmax"]), "-m", m, "--seed", s], "dim",
                 [f"gauss{j}.high.dim.json", f"gauss{j}.high.dimcurve.csv"]))
        else:
            raise KeyError(name)
    return calls


def summarize(kind, path):
    """The part of a call's output that the check compares."""
    data = json.loads(Path(path).read_text())
    if kind == "profile":
        return data["records"]
    if kind == "w1":
        return data["w1"]
    return {"d_best": data["d_best"], "curve": data["curve"]}


def check_invariants(kind, summary):
    """Seed-independent properties of a call's output; returns error strings."""
    errors = []
    if kind == "profile":
        if not summary:
            errors.append("profile has no records")
        for rec in summary:
            if rec["count"] != len(rec["rho_values"]):
                errors.append(f"r={rec['r']}: count {rec['count']} != {len(rec['rho_values'])} rho values")
            if not all(1.0 <= rho <= 2.0 for rho in rec["rho_values"]):
                errors.append(f"r={rec['r']}: rho outside [1, 2]")
    elif kind == "w1":
        if not (math.isfinite(summary) and summary >= 0):
            errors.append(f"w1 = {summary!r} is not finite and >= 0")
    else:
        curve = dict(summary["curve"])
        for d, w1 in curve.items():
            # a 1-D re-embedding has no equilateral structure and scores inf
            if math.isnan(w1) or w1 < 0 or (d >= 2 and not math.isfinite(w1)):
                errors.append(f"d={d}: w1 = {w1!r}")
        if not math.isfinite(curve.get(summary["d_best"], math.inf)):
            errors.append(f"d_best = {summary['d_best']} has no finite w1")
    return errors


def golden_form(kind, summary):
    """What goldens.json stores of a summary.

    Profiles keep (r, count, mean_rho) per scale for reading and a SHA-256
    of all records, rho values included, for the exact comparison.
    """
    if kind != "profile":
        return summary
    canonical = json.dumps(summary, sort_keys=True).encode()
    return {
        "sha256": hashlib.sha256(canonical).hexdigest(),
        "scales": [[rec["r"], rec["count"], rec["mean_rho"]] for rec in summary],
    }


def check_golden(kind, summary, golden):
    """Compare a call's output with the stored seed-0 output; returns error strings."""
    if kind == "profile":
        same = golden_form(kind, summary) == golden
        return [] if same else ["profile records differ from the golden"]
    if kind == "w1":
        return [] if abs(summary - golden) <= W1_TOL else [f"w1 {summary!r} != golden {golden!r}"]
    errors = []
    if summary["d_best"] != golden["d_best"]:
        errors.append(f"d_best {summary['d_best']} != golden {golden['d_best']}")
    got, want = dict(summary["curve"]), dict(golden["curve"])
    if got.keys() != want.keys():
        errors.append("dimension curve covers other dimensions than the golden")
    for d in sorted(got.keys() & want.keys()):
        if not (got[d] == want[d] or abs(got[d] - want[d]) <= W1_TOL):
            errors.append(f"d={d}: w1 {got[d]!r} != golden {want[d]!r}")
    return errors


def goldens_for(name, params, seed):
    """Stored per-call summaries of this workload at the golden seed, None at other seeds.

    Raises LookupError at the golden seed when goldens.json holds no entry
    for the workload at these parameters, so that the exact check cannot
    be skipped without notice.
    """
    if seed != GOLDEN_SEED:
        return None
    entry = json.loads(GOLDENS.read_text()).get(name) if GOLDENS.is_file() else None
    if entry is None or entry["params"] != params:
        raise LookupError(f"goldens.json has no {name} entry for {params}; "
                          "rewrite it with run.py --update-goldens")
    return entry["calls"]

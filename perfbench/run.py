"""curvprof benchmark: repeated passes of one workload, timed end to end or traced.

    python3 perfbench/run.py --workload network --seed 0 --seconds 20 --trace 0

Every pass runs in a fresh process (passrun.py) that imports curvprof from
this checkout's src/, writes the seeded inputs and runs the workload's CLI
calls through ``curvprof.cli.main``. Passes repeat until ``--seconds`` have
gone by. With ``--trace 0`` the result holds the medians of the end-to-end
metrics; with ``--trace 1`` traced and untraced passes alternate and the
result holds the medians of the per-layer metrics and the tracing overhead.

Each pass's outputs are checked (goldens at seed 0, invariants at every
seed) and must be byte-identical to the first pass's. The last line of
standard output is the result as JSON; the line before it is the run
record (versions, BLAS, machine, sample counts), which is also written to
.perfbench/BENCH_<workload>_trace<0|1>.json.

    python3 perfbench/run.py --update-goldens

rewrites goldens.json from one seed-0 pass of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT_S = 150
RUN_CAP_S = 160  # no pass starts that could end after this
# CPU rather than wall time: on a shared virtual machine the time stolen by
# neighbours swings wall time by up to 50 % between runs, CPU time by ~5 %
END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_pass_process(workdir, workload, seed, traced):
    """Run passrun.py in a fresh process; returns its report, or raises RuntimeError."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    # results must not depend on settings leaking in from the caller's shell
    env = {k: v for k, v in os.environ.items() if k not in ("CURVPROF_SEED", "CURVPROF_WORKERS")}
    cmd = [sys.executable, str(HERE / "passrun.py"), "--root", str(ROOT), "--workdir", str(workdir),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"pass timed out after {PASS_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_rev():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def median_metrics(samples, units):
    return {name: {"value": statistics.median(vals), "unit": units[name]}
            for name, vals in samples.items()}


def check_pass(i, rep, first_digests):
    """Error strings for the calls of pass ``i`` that failed their check."""
    errors = []
    for call, first in zip(rep["calls"], first_digests):
        call_errors = list(call["errors"])
        if call["digest"] is not None and call["digest"] != first:
            call_errors.append("output differs from the first pass")
        if call_errors:
            errors.append(f"pass {i} {' '.join(call['argv'])}: {'; '.join(call_errors)}")
    return errors


def run(workload, seed, seconds, trace):
    params = workloads.WORKLOADS[workload]
    n_calls = len(workloads.pass_calls(workload, params, seed))
    # traced and untraced passes alternate, starting with a traced one
    min_passes = 2 if trace else 3
    workdir = ROOT / ".perfbench" / f"{workload}.{os.getpid()}"
    attempted = failed = 0
    errors = []
    first_digests = environment = golden = None
    samples = {}
    # reported in the record, not gated: wall time is too noisy on a shared
    # machine, and the post-import resident memory is the interpreter's
    unguarded = {"wall_s": [], "base_rss_mb": []}
    longest = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= min_passes and elapsed >= seconds:
            break
        if i > 0 and elapsed + longest > RUN_CAP_S:
            errors.append(f"stopped after {i} passes: the next could pass the {RUN_CAP_S} s cap")
            break
        traced = bool(trace) and i % 2 == 0
        t = time.perf_counter()
        attempted += n_calls
        try:
            rep = run_pass_process(workdir, workload, seed, traced)
        except RuntimeError as exc:
            failed += n_calls
            errors.append(f"pass {i}: {exc}")
            continue
        finally:
            longest = max(longest, time.perf_counter() - t)
            i += 1
        environment = environment or rep["environment"]
        golden = rep["golden"]
        first_digests = first_digests or [c["digest"] for c in rep["calls"]]
        pass_errors = check_pass(i - 1, rep, first_digests)
        failed += len(pass_errors)
        errors += pass_errors
        print(f"pass {i - 1}{' traced' if traced else ''}: wall {rep['wall_s']:.3f} s, "
              f"cpu {rep['cpu_s']:.3f} s, setup {rep['setup_s']:.3f} s, "
              f"rss +{rep['peak_rss_mb']:.1f} MB", file=sys.stderr)
        if traced:
            values = rep["layers"]
        elif trace:
            values = {"trace.untraced_wall_s": rep["wall_s"]}
        else:
            values = {name: rep[name] for name in END_TO_END}
            for name, vals in unguarded.items():
                vals.append(rep[name])
        for name, value in values.items():
            samples.setdefault(name, []).append(value)

    metrics = median_metrics(samples, spans.LAYER_UNITS if trace else END_TO_END)
    if trace and "trace.wall_s" in samples and "trace.untraced_wall_s" in samples:
        overhead = metrics["trace.wall_s"]["value"] - metrics["trace.untraced_wall_s"]["value"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    record = {
        "workload": workload, "params": params, "seed": seed, "golden_checked": golden,
        "trace": trace, "seconds": seconds, "passes": i,
        "samples": {name: len(vals) for name, vals in samples.items()},
        "git_rev": git_rev(), "nproc": os.cpu_count(), "environment": environment,
        "errors": errors, "per_pass": samples if trace else {**samples, **unguarded},
    }
    if not samples:
        print(json.dumps(record), file=sys.stderr)
        sys.exit("no pass completed")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    out = ROOT / ".perfbench" / f"BENCH_{workload}_trace{trace}.json"
    out.write_text(json.dumps({"record": record, "result": result}, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))


def update_goldens():
    entries = {}
    for name, params in workloads.WORKLOADS.items():
        rep = run_pass_process(ROOT / ".perfbench" / f"goldens.{os.getpid()}", name,
                               workloads.GOLDEN_SEED, traced=False)
        kinds = [kind for _, kind, _ in workloads.pass_calls(name, params, workloads.GOLDEN_SEED)]
        for kind, call in zip(kinds, rep["calls"]):
            summary = call["summary"]
            if (summary is None or workloads.check_invariants(kind, summary)
                    or (kind == "dim" and summary["d_best"] != params["dim"])):
                sys.exit(f"{name} {' '.join(call['argv'])}: {call['errors']}")
        entries[name] = {"params": params, "seed": workloads.GOLDEN_SEED,
                         "calls": [workloads.golden_form(kind, c["summary"])
                                   for kind, c in zip(kinds, rep["calls"])]}
    workloads.GOLDENS.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDENS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-goldens", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "curvprof" / "__init__.py").is_file():
        sys.exit(f"no curvprof sources under {ROOT / 'src'}: run from a full checkout")
    if args.update_goldens:
        update_goldens()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()

"""One pass of a workload: write its inputs, run its CLI calls, check the outputs.

Run as a script it is the pass's own process, started by run.py; it prints
one JSON line with the timings, the per-call results and (when traced) the
per-layer metrics. ``run_pass`` is the same pass in-process, for the tests.

    python3 perfbench/passrun.py --root . --workdir DIR --workload network --seed 0 --trace 0
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import spans
import workloads


def _cli_call(cli, argv):
    """Run ``curvprof <argv>`` in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(printed, files):
    h = hashlib.sha256(printed.encode())
    for name in files:
        h.update(name.encode() + b"\0" + Path(name).read_bytes())
    return h.hexdigest()


def _check_call(kind, files, golden, d_best):
    summary = workloads.summarize(kind, files[0])
    errors = workloads.check_invariants(kind, summary)
    if golden is not None:
        errors += workloads.check_golden(kind, summary, golden)
    if d_best is not None and summary["d_best"] != d_best:
        errors.append(f"d_best = {summary['d_best']}, expected {d_best}")
    return summary, errors


def run_pass(name, params, seed, traced):
    """Run one pass in the current working directory, which must be empty.

    Returns a dict with ``setup_s`` (CPU time of generating and writing the
    inputs), ``wall_s`` and ``cpu_s`` (wall and CPU time, all threads, of
    the pass's CLI calls), per-call ``calls`` results and, when traced, the
    per-layer ``layers`` metrics.
    """
    from curvprof import cli

    tracer = spans.Tracer() if traced else None
    with tracer.install() if traced else contextlib.nullcontext():
        c = time.process_time()
        for argv in workloads.setup_calls(name, params, seed):
            code, _, err = _cli_call(cli, argv)
            if code != 0:
                raise RuntimeError(f"setup call {argv} exited {code}: {err.strip()}")
        setup_s = time.process_time() - c

        calls = workloads.pass_calls(name, params, seed)
        results = []
        with tracer.span("pass") if traced else contextlib.nullcontext() as root:
            t, c = time.perf_counter(), time.process_time()
            for argv, _, _ in calls:
                results.append(_cli_call(cli, argv))
            wall_s, cpu_s = time.perf_counter() - t, time.process_time() - c

    try:
        goldens, golden_error = workloads.goldens_for(name, params, seed), None
    except LookupError as exc:  # at the golden seed a missing golden fails every call
        goldens, golden_error = None, str(exc)
    # at the golden seed every cloud must recover its intrinsic dimension
    d_best = params["dim"] if seed == workloads.GOLDEN_SEED and name == "dimension" else None
    report = []
    for i, ((argv, kind, files), (code, printed, err)) in enumerate(zip(calls, results)):
        entry = {"argv": argv, "exit": code, "errors": [], "summary": None, "digest": None}
        if code != 0:
            entry["errors"].append(f"exit {code}: {err.strip()}")
        else:
            golden = goldens[i] if goldens is not None else None
            entry["summary"], entry["errors"] = _check_call(kind, files, golden, d_best)
            if golden_error is not None:
                entry["errors"].append(golden_error)
            entry["digest"] = _digest(printed, files)
            entry["bytes"] = sum(Path(f).stat().st_size for f in files)
        report.append(entry)

    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "calls": report,
           "golden": goldens is not None}
    if traced:
        out["layers"] = spans.layer_metrics(tracer, root)
        out["layers"]["cli.bytes_written"] = sum(e.get("bytes", 0) for e in report)
    return out


def environment():
    """Versions, BLAS and worker defaults as seen by the pass's process."""
    import ctypes
    import glob

    import numpy
    import scipy
    from curvprof import cli

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "cli_default_workers": cli.build_parser().parse_args(["profile", "x"]).workers,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="checkout whose src/ holds curvprof")
    ap.add_argument("--workdir", required=True, help="empty directory the pass runs in")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    c = time.process_time()
    import curvprof
    import curvprof.cli  # noqa: F401 - part of the import the pass pays for

    import_s = time.process_time() - c
    # the interpreter and its libraries; peak_rss_mb is what the pass adds on top
    base_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not Path(curvprof.__file__).resolve().is_relative_to(src):
        sys.exit(f"curvprof imported from {curvprof.__file__}, not from {src}")

    os.chdir(args.workdir)
    out = run_pass(args.workload, workloads.WORKLOADS[args.workload], args.seed, bool(args.trace))
    out["setup_s"] += import_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - base_rss_mb
    out["base_rss_mb"] = base_rss_mb
    out["environment"] = environment()
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""Spans and counters recorded around calls into curvprof's public functions.

The wrappers are installed from outside the package: :meth:`Tracer.install`
replaces the module attributes through which the pipeline looks the
functions up and puts the originals back afterwards.

Each span records its name, start, end, parent and thread. A span opened
on a worker thread with nothing open on that thread takes as parent the
innermost span open on the main thread, i.e. the ``build_profile`` call
that started the pool.

Layer times are wall-time shares (:func:`wall_shares`): every instant of
the pass is given to the innermost open spans, split equally when spans on
several threads are innermost at once. On one thread this is the usual
self time (duration minus the time covered by child spans), and the shares
of all spans add up to the pass's wall time even when worker threads
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# span name -> per-layer time metric (wall share inside the pass)
TIME_METRICS = {
    "pass": "cli.self_s",
    "cli.load": "cli.load_s",
    "cli.write": "cli.write_s",
    "metric.apsp": "metric.apsp_s",
    "graphs.build": "graphs.build_s",
    "profile.build": "profile.self_s",
    "profile.triples": "profile.triples_s",
    "profile.rho": "profile.rho_s",
    "transport.todist": "transport.todist_s",
    "transport.w1": "transport.w1_s",
    "embed.mds": "embed.mds_s",
}

COUNT_METRICS = {
    "profile.scales": "count",
    "profile.empty_scales": "count",
    "profile.triangles": "count",
    "transport.w1_calls": "count",
    "transport.lp_vars": "count",
    "transport.support_max": "count",
    "metric.apsp_calls": "count",
    "metric.n_max": "count",
    "metric.dense_mb": "MB",
    "graphs.edges": "count",
    "embed.mds_calls": "count",
}

# every per-layer metric of a traced run, with its unit
LAYER_UNITS = {
    **{metric: "s" for metric in TIME_METRICS.values()},
    **COUNT_METRICS,
    "profile.rho_calls": "count",
    "profile.sample_yield": "ratio",
    "transport.w1_repeat_ratio": "ratio",
    "cli.bytes_written": "B",
    "generate.s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(eq=False, slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Span | None
    thread: int


class Tracer:
    """In-memory spans and counters of one pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._lock = threading.Lock()  # guards counts and the W1 pairs
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._w1_pairs = set()

    def _open(self, name):
        # list appends and dict.setdefault are atomic under the GIL, and the
        # main thread's stack does not change while its worker threads run,
        # so opening and closing spans needs no lock
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main)
            parent = main_stack[-1] if main_stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, tid)
        stack.append(span)
        self.spans.append(span)
        return stack, span

    @staticmethod
    def _close(stack, span):
        span.end = time.perf_counter()
        stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        stack, span = self._open(name)
        try:
            yield span
        finally:
            self._close(stack, span)

    def add(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    def maximum(self, key, value):
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def seen_w1_pair(self, pair):
        """Whether W1 was already asked for this pair in the pass; records it."""
        with self._lock:
            seen = pair in self._w1_pairs
            self._w1_pairs.add(pair)
        return seen

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(stack, span)
            if count is not None:
                count(self, args, kwargs, out)  # outside the span: not timed as the layer
            return out

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap the pipeline's public functions for the duration of the block."""
        saved = []
        try:
            for module, attr, name, count in _hooks():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _count_triples(tracer, args, kwargs, out):
    D = args[0]
    m = kwargs.get("m", args[2] if len(args) > 2 else 1.0)
    tracer.add("profile.scales")
    tracer.add("profile.empty_scales", int(not out))
    tracer.add("profile.triangles", len(out))
    tracer.add("profile.sample_budget", math.ceil(m * D.n))


def _dist_digest(dist):
    return hashlib.sha256(dist.support.tobytes() + dist.mass.tobytes()).digest()


def _count_w1(tracer, args, kwargs, out):
    P, Q = args[0], args[1]
    pair = tuple(sorted((_dist_digest(P), _dist_digest(Q))))
    tracer.add("transport.w1_calls")
    tracer.add("transport.w1_repeats", int(tracer.seen_w1_pair(pair)))
    if pair[0] != pair[1]:  # identical inputs return 0 without an LP
        a, b = len(P.mass), len(Q.mass)
        tracer.add("transport.lp_vars", a * b)
        tracer.maximum("transport.support_max", max(a, b))


def _count_apsp(tracer, args, kwargs, out):
    n = out.n
    tracer.add("metric.apsp_calls")
    tracer.maximum("metric.n_max", n)
    tracer.add("metric.dense_mb", 8 * n * n / 2**20)  # computed, not measured


def _count_edges(tracer, args, kwargs, out):
    tracer.add("graphs.edges", len(out.edges))


def _count_mds(tracer, args, kwargs, out):
    tracer.add("embed.mds_calls")


def _hooks():
    """(module, attribute, span name, counter) for every wrapped function.

    ``cli`` imports most names directly, so they are wrapped in ``cli``;
    functions that other modules call through their own globals are
    wrapped in their home module as well.
    """
    from curvprof import cli, embed, generate, profile, transport

    return [
        (cli, "load_input", "cli.load", None),
        (cli, "save_profile_json", "cli.write", None),
        (cli, "write_long_csv", "cli.write", None),
        (cli, "write_summary_csv", "cli.write", None),
        (cli, "shortest_path_matrix", "metric.apsp", _count_apsp),
        (cli, "adaptive_graph", "graphs.build", _count_edges),
        (cli, "knn_graph", "graphs.build", _count_edges),
        (cli, "epsilon_graph", "graphs.build", _count_edges),
        (cli, "build_profile", "profile.build", None),
        (profile, "find_equilateral_triples", "profile.triples", _count_triples),
        (profile, "rho_minmax", "profile.rho", None),
        (cli, "to_distribution", "transport.todist", None),
        (transport, "to_distribution", "transport.todist", None),
        (cli, "wasserstein1", "transport.w1", _count_w1),
        (transport, "wasserstein1", "transport.w1", _count_w1),
        (embed, "classical_mds", "embed.mds", _count_mds),
    ] + [
        (generate, fn, "generate", None)
        for fn in ("erdos_renyi", "watts_strogatz", "plane_sample", "gaussian_isometric")
    ]


def wall_shares(spans, root):
    """Wall time given to each span inside ``root``, keyed by span.

    Sweeps the span boundaries; each interval between two boundaries goes
    to the open spans that have no open child, in equal parts.
    """
    inside = [s for s in spans if root.start <= s.start and s.end <= root.end]
    # at equal times ends come before starts, and parents (opened first)
    # before their children
    events = sorted(
        [(s.start, 1, i, s) for i, s in enumerate(inside)]
        + [(s.end, 0, i, s) for i, s in enumerate(inside)],
        key=lambda e: e[:3],
    )
    shares = defaultdict(float)
    open_children = defaultdict(int)
    active = set()
    last = root.start
    for t, is_start, _, span in events:
        leaves = [s for s in active if open_children[s] == 0]
        for s in leaves:
            shares[s] += (t - last) / len(leaves)
        last = t
        if is_start:
            active.add(span)
            if span.parent in active:
                open_children[span.parent] += 1
        else:
            active.discard(span)
            if span.parent in active:
                open_children[span.parent] -= 1
    return shares


def layer_metrics(tracer, root):
    """Per-layer metrics of one traced pass whose outermost span is ``root``."""
    spans = tracer.spans
    out = {metric: 0.0 for metric in TIME_METRICS.values()}
    for span, share in wall_shares(spans, root).items():
        out[TIME_METRICS[span.name]] += share
    c = tracer.counts
    out.update({key: c[key] for key in COUNT_METRICS})
    out["profile.rho_calls"] = sum(1 for s in spans if s.name == "profile.rho")
    budget = c["profile.sample_budget"]
    out["profile.sample_yield"] = c["profile.triangles"] / budget if budget else 0.0
    calls = c["transport.w1_calls"]
    out["transport.w1_repeat_ratio"] = c["transport.w1_repeats"] / calls if calls else 0.0
    out["generate.s"] = sum(s.end - s.start for s in spans if s.name == "generate")
    out["trace.wall_s"] = root.end - root.start
    return out

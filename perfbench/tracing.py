"""Outside-in tracing of one ``percospec`` run, and the per-layer metrics.

The tracer wraps the public functions of each module at the names their
callers look up (``percospec.cli.generate``, ``percospec.spectral.sample``,
...), so no file of the package changes.  Each call becomes a span with a
name, start, end, parent id and thread.  Parents come from a stack per
thread; work submitted to the ``ThreadPoolExecutor`` that ``run_ids`` uses
gets the submitting span as its parent.

Run as a script, it executes one CLI command in this process under the
tracer and writes the per-layer metrics and the spans as JSON::

    python3 perfbench/tracing.py --report OUT.json -- ids --family square ...
    python3 perfbench/tracing.py --self-test

The self-test traces a tiny ``ids`` run at two threads and checks the span
tree (see ``check_spans``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import tempfile
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# benchmark-side counting inside a traced call; a child span of that call,
# so it never counts as the call's own (self) time
BOOKKEEPING = "bench.bookkeeping"

# the per-layer metrics and their units, as BENCHMARK.json lists them
PER_LAYER = {
    "graphs.generate_s": "s",
    "graphs.generate_calls": "count",
    "graphs.vertices": "count",
    "graphs.edges": "count",
    "percolation.sample_s": "s",
    "percolation.sample_calls": "count",
    "percolation.decompose_s": "s",
    "percolation.decompose_calls": "count",
    "percolation.mean_cluster_size_s": "s",
    "percolation.sample_reuse": "ratio",
    "spectral.run_s": "s",
    "spectral.self_s": "s",
    "spectral.eigensolves": "count",
    "spectral.partial_solves": "count",
    "spectral.eigensolve_s": "s",
    "spectral.clusters_keyed": "count",
    "spectral.cache_hit_ratio": "ratio",
    "spectral.kept_realizations": "count",
    "spectral.truncated_realizations": "count",
    "patterns.census_s": "s",
    "patterns.pattern_at_calls": "count",
    "patterns.pattern_at_s": "s",
    "patterns.classes": "count",
    "patterns.density_report_s": "s",
    "lifshits.tail_fit_s": "s",
    "lifshits.certify_s": "s",
    "lifshits.fit_points": "count",
    "cli.threads": "count",
    "cli.chunk_busy_s.w0": "s",
    "cli.chunk_busy_s.w1": "s",
    "cli.outputs_s": "s",
    "cli.trace_overhead_s": "s",
}

SELF_TEST_ARGV = [
    "ids", "--family", "square", "--radius", "12", "--counting-radius", "8",
    "--p", "0.2", "--realizations", "24", "--threads", "2", "--seed", "9",
]


class Tracer:
    """Spans kept in memory, with one parent stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> dict | None:
        """This thread's innermost open span, else the span that submitted
        this thread's work."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "origin", None)

    def start(self, name: str) -> dict:
        parent = self.current()
        span = {
            "name": name,
            "parent": None if parent is None else parent["id"],
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        with self._lock:
            span["id"] = len(self.spans) + 1
            self.spans.append(span)
        self._stack().append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self._stack().pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, name: str, fn, hook=None):
        """fn, recording a span per call; hook(fn, args, kwargs) runs in
        the span in place of fn when given."""

        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = hook(fn, args, kwargs) if hook else fn(*args, **kwargs)
                span["attrs"].update(_result_attrs(name, args, result))
                return result
            finally:
                self.end(span)

        return traced

    def bind_origin(self, fn):
        """fn, run in any thread as a child of the span current now."""
        origin = self.current()

        def run(*args, **kwargs):
            self._local.origin = origin
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.origin = None

        return run


def _result_attrs(name: str, args, result) -> dict:
    """The counts a layer metric needs from one call's arguments or result."""
    if name == "graphs.generate":
        return {"vertices": result.n_vertices, "edges": result.n_edges}
    if name == "percolation.sample":
        return {"realization": result.realization_index}
    if name == "cli.run_ids":
        return {
            "threads": args[0].threads,
            "kept": result.realizations,
            "truncated": result.truncated_realizations,
        }
    if name == "patterns.census":
        return {"classes": result.distinct}
    if name == "lifshits.tail_fit":
        return {"fit_points": result.n_fit_points}
    return {}


class _KeyedClusters:
    """Counts the clusters the estimator keys by shape: counted (meeting the
    window), of size >= 3, in kept realizations (no counted cluster within
    l_max of the patch boundary).  Read from the decompositions the
    estimator gets and the public ``Ball.contains`` window, in bookkeeping
    spans under the estimator's span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.local = threading.local()

    def estimate_hook(self, fn, args, kwargs):
        import numpy as np

        from percospec.graphs import Ball

        call = inspect.signature(fn).bind(*args, **kwargs)
        call.apply_defaults()
        g, radius = call.arguments["g"], call.arguments["counting_radius"]
        book = self.tracer.start(BOOKKEEPING)
        if radius is None:
            in_ball = np.ones(g.n_vertices, dtype=bool)
        else:
            in_ball = Ball((0.0, 0.0), radius).contains(g.embed)
        near = None
        if call.arguments["flag_boundary"] and g.box is not None:
            near = g.box.boundary_distance(g.embed) < g.l_max
        self.tracer.end(book)
        span = self.tracer.current()
        span["attrs"]["clusters_keyed"] = 0
        self.local.window = (in_ball, near, span)
        try:
            return fn(*args, **kwargs)
        finally:
            self.local.window = None

    def counting(self, decompose):
        """decompose, followed by counting its result when the estimator
        called it."""
        import numpy as np

        def counted_decompose(*args, **kwargs):
            dec = decompose(*args, **kwargs)
            window = getattr(self.local, "window", None)
            if window is None:
                return dec
            in_ball, near_edge, span = window
            book = self.tracer.start(BOOKKEEPING)
            counted = np.bincount(dec.labels[in_ball], minlength=dec.n_clusters) > 0
            kept = True
            if near_edge is not None:
                near = np.bincount(dec.labels[near_edge], minlength=dec.n_clusters) > 0
                kept = not bool((counted & near).any())
            if kept:
                span["attrs"]["clusters_keyed"] += int(np.count_nonzero(counted & (dec.sizes >= 3)))
            self.tracer.end(book)
            return dec

        return counted_decompose


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the names callers look up."""
    import percospec.cli as cli
    import percospec.patterns as patterns
    import percospec.percolation as percolation
    import percospec.spectral as spectral

    keyed = _KeyedClusters(tracer)
    targets = [
        (cli, "generate", "graphs.generate", None),
        (cli, "run_ids", "cli.run_ids", None),
        (cli, "ids_estimate", "spectral.ids_estimate", keyed.estimate_hook),
        (spectral, "sample", "percolation.sample", None),
        (spectral, "decompose", "percolation.decompose", None),
        (percolation, "sample", "percolation.sample", None),
        (percolation, "decompose", "percolation.decompose", None),
        (cli, "mean_cluster_size", "percolation.mean_cluster_size", None),
        (spectral, "eigenvalues", "spectral.eigenvalues", None),
        (spectral, "eigensystem", "spectral.eigensystem", None),
        (cli, "extract_r_patterns", "patterns.census", None),
        (patterns, "pattern_at", "patterns.pattern_at", None),
        (cli, "density_report", "patterns.density_report", None),
        (cli, "tail_fit", "lifshits.tail_fit", None),
        (cli, "certify_bracketing", "lifshits.certify", None),
        (cli, "_ids_outputs", "cli.outputs", None),
        (cli.OutputWriter, "add", "cli.outputs", None),
        (cli.OutputWriter, "finish", "cli.outputs", None),
    ]
    for owner, attr, name, hook in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))
    spectral.decompose = keyed.counting(spectral.decompose)

    class TracingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.bind_origin(fn), *args, **kwargs)

    cli.ThreadPoolExecutor = TracingExecutor


# ---------------------------------------------------------------------------
# span analysis


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: _duration(s) - _covered(children[s["id"]]) for s in spans}


def check_spans(spans: list[dict], wall_s: float) -> list[str]:
    """Problems with the span tree: open spans, missing parents, children
    outside their parent's interval, negative self times, or a thread whose
    self times add up to more than the traced wall time."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} is open or ends before it starts")
            return problems
    for s in spans:
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            problems.append(f"span {s['id']} {s['name']}: parent {s['parent']} missing")
        elif parent and not (parent["start"] <= s["start"] and s["end"] <= parent["end"]):
            problems.append(
                f"span {s['id']} {s['name']} lies outside its parent {parent['name']}"
            )
    selfs = self_times(spans)
    per_thread = defaultdict(float)
    for s in spans:
        if selfs[s["id"]] < 0.0:
            problems.append(f"span {s['id']} {s['name']}: self time {selfs[s['id']]:.6f} s < 0")
        per_thread[s["thread"]] += selfs[s["id"]]
    for thread, total in per_thread.items():
        if total > wall_s:
            problems.append(f"thread {thread}: self times {total:.6f} s > wall {wall_s:.6f} s")
    return problems


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric except ``cli.trace_overhead_s``, which needs
    the untraced runs."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    names = {s["id"]: s["name"] for s in spans}
    selfs = self_times(spans)

    bookkeeping = defaultdict(float)
    for s in by_name[BOOKKEEPING]:
        bookkeeping[s["parent"]] += _duration(s)

    def busy(s: dict) -> float:
        return _duration(s) - bookkeeping[s["id"]]

    def total(name: str) -> float:
        return sum(busy(s) for s in by_name[name])

    def first(name: str, attr: str) -> float:
        spans_ = by_name[name]
        return spans_[0]["attrs"].get(attr, 0) if spans_ else 0

    samples = by_name["percolation.sample"]
    eigensolves = by_name["spectral.eigenvalues"]
    # eigensystem calls made by eigenvalues are part of that solve; the
    # others are the partial solves for clusters straddling the window
    partial = [
        s for s in by_name["spectral.eigensystem"]
        if names.get(s["parent"]) != "spectral.eigenvalues"
    ]
    estimates = by_name["spectral.ids_estimate"]
    keyed = sum(s["attrs"].get("clusters_keyed", 0) for s in estimates)
    solves = len(eigensolves) + len(partial)
    chunks = {}  # thread -> (first start, busy seconds) of estimator chunks
    for s in estimates:
        t0, b = chunks.get(s["thread"], (s["start"], 0.0))
        chunks[s["thread"]] = (min(t0, s["start"]), b + busy(s))
    chunk_busy = [b for _, b in sorted(chunks.values())] + [0.0, 0.0]
    outputs = [s for s in by_name["cli.outputs"] if names.get(s["parent"]) != "cli.outputs"]
    run_ids = by_name["cli.run_ids"]
    return {
        "graphs.generate_s": total("graphs.generate"),
        "graphs.generate_calls": len(by_name["graphs.generate"]),
        "graphs.vertices": first("graphs.generate", "vertices"),
        "graphs.edges": first("graphs.generate", "edges"),
        "percolation.sample_s": total("percolation.sample"),
        "percolation.sample_calls": len(samples),
        "percolation.decompose_s": total("percolation.decompose"),
        "percolation.decompose_calls": len(by_name["percolation.decompose"]),
        "percolation.mean_cluster_size_s": total("percolation.mean_cluster_size"),
        "percolation.sample_reuse": (
            len({s["attrs"].get("realization") for s in samples}) / len(samples) if samples else 0.0
        ),
        "spectral.run_s": total("spectral.ids_estimate"),
        "spectral.self_s": sum(selfs[s["id"]] for s in estimates),
        "spectral.eigensolves": len(eigensolves),
        "spectral.partial_solves": len(partial),
        "spectral.eigensolve_s": sum(busy(s) for s in eigensolves + partial),
        "spectral.clusters_keyed": keyed,
        "spectral.cache_hit_ratio": 1.0 - solves / keyed if keyed else 0.0,
        "spectral.kept_realizations": sum(s["attrs"].get("kept", 0) for s in run_ids),
        "spectral.truncated_realizations": sum(s["attrs"].get("truncated", 0) for s in run_ids),
        "patterns.census_s": total("patterns.census"),
        "patterns.pattern_at_calls": len(by_name["patterns.pattern_at"]),
        "patterns.pattern_at_s": total("patterns.pattern_at"),
        "patterns.classes": first("patterns.census", "classes"),
        "patterns.density_report_s": total("patterns.density_report"),
        "lifshits.tail_fit_s": total("lifshits.tail_fit"),
        "lifshits.certify_s": total("lifshits.certify"),
        "lifshits.fit_points": first("lifshits.tail_fit", "fit_points"),
        "cli.threads": first("cli.run_ids", "threads"),
        "cli.chunk_busy_s.w0": chunk_busy[0],
        "cli.chunk_busy_s.w1": chunk_busy[1],
        "cli.outputs_s": sum(busy(s) for s in outputs),
    }


# ---------------------------------------------------------------------------
# entry point


def traced_main(argv: list[str]) -> tuple[int, float, list[dict]]:
    """Run ``percospec`` with argv under a fresh tracer in this process;
    return its exit code, the traced wall time and the spans."""
    import percospec.cli as cli

    tracer = Tracer()
    instrument(tracer)
    root = tracer.start("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.end(root)
    return code, _duration(root), tracer.spans


def self_test() -> list[str]:
    """Trace a tiny two-thread ``ids`` run under frequent thread switches
    and return the problems found in its span tree."""
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as out:
            code, wall, spans = traced_main(SELF_TEST_ARGV + ["--out", out])
    finally:
        sys.setswitchinterval(switch)
    problems = check_spans(spans, wall)
    if code != 0:
        problems.append(f"self-test run exited {code}")
    names = {s["id"]: s["name"] for s in spans}
    chunks = [s for s in spans if s["name"] == "spectral.ids_estimate"]
    if len({s["thread"] for s in chunks}) != 2:
        problems.append("self-test estimator chunks did not run on two threads")
    for s in spans:
        expected = {
            "spectral.ids_estimate": "cli.run_ids",
            "percolation.decompose": "spectral.ids_estimate",
            "percolation.sample": "spectral.ids_estimate",
        }.get(s["name"])
        if expected and names.get(s["parent"]) != expected:
            problems.append(f"{s['name']} has parent {names.get(s['parent'])}, not {expected}")
    return problems


def _import_checkout() -> None:
    """Make ``import percospec`` load this checkout's sources, or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import percospec

    if Path(percospec.__file__).resolve().parent != src / "percospec":
        raise SystemExit(f"percospec imported from {percospec.__file__}, not {src}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", help="write metrics, checks and spans here")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("argv", nargs="*", help="percospec arguments, after --")
    args = parser.parse_args()
    if not args.self_test and not args.report:
        parser.error("give --report PATH with percospec arguments, or --self-test")
    _import_checkout()
    if args.self_test:
        problems = self_test()
        for p in problems:
            print(f"self-test: {p}", file=sys.stderr)
        print("self-test " + ("FAILED" if problems else "passed"))
        return 1 if problems else 0
    code, wall, spans = traced_main(args.argv)
    report = {
        "exit_code": code,
        "wall_s": wall,
        "metrics": layer_metrics(spans),
        "problems": check_spans(spans, wall),
        "spans": spans,
    }
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

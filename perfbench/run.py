"""The percospec benchmark: real CLI runs, timed from outside, checked
against reference outputs.

    python3 perfbench/run.py --workload lifshits-square --seed 3 --seconds 40 --trace 0

Run it from a checkout; the package is imported from the checkout's
``src/``.  With ``--trace 0`` it runs fresh ``percospec`` child processes,
one at a time, until ``--seconds`` have passed, and reports the median of
each end-to-end metric.  With ``--trace 1`` it runs the tracing self-test,
one traced child (``tracing.py``) and untraced children for the rest of the
time, and reports the per-layer metrics.  Every child's outputs are checked
against ``reference.json``.  The last line of stdout is the JSON result.
``README.md`` says why each workload is there and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# every child must have ended this many seconds after the run started
RUN_LIMIT_S = 170.0

# children use single-threaded BLAS, so `--threads` is the only source of
# parallelism (OpenBLAS would otherwise start up to one thread per core
# beside the estimator's threads); outputs are the same with the cap
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}

# name -> percospec arguments without --seed/--out, the manifest stage that
# does the main work, what that stage counts, and whether the seed matters
WORKLOADS = {
    "lifshits-square": (
        ["lifshits", "--family", "square", "--radius", "150", "--counting-radius", "140",
         "--p", "0.1", "--realizations", "100", "--e-min", "0.05", "--e-max", "0.8",
         "--threads", "1"],
        "ids", "realizations", True,
    ),
    "ids-ab": (
        ["ids", "--family", "ammann_beenker", "--radius", "45", "--counting-radius", "38",
         "--p", "0.13", "--realizations", "300", "--e-max", "0.8", "--threads", "2"],
        "ids", "realizations", True,
    ),
    "census-penrose": (
        ["census", "--family", "penrose", "--radius", "20", "--pattern-radius", "0.9"],
        "census", "centres", False,
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def workload_seed(seed: int, reference: dict) -> int:
    """The benchmark seed folded onto the seeds the reference covers."""
    return seed % reference["seeds"]


def child_argv(workload: str, seed: int, out: Path) -> list[str]:
    argv, _, _, seeded = WORKLOADS[workload]
    return argv + (["--seed", str(seed)] if seeded else []) + ["--out", str(out)]


def child_env() -> dict:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], log: Path, timeout: float) -> tuple[int, float, float]:
    """Run cmd to completion; return its exit code, the seconds from spawn
    to exit, and its own peak RSS in MB (from wait4, so no earlier child's
    peak leaks in)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(workload: str, seed: int, out: Path, ref: dict) -> tuple[list[str], int]:
    """Mismatches of one child's outputs against the workload's reference,
    and the number of items its main stage processed."""
    problems = []
    if workload == "census-penrose":
        census = json.loads((out / "census.json").read_text())
        for key in ("distinct", "distinct_half_radius", "flc_stable"):
            if census[key] != ref[key]:
                problems.append(f"census.json {key} = {census[key]}, reference {ref[key]}")
        if sha256(out / "census.csv") != ref["census.csv"]:
            problems.append("census.csv differs from the reference")
        return problems, ref["centres"]
    if sha256(out / "ids.csv") != ref["ids.csv"][str(seed)]:
        problems.append(f"ids.csv at seed {seed} differs from the reference")
    if workload == "lifshits-square":
        if json.loads((out / "lifshits.json").read_text())["bracket_pass"] is not True:
            problems.append("lifshits.json bracket_pass is not true")
    with open(out / "ids.csv") as fh:
        return problems, int(next(csv.DictReader(fh))["realizations"])


class Run:
    """The children of one benchmark run and what each measured."""

    def __init__(self, workload: str, seed: int, tmp: Path, reference: dict):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.reference = reference[workload]
        self.started = time.perf_counter()
        self.children: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, prefix: list[str], label: str) -> dict:
        """Run one workload child (prefix + percospec arguments), check its
        outputs and record its metrics."""
        n = len(self.children)
        out = self.tmp / f"out{n}"
        cmd = prefix + child_argv(self.workload, self.seed, out)
        code, wall, rss = spawn(cmd, self.tmp / f"log{n}.txt", RUN_LIMIT_S - self.elapsed())
        rec = {"label": label, "wall_s": wall, "peak_rss_mb": rss, "problems": []}
        if code != 0:
            rec["problems"].append(f"exit code {code}")
        try:
            problems, items = check_outputs(self.workload, self.seed, out, self.reference)
            stages = json.loads((out / "manifest.json").read_text())["wall_clock_s"]
            rec["problems"] += problems
            rec["setup_s"] = stages["generate"]
            rec["items_per_s"] = items / stages[WORKLOADS[self.workload][1]]
        except (OSError, ValueError, KeyError, StopIteration, ZeroDivisionError) as exc:
            rec["problems"].append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        self.children.append(rec)
        fields = " ".join(f"{k}={rec[k]:.4f}" for k in END_TO_END if k in rec)
        verdict = "; ".join(rec["problems"]) or "ok"
        print(f"child {n} ({label}): {fields} {verdict}", flush=True)
        return rec

    def untraced_until(self, seconds: float) -> list[dict]:
        """Untraced children, at least one, while the next would likely end
        within `seconds` of the run's start."""
        prefix = [sys.executable, "-m", "percospec.cli"]
        walls = [self.child(prefix, "untraced")["wall_s"]]
        while True:
            ends = self.elapsed() + statistics.median(walls)
            if ends > min(seconds, RUN_LIMIT_S):
                return [c for c in self.children if c["label"] == "untraced"]
            walls.append(self.child(prefix, "untraced")["wall_s"])


def summary(name: str, unit: str, values: list[float]) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (
        f"{name}: median {q[1]:.4f} {unit}  quartiles [{q[0]:.4f}, {q[2]:.4f}]"
        f"  range [{min(values):.4f}, {max(values):.4f}]  n={len(values)}"
    )


def end_to_end(run: Run) -> dict:
    """Medians over the children whose outputs passed (over all children
    when none did, so a failed run still reports what it measured)."""
    ok = [c for c in run.children if not c["problems"]] or run.children
    item = WORKLOADS[run.workload][2]
    metrics = {}
    for name, unit in END_TO_END.items():
        values = [c[name] for c in ok if name in c] or [0.0]
        label = f"{name} ({item}_per_s)" if name == "items_per_s" else name
        print(summary(label, unit, values))
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    failed = sum(1 for c in run.children if c["problems"])
    print(f"failed_runs: {failed / len(run.children):.4f} share ({failed} of {len(run.children)})")
    return metrics


def per_layer(run: Run, seconds: float) -> tuple[dict, int]:
    """The traced child's layer metrics, plus the tracing overhead against
    the untraced children; also returns 1 if the self-test failed, else 0."""
    log = run.tmp / "selftest.txt"
    code, _, _ = spawn([sys.executable, str(HERE / "tracing.py"), "--self-test"], log, 60.0)
    print(log.read_text().rstrip().splitlines()[-1] if code == 0 else log.read_text())
    report_path = run.tmp / "trace.json"
    prefix = [sys.executable, str(HERE / "tracing.py"), "--report", str(report_path), "--"]
    traced = run.child(prefix, "traced")
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        traced["problems"].append(f"no trace report: {exc}")
        report = {"metrics": {}, "problems": []}
    traced["problems"] += report["problems"]
    metrics = report["metrics"]
    if run.workload == "census-penrose" and metrics.get("patterns.pattern_at_calls") != run.reference["centres"]:
        traced["problems"].append("pattern_at calls differ from the reference centre count")
    untraced = run.untraced_until(seconds)
    metrics["cli.trace_overhead_s"] = traced["wall_s"] - statistics.median(c["wall_s"] for c in untraced)
    for problem in traced["problems"]:
        print(f"traced child: {problem}")
    for name, unit in PER_LAYER.items():
        print(f"{name}: {metrics.get(name, 0):.6g} {unit}")
    return {k: {"value": metrics.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}, int(code != 0)


def environment() -> dict:
    """What the timings depend on besides the code."""
    import numpy
    import scipy

    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        **CHILD_ENV,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "percospec" / "cli.py").is_file():
        print(f"no percospec sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    seed = workload_seed(args.seed, reference)
    print(f"workload {args.workload}, seed {args.seed} -> workload seed {seed}, trace {args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    compileall.compile_dir(SRC, quiet=1)

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        run = Run(args.workload, seed, tmp, reference)
        if args.trace:
            metrics, selftest_failed = per_layer(run, args.seconds)
        else:
            run.untraced_until(args.seconds)
            metrics, selftest_failed = end_to_end(run), 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = len(run.children) + args.trace
    failed = sum(1 for c in run.children if c["problems"]) + selftest_failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record ``reference.json``, the outputs every benchmark child is checked
against.

    python3 perfbench/record_reference.py

Runs each seeded workload once at every workload seed and the census once
under the tracer (its centre count is the number of ``pattern_at`` calls).
Refuses to record a run that fails: a lifshits bracket that does not pass,
or a census that is not stable.  Record at a commit whose outputs are the
agreed reference; the benchmark then fails any run whose outputs differ.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, child_argv, sha256, spawn

SEEDS = 16


def run_child(prefix: list[str], workload: str, seed: int, tmp: Path) -> Path:
    out = tmp / f"{workload}-{seed}"
    log = tmp / f"{workload}-{seed}.txt"
    code, wall, _ = spawn(prefix + child_argv(workload, seed, out), log, 600.0)
    print(f"{workload} seed {seed}: exit {code}, {wall:.1f} s", flush=True)
    if code != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{log.read_text()}")
    return out


def main() -> int:
    reference = {"seeds": SEEDS}
    cli = [sys.executable, "-m", "percospec.cli"]
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        for workload in ("lifshits-square", "ids-ab"):
            digests = {}
            for seed in range(SEEDS):
                out = run_child(cli, workload, seed, tmp)
                if workload == "lifshits-square":
                    if json.loads((out / "lifshits.json").read_text())["bracket_pass"] is not True:
                        raise SystemExit(f"{workload} seed {seed}: bracket does not pass")
                digests[str(seed)] = sha256(out / "ids.csv")
            reference[workload] = {"ids.csv": digests}
        report = tmp / "trace.json"
        traced = [sys.executable, str(HERE / "tracing.py"), "--report", str(report), "--"]
        out = run_child(traced, "census-penrose", 0, tmp)
        census = json.loads((out / "census.json").read_text())
        if not census["flc_stable"]:
            raise SystemExit("census-penrose is not stable")
        reference["census-penrose"] = {
            "distinct": census["distinct"],
            "distinct_half_radius": census["distinct_half_radius"],
            "flc_stable": True,
            "census.csv": sha256(out / "census.csv"),
            "centres": json.loads(report.read_text())["metrics"]["patterns.pattern_at_calls"],
        }
    finally:
        shutil.rmtree(tmp)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

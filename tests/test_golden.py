"""Golden outputs: fixed small runs whose files must not change by a byte.

The digests were recorded from the estimator, the density report and the
census before their internals were rewritten; a change here means the
numbers the CLI writes have changed, not just the code that computes them.
The golden lifshits run also checks what the benchmark's tracer reports.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from percospec.cli import main

ROOT = Path(__file__).resolve().parent.parent

LIFSHITS_ARGV = [
    "lifshits", "--family", "square", "--radius", "40",
    "--counting-radius", "36", "--p", "0.1", "--realizations", "120",
    "--e-min", "0.1", "--e-max", "0.8", "--seed", "7",
]
LIFSHITS_SHA256 = {
    "ids.csv": "5dd0192c7ed259e4d8390b09a1d1d5289882877948e52312dd9a330447dfc340",
    "lifshits.json": "269ad9c007d3a58cb4479844cb2d40a789d4170ec508c2030d5c9acc6c38a857",
    "lifshits.csv": "24739825355c19b8df2764f09f4b49277b00ff768cdabdcabb88d9a491f56a2d",
}

CENSUS_ARGV = [
    "census", "--family", "penrose", "--radius", "16", "--pattern-radius", "0.9",
]
CENSUS_SHA256 = {
    "census.csv": "8acacaaef2e8898b141c078547a2dae13efd685e49ced6ab5982773208f67b30",
}


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("threads", ["1", "120"])
def test_lifshits_outputs_match_golden(tmp_path, threads):
    # 2 of the 120 realizations are truncated, so the boundary flag is
    # exercised, and rho_inf in lifshits.json comes from the density report;
    # at 120 threads every chunk is one realization, so the 2 truncated
    # realizations are whole chunks
    assert main(LIFSHITS_ARGV + ["--threads", threads, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, LIFSHITS_SHA256) == LIFSHITS_SHA256


def test_penrose_census_matches_golden(tmp_path):
    assert main(CENSUS_ARGV + ["--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, CENSUS_SHA256) == CENSUS_SHA256


def test_benchmark_tracer_sees_one_pass(tmp_path):
    # perfbench/tracing.py wraps the package's functions at the names its
    # callers look up; a refactor that moves them breaks every traced run
    tracer = [sys.executable, "perfbench/tracing.py"]
    run = dict(cwd=ROOT, capture_output=True, text=True, timeout=600)
    self_test = subprocess.run(tracer + ["--self-test"], **run)
    assert self_test.returncode == 0, self_test.stderr
    report_path = tmp_path / "report.json"
    argv = LIFSHITS_ARGV + ["--out", str(tmp_path / "out")]
    traced = subprocess.run(tracer + ["--report", str(report_path), "--"] + argv, **run)
    assert traced.returncode == 0, traced.stderr
    report = json.loads(report_path.read_text())
    assert report["problems"] == []
    metrics = report["metrics"]
    # every realization is sampled and decomposed once, by the estimator
    assert metrics["percolation.sample_calls"] == 120 == metrics["percolation.decompose_calls"]
    assert metrics["percolation.sample_reuse"] == 1.0

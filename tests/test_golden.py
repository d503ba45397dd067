"""Golden outputs: fixed small runs whose files must not change by a byte.

The digests were recorded from the estimator, the density report, the
census, the percolate statistics and the four patch generators before their
internals were rewritten;
a change here means the numbers the CLI writes have changed, not just the
code that computes them.  The golden lifshits run also checks what the
benchmark's tracer reports.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from percospec import cli, graphs
from percospec.cli import main
from percospec.graphs import dumps, generate

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

# aperiodic ids runs: 9 and 7 of the 40 realizations are truncated, and the
# kept ones have window-straddling clusters of 3 or more vertices
IDS_ARGV = [
    "ids", "--radius", "16", "--counting-radius", "12", "--p", "0.15",
    "--realizations", "40", "--seed", "5",
]
IDS_SHA256 = {
    "ammann_beenker": "f986265d2072111e3550abe4637cb63c254a08ded6cfc36b0d57d006cc540270",
    "penrose": "48f0aeae61e48c43c6dcd1b49634cbb2f866d6f995d5ecd49f7a63d76ff8fcb6",
}

# census.csv of three censuses; the Ammann-Beenker and triangular digests
# were recorded from the per-centre census, before it became a table of
# distinct neighbourhoods, and triangular r = 2.0 is a tie radius
CENSUS_RUNS = {
    "penrose": (
        ["--family", "penrose", "--radius", "16", "--pattern-radius", "0.9"],
        "8acacaaef2e8898b141c078547a2dae13efd685e49ced6ab5982773208f67b30",
    ),
    "ammann_beenker": (
        ["--family", "ammann_beenker", "--radius", "16", "--pattern-radius", "1.0"],
        "5b8ea7fe56c78afa7042f5b4a65346389d1136efa91852866b58176e8a4ce974",
    ),
    "triangular": (
        ["--family", "triangular", "--radius", "12", "--pattern-radius", "2.0"],
        "048ba379ea1e5dbea7c4cd0c46542f43f9e56321b50b43d617882e2a47debb6d",
    ),
}

# percolate on every aperiodic family and on a supercritical square patch
# whose interior lies in one giant cluster
PERCOLATE_RUNS = {
    "square": (
        ["--family", "square", "--radius", "45", "--p", "0.2",
         "--realizations", "20", "--seed", "3", "--n-max", "8"],
        {
            "clusters.csv": "5a853235a54d587e5ae8e805580bb5724a4fc77b870b86edd94a1797eb7ad10b",
            "bounds.json": "5cb6a4ca9d03a7422362bc62c1020b84fbf8000db1e4b8a6a17d1bf207b6e156",
        },
    ),
    "penrose": (
        ["--family", "penrose", "--radius", "30", "--p", "0.15",
         "--realizations", "60", "--seed", "4"],
        {
            "clusters.csv": "e4a86d940e1b822ae6c75af3a457ec2e0dc60069e2b69785fc2d9853b594815c",
            "bounds.json": "d1a3c03a839c6b85682cf9b34416713a97283c60a09863d1668370b080fbb033",
        },
    ),
    "ammann_beenker": (
        ["--family", "ammann_beenker", "--radius", "24", "--p", "0.13",
         "--realizations", "30", "--seed", "6"],
        {
            "clusters.csv": "061c32a1c5fdaf6b5383af6dbc5273c072ee95375870fcd06164e03fba642b35",
            "bounds.json": "d98e3074f42473a5e4fe01c1569a1352c093fb32aefae0437a5d4534f45acd84",
        },
    ),
    "square_supercritical": (
        ["--family", "square", "--radius", "20", "--p", "0.55",
         "--realizations", "8", "--seed", "2", "--n-max", "8"],
        {
            "clusters.csv": "b88b6c451bdfb5b215b1db92c0449e51f504afbaefa5ae557caabb4b3339fe20",
            "bounds.json": "d3e73c6a8cf8b4d76519b4cebd9d80d477d3b6db6440d1cd32052118c30e7e59",
        },
    ),
}

# SHA-256 of dumps(generate(...)) for the radii the suite and the benchmark
# generate; the triangular radii 1, 2, 8 and 12 sit exactly on lattice
# distances, so their rings of boundary vertices are left out whole
# (tests/test_graphs.py checks every patch against the exact open ball)
PATCH_SHA256 = {
    ("square", 40): "be1ea322ad103ddfb98694ed88a38b6dad3ee01ea9ef75f57bb6ca1893d350a3",
    ("square", 150): "429f8665df9124ebd28814f857705330252b6039fb85cd508f54d9708b3a8409",
    ("triangular", 1): "61fea5c19aefd5e8b7a17aa9007b49a2c049e77287bd61515c913755bcd117b3",
    ("triangular", 2): "d117857c0597fed0123ac61d7089b4a9ea88860e2a177b0d22759512230a27fa",
    ("triangular", 8): "be3b7ead7acb6e74d9b1e9f904659e44fa90169b793742d3472bec71eb451780",
    ("triangular", 12): "51d4c834188a6554178c7b03983cf4187f9c9eb14ec4cb2d22b477e677b0570f",
    ("penrose", 12): "bd26c0c6406cd5515d8bfc49be8ffb5f4ca7f49684e33b30238e9eb2dd54d374",
    ("penrose", 16): "d1518b5e2f07470f0691d1e673c2e51f7271491908a9ef2d22582748554f265f",
    ("penrose", 20): "9c692e3e1aac701ff82ea913c5124e6d305e79650e1bf0dfe448765fc9a0409e",
    ("penrose", 40): "b71c059ffc65dc6818794994793aa817e129a210351d424be5d7624f10ef66dc",
    ("ammann_beenker", 9): "6ec92d98978d49c01bbf1dc3a9ec3d82ebea601ac24b87f7dd5533219f69b866",
    ("ammann_beenker", 16): "447d69212d7af200bb720b247755f801439c55294403e7e950af9541d2bc8831",
    ("ammann_beenker", 40): "709c6254cb3e99f70bac9f65cdaa29746970749a51530d94c6f542b92e7c68a8",
    ("ammann_beenker", 45): "da489eb80231d581d565bebe63f72cecb359a694aff9cf7b547be4cee5ff4feb",
    ("ammann_beenker", 60): "40c2a3dc7038076e4e53ee28de3ca1caf1cf591fc9f4d24411b2a0ac64c4bf21",
}

# the same digest with a generator constant away from its value: a generic
# window shift, and dyadic pentagrid offsets that sum to zero
SPEC_SHA256 = [
    (
        ("ammann_beenker", 30.0), "_WINDOW_SHIFT", (0.0137, -0.0291),
        "76f61e88d6876469e884201661af5bf6e87e85e928846b5b2cdf6a0ccb392f2c",
    ),
    (
        ("penrose", 24.0), "_PENTAGRID_OFFSETS", (0.1875, -0.3125, 0.40625, 0.21875, -0.5),
        "b3f5daf9d7a84eba662da784b47fe4fc6d5816a388b7baa5151a203f4b452357",
    ),
]

GENERATE_ARGV = ["generate", "--family", "ammann_beenker", "--radius", "16"]
GENERATE_SHA256 = {
    "graph.txt": "447d69212d7af200bb720b247755f801439c55294403e7e950af9541d2bc8831",
    "geometry.json": "b844080a1ed60feb375e9cc202b5a3801153b9e951874958d16f916f657c19f5",
}


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("threads", ["1", "120"])
def test_lifshits_outputs_match_golden(tmp_path, monkeypatch, threads):
    # 2 of the 120 realizations are truncated, so the boundary flag is
    # exercised, and rho_inf in lifshits.json comes from the density report;
    # with as many usable CPUs as threads, 120 threads run 120 one-realization
    # chunks on any host, so the 2 truncated realizations are whole chunks
    monkeypatch.setattr(cli, "_usable_cpus", lambda: int(threads))
    assert main(LIFSHITS_ARGV + ["--threads", threads, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, LIFSHITS_SHA256) == LIFSHITS_SHA256


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("family", sorted(IDS_SHA256))
def test_aperiodic_ids_matches_golden(tmp_path, monkeypatch, family, threads):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: int(threads))
    argv = IDS_ARGV + ["--family", family, "--threads", threads, "--out", str(tmp_path)]
    assert main(argv) == 0
    assert _digests(tmp_path, ["ids.csv"]) == {"ids.csv": IDS_SHA256[family]}


@pytest.mark.parametrize("family,radius", sorted(PATCH_SHA256))
def test_patch_matches_golden(family, radius):
    g = generate(family, float(radius))
    digest = hashlib.sha256(dumps(g).encode()).hexdigest()
    assert digest == PATCH_SHA256[(family, radius)]


@pytest.mark.parametrize("patch,constant,value,digest", SPEC_SHA256,
                         ids=["ammann_beenker", "penrose"])
def test_nondefault_spec_matches_golden(monkeypatch, patch, constant, value, digest):
    monkeypatch.setattr(graphs, constant, value)
    assert hashlib.sha256(dumps(generate(*patch)).encode()).hexdigest() == digest


def test_generate_outputs_match_golden(tmp_path):
    assert main(GENERATE_ARGV + ["--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, GENERATE_SHA256) == GENERATE_SHA256


@pytest.mark.parametrize("family", sorted(CENSUS_RUNS))
def test_census_matches_golden(tmp_path, family):
    argv, digest = CENSUS_RUNS[family]
    assert main(["census", *argv, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, ["census.csv"]) == {"census.csv": digest}


@pytest.mark.parametrize("run", sorted(PERCOLATE_RUNS))
def test_percolate_outputs_match_golden(tmp_path, run):
    argv, digests = PERCOLATE_RUNS[run]
    assert main(["percolate", *argv, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, digests) == digests


def test_benchmark_tracer_sees_one_pass(tmp_path):
    # perfbench/tracing.py wraps the package's functions at the names its
    # callers look up (spectral.sample, spectral.decompose,
    # spectral.eigensystem, spectral.eigenvalues, cli.run_ids,
    # cli.ids_estimate, cli.ThreadPoolExecutor) and binds ids_estimate's g,
    # counting_radius and flag_boundary; a refactor that drops one of these
    # breaks every traced run
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
    # every realization is sampled once, by the estimator, which decomposes
    # each batch as one block-diagonal graph: a call to the traced
    # per-realization decompose would be a second pass over the realizations
    assert metrics["percolation.sample_calls"] == 120
    assert metrics["percolation.decompose_calls"] == 0
    assert metrics["percolation.sample_reuse"] == 1.0

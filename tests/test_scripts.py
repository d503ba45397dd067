"""Smoke tests for the scripts under scripts/: each runs end to end."""

import os
import subprocess
import sys
from pathlib import Path

from percospec.percolation import bounds_report

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("square", "triangular", "penrose", "ammann_beenker")


def test_compare_families_prints_one_row_per_family():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "scripts/compare_families.py", "--radius", "12"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    first_words = [line.split()[0] for line in run.stdout.splitlines() if line.strip()]
    assert [w for w in first_words if w in FAMILIES] == list(FAMILIES)
    # the bounds use the declared d_max 4 and l_max 1, not measured ones
    square = next(line.split() for line in run.stdout.splitlines() if line.startswith("square"))
    assert square[9] == f"{bounds_report(0.15, 4, 1.0).psi_decay:.4f}"

"""Every command runs on numpy alone, and none loads ``numpy.ma``.

Importing scipy takes a process longer than a short ``census`` run's own
work and nearly doubles its peak memory; only the tests use it.  numpy
imports ``numpy.ma`` lazily, on the first ``np.unique`` call that asks for
no index or count array, and that import costs a short run 10-18 ms.  So
each command runs here in a fresh interpreter, which must end with no
``scipy`` module loaded and without ``numpy.ma``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

RUN = """
import json, sys
from percospec.cli import main
code = main(sys.argv[1:])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps([code, scipy, "numpy.ma" in sys.modules]))
"""

TINY_RUNS = {
    "generate": ["--radius", "8"],
    "census": ["--radius", "8", "--pattern-radius", "1.2"],
    "percolate": ["--radius", "20", "--p", "0.15", "--realizations", "2", "--n-max", "4"],
    "ids": ["--radius", "12", "--counting-radius", "8", "--realizations", "2"],
    "lifshits": ["--radius", "40", "--counting-radius", "36", "--p", "0.1",
                 "--realizations", "120", "--e-min", "0.1", "--e-max", "0.8", "--seed", "7"],
    "verify": [],
}


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_command_imports_no_scipy(tmp_path, command):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [command, *TINY_RUNS[command], "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, scipy, masked = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert scipy == []
    assert not masked

"""No module imports a name it never uses, and the package needs numpy alone.

A stand-in for a linter's unused-import rule (F401): every file under
``src/``, ``tests/`` and ``scripts/`` is parsed with ``ast``, and a name an
import binds must be read somewhere in the file, be listed in ``__all__``,
or sit on a line marked ``# noqa: F401``.  The same parse checks that
``src/`` imports only the standard library, numpy and the package itself,
and ``pyproject.toml`` lists numpy as the one runtime dependency.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each imported name the source never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # name -> line of the alias that binds it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return [
        f"{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used | exported and "# noqa: F401" not in lines[line - 1]
    ]


def test_scan_covers_every_tree():
    assert {path.split("/")[0] for path in FILES} == {"src", "tests", "scripts"}


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["1: os", "3: dumps"]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports, relative imports
    as ``percospec``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("percospec" if node.level else node.module.split(".")[0])
    return found


def test_import_scan_finds_each_module():
    source = "import os.path\nfrom . import graphs\ndef f():\n    from scipy import sparse\n"
    assert imported_modules(source) == {"os", "percospec", "scipy"}


@pytest.mark.parametrize("path", [p for p in FILES if p.startswith("src/")])
def test_src_imports_stdlib_and_numpy_only(path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "percospec"}
    assert imported_modules((ROOT / path).read_text()) - allowed == set()


def test_numpy_is_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]

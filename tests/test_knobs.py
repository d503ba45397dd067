"""No ``src/`` function has a defaulted parameter, and no ``src/``
dataclass a defaulted field, that only tests set.

A stand-in for a dead-parameter lint: every function defined under ``src/``
is parsed with ``ast``, and each parameter with a default must be passed,
by keyword or by position, by some call under ``src/``, ``scripts/`` or
``perfbench/``.  Calls are matched to functions by name (``f(...)`` and
``obj.f(...)`` both call ``f``).  Each defaulted field of a ``@dataclass``
must likewise be passed by some constructor call, matched by class name.
A knob that only tests turn belongs in a module constant, read at call
time, that the tests monkeypatch; the allowlists name the exceptions and
why each stays.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "canonicalize(colours)": "coloured patterns are part of acceptance criterion 6",
    "cluster_size_tail_statistic(margin)": "tests pass a margin to keep their patches small",
    "boundary_path_statistic(margin)": "tests pass a margin to keep their patches small",
}

ALLOWED_FIELDS: dict[str, str] = {}

# dataclasses none of whose defaulted fields needs a constructor call
ALLOWED_CLASSES = {
    "ExperimentConfig": "load_config and merge_flags set its fields with setattr, "
    "as cli._SETTINGS declares them",
}


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) for each parameter with a default.
    The position counts the arguments a call writes, so it skips a
    method's ``self``; it is None for a keyword-only parameter."""
    found = []

    def visit(body, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, True)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i in range(first, len(positional)):
                    found.append((node.name, positional[i].arg, i - in_class))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((node.name, arg.arg, None))
                visit(node.body, False)

    visit(ast.parse(source).body, False)
    return found


def defaulted_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, position) for each field with a default (a value or
    a ``field(...)``) of each ``@dataclass`` class; the position counts
    the class's fields in declaration order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            continue
        fields = [s for s in node.body
                  if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                  and "ClassVar" not in ast.unparse(s.annotation)]
        for i, stmt in enumerate(fields):
            if stmt.value is not None:
                found.append((node.name, stmt.target.id, i))
    return found


def _passed(calling: list[str]) -> tuple[dict[str, int], dict[str, set[str]]]:
    """Per called name, the most positional arguments any call passes and
    every keyword some call passes.  A ``*args`` call passes every
    position, a ``**kwargs`` call every keyword (recorded as ``**``)."""
    positions: dict[str, int] = defaultdict(int)
    keywords: dict[str, set[str]] = defaultdict(set)
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positions[name] = max(positions[name], 10**6 if starred else len(node.args))
                keywords[name] |= {kw.arg or "**" for kw in node.keywords}
    return positions, keywords


def unpassed_fields(defining: list[str], calling: list[str]) -> list[str]:
    """``Class(field)`` for each defaulted dataclass field of the
    ``defining`` sources that no constructor call in the ``calling``
    sources passes."""
    positions, keywords = _passed(calling)
    return sorted(
        f"{cls}({name})"
        for source in defining
        for cls, name, position in defaulted_fields(source)
        if not ({name, "**"} & keywords[cls] or position < positions[cls])
    )


def unpassed_knobs(defining: list[str], calling: list[str]) -> list[str]:
    """``function(parameter)`` for each defaulted parameter of the
    ``defining`` sources that no call in the ``calling`` sources passes.
    A ``*args`` call passes every position, a ``**kwargs`` call every
    keyword."""
    positions, keywords = _passed(calling)
    return sorted(
        f"{func}({param})"
        for source in defining
        for func, param, position in defaulted_parameters(source)
        if not ({param, "**"} & keywords[func]
                or (position is not None and position < positions[func]))
    )


def _sources(*folders: str) -> list[str]:
    return [path.read_text() for folder in folders for path in sorted((ROOT / folder).rglob("*.py"))]


def test_scan_finds_an_unpassed_knob():
    defining = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def m(self, x=0, y=1):\n        pass\n"
    )
    calling = "f(0, 5)\nf(0, d=1)\nk.m(2)\n"
    assert unpassed_knobs([defining], [calling]) == ["f(c)", "m(y)"]


def test_only_allowlisted_knobs():
    knobs = unpassed_knobs(_sources("src"), _sources("src", "scripts", "perfbench"))
    assert knobs == sorted(ALLOWED)


def test_scan_finds_an_unpassed_field():
    defining = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\nclass A:\n"
        "    x: int\n    y: int = 1\n    z: list = field(default_factory=list)\n"
        "    w: int = 2\n"
        "class Plain:\n    v: int = 0\n"
    )
    calling = "A(0, 1)\nA(x=0, w=3)\nPlain()\n"
    assert unpassed_fields([defining], [calling]) == ["A(z)"]


def test_only_allowlisted_fields():
    fields = unpassed_fields(_sources("src"), _sources("src", "scripts", "perfbench"))
    assert [f for f in fields if f.split("(")[0] not in ALLOWED_CLASSES] == sorted(ALLOWED_FIELDS)

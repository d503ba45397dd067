"""Each graph family is declared once, in ``graphs.FAMILIES``.

An ``ast`` scan of ``src/``: the names of the triangular and the two
aperiodic families occur as string literals only inside the ``FAMILIES``
table, and no code compares a ``family`` or a ``basis.id`` to a string
literal, so every per-family fact is read from the family's record instead
of being dispatched on its name.  ``"square"`` stays allowed: it is the
configuration default and the family of the ``verify`` checks.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path.relative_to(ROOT).as_posix() for path in (ROOT / "src").rglob("*.py"))

TABLE_ONLY = {"triangular", "penrose", "ammann_beenker"}


def _in_table(tree: ast.AST) -> set[int]:
    """ids of the nodes inside an assignment to ``FAMILIES``."""
    inside = set()
    for node in ast.walk(tree):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        if any(isinstance(t, ast.Name) and t.id == "FAMILIES" for t in targets):
            inside |= {id(n) for n in ast.walk(node)}
    return inside


def _names_a_family(node: ast.AST) -> bool:
    """``family``, ``<x>.family``, ``basis.id`` or ``<x>.basis.id``."""
    if isinstance(node, ast.Name):
        return node.id == "family"
    if not isinstance(node, ast.Attribute):
        return False
    if node.attr == "family":
        return True
    owner = node.value
    return node.attr == "id" and (
        (isinstance(owner, ast.Name) and owner.id == "basis")
        or (isinstance(owner, ast.Attribute) and owner.attr == "basis")
    )


def _is_literal(node: ast.AST) -> bool:
    """A string constant, or a tuple, list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_literal(e) for e in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def family_dispatch(source: str) -> list[str]:
    """``line: what`` for each family name outside the table and each
    comparison of a family with a string literal."""
    tree = ast.parse(source)
    table = _in_table(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in TABLE_ONLY and id(node) not in table:
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(_names_a_family, sides)) and any(map(_is_literal, sides)):
                found.append((node.lineno, "family compared with a literal"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_scan_covers_the_family_table_and_its_readers():
    assert {"src/percospec/graphs.py", "src/percospec/cli.py"} <= set(FILES)


def test_scan_finds_a_family_dispatch():
    source = (
        "FAMILIES = {'penrose': 1, 'ammann_beenker': 2}\n"
        "def generate(spec, g, family):\n"
        "    if spec.family == 'penrose':\n"
        "        return 'ammann_beenker'\n"
        "    if g.basis.id in ('square', 'kagome'):\n"
        "        return family != 'square'\n"
    )
    assert family_dispatch(source) == [
        "3: 'penrose'",
        "3: family compared with a literal",
        "4: 'ammann_beenker'",
        "5: family compared with a literal",
        "6: family compared with a literal",
    ]


@pytest.mark.parametrize("path", FILES)
def test_families_declared_only_in_the_table(path):
    assert family_dispatch((ROOT / path).read_text()) == []

"""Every ball decision of the package is made by ``graphs.norm_sign``.

An ``ast`` scan of ``src/``: no code reads ``hypot``, ``boundary_distance``
or ``contains`` (the float ball tests that disagree at exact-distance
ties), and the float pair query ``EmbeddedGraph.near_pairs`` is read only
by ``_inside_pairs``, which lets ``norm_sign`` decide on its pairs for the
census table, and by ``geometry_report``, for the nearest pair, which
decides no ball.  No code builds a KD-tree.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path.relative_to(ROOT).as_posix() for path in (ROOT / "src").rglob("*.py"))

FLOAT_BALL_TESTS = {"hypot", "boundary_distance", "contains"}
# float neighbour queries, and the functions allowed to read each: none
# for a KD-tree
NEIGHBOUR_QUERIES = {"near_pairs", "cKDTree", "KDTree"}
CANDIDATE_USERS = {"near_pairs": {"_inside_pairs", "geometry_report"}}


def references(source: str) -> list[tuple[str, str | None, int]]:
    """(name, enclosing function, line) for every name or attribute read."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.functions = [None]

        def visit_FunctionDef(self, node):
            self.functions.append(node.name)
            self.generic_visit(node)
            self.functions.pop()

        def visit_Name(self, node):
            found.append((node.id, self.functions[-1], node.lineno))

        def visit_Attribute(self, node):
            found.append((node.attr, self.functions[-1], node.lineno))
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def stray_ball_tests(source: str) -> list[str]:
    """``line: name`` for each float ball test, and each float neighbour
    query outside the functions allowed to read it."""
    return [
        f"{line}: {name}"
        for name, function, line in references(source)
        if name in FLOAT_BALL_TESTS
        or name in NEIGHBOUR_QUERIES and function not in CANDIDATE_USERS.get(name, ())
    ]


def test_scan_covers_the_modules_that_decide_balls():
    assert {"src/percospec/graphs.py", "src/percospec/patterns.py"} <= set(FILES)


def test_scan_finds_a_stray_ball_test():
    source = (
        "from scipy.spatial import cKDTree\n"
        "def _inside_pairs(g):\n"
        "    return g.near_pairs(1.0)\n"
        "def window(g, r):\n"
        "    near = cKDTree(g.embed).query(0) + g.near_pairs(r)\n"
        "    return np.hypot(1, 2) < r and g.box.contains(near)\n"
        "def geometry_report(g):\n"
        "    return g.near_pairs(g.l_max), cKDTree(g.embed)\n"
        "class Ball:\n"
        "    def contains(self, points):\n"
        "        return points\n"
    )
    assert stray_ball_tests(source) == [
        "5: cKDTree", "5: near_pairs", "6: hypot", "6: contains", "8: cKDTree",
    ]


@pytest.mark.parametrize("path", FILES)
def test_no_float_ball_test_in_src(path):
    assert stray_ball_tests((ROOT / path).read_text()) == []

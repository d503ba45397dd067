"""The run record is closed in one place: ``cli.main``.

An ``ast`` scan of ``src/``: every ``.finish(`` call, the close of an
``OutputWriter``, lies inside ``main`` of ``cli.py``, which calls it once,
whatever code the command returns.  No command closes or patches the
record itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path.relative_to(ROOT).as_posix() for path in (ROOT / "src").rglob("*.py"))


def finish_calls(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) for every call of a ``finish`` method."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.functions = [None]

        def visit_FunctionDef(self, node):
            self.functions.append(node.name)
            self.generic_visit(node)
            self.functions.pop()

        def visit_Call(self, node):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "finish":
                found.append((self.functions[-1], node.lineno))
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def test_scan_finds_every_finish_call():
    source = (
        "def cmd_census(cfg, g, writer):\n"
        "    writer.finish()\n"
        "def main(argv):\n"
        "    w = OutputWriter('census', cfg)\n"
        "    def close():\n"
        "        w.finish()\n"
        "    w.finish()\n"
        "finish()\n"
    )
    assert finish_calls(source) == [("cmd_census", 2), ("close", 6), ("main", 7)]


def test_only_main_closes_the_run_record():
    calls = [(path, function) for path in FILES
             for function, _ in finish_calls((ROOT / path).read_text())]
    assert calls == [("src/percospec/cli.py", "main")]

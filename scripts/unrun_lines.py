"""List the rumorcast statements that the tier-1 tests never run.

Runs the tier-1 suite in this process under a ``sys.settrace`` line
tracer, with ``--hypothesis-seed 0`` so the generated cases repeat, then
lists every statement of ``src/rumorcast`` on none of whose lines a line
event fired.  Docstrings and ``def``, ``class`` and ``import`` statements
do not count, and a statement inside one that never ran is not listed
again.  Hypothesis runs without its deadline and health checks here:
they judge how fast and how freely cases are generated, which tracing
and a fixed seed change, and the untraced tier-1 run still applies them.

Exits 0 when every listed statement is in ALLOWED, which is keyed by file
and statement text and gives each entry the reason it may stay unrun; 1
when a statement outside it never ran, when an entry of it ran or is gone,
or when a test failed.  The traced suite takes a few minutes.

Example:
    python3 scripts/unrun_lines.py
"""

from __future__ import annotations

import ast
import glob
import os
import sys

import pytest
from hypothesis import HealthCheck, settings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "rumorcast")
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "--hypothesis-seed",
               "0", os.path.join(ROOT, "tests")]
ALLOWED = {
    ("cli.py", "raise SystemExit(main())"):
        "the __main__ guard runs only when the module is a script",
    ("scenario.py",
     'extra.append("interference survived the collision-free transform")'):
        "an invariant probe: make_collision_free leaves no collision",
    ("backbone.py",
     'raise DisconnectedError("no connected dominating set exists")'):
        "unreachable: the whole node set of a connected graph is a CDS",
}
NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
               ast.Import, ast.ImportFrom)


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """The pytest exit code and, per source file, the lines that ran."""
    hits: dict[str, set[int]] = {p: set() for p in
                                 glob.glob(os.path.join(SRC, "*.py"))}

    def on_call(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    sys.path.insert(0, os.path.dirname(SRC))
    settings.register_profile("traced", deadline=None,
                              suppress_health_check=list(HealthCheck))
    settings.load_profile("traced")
    sys.settrace(on_call)
    try:
        code = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
    return code, hits


def _own_lines(node: ast.stmt) -> range:
    """A statement's lines without those of the statements it holds."""
    inner = [c.lineno for c in ast.iter_child_nodes(node)
             if isinstance(c, (ast.stmt, ast.excepthandler))]
    return range(node.lineno, min(inner, default=node.end_lineno + 1))


def unrun(path: str, ran: set[int]) -> list[tuple[int, str]]:
    """(line, statement text) of each counted statement that never ran."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    text = source.splitlines()
    out = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child)  # the bodies of except handlers
                continue
            docstring = (isinstance(child, ast.Expr)
                         and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))
            own = _own_lines(child)
            if (isinstance(child, NOT_COUNTED) or docstring
                    or not ran.isdisjoint(own)):
                visit(child)
            else:
                statement = " ".join(text[i - 1].strip() for i in own)
                out.append((child.lineno, statement.rstrip(":")))

    visit(ast.parse(source, path))
    return out


def main() -> int:
    code, hits = run_traced()
    failed = code != 0
    if failed:
        print(f"the traced tests exited {int(code)}")
    listed = set()
    for path in sorted(hits):
        name = os.path.basename(path)
        for line, statement in unrun(path, hits[path]):
            listed.add((name, statement))
            reason = ALLOWED.get((name, statement))
            failed |= reason is None
            note = f"allowed: {reason}" if reason else "NOT ALLOWED"
            print(f"src/rumorcast/{name}:{line}: {statement}  [{note}]")
    for name, statement in sorted(set(ALLOWED) - listed):
        failed = True
        print(f"allowed but ran or gone: {name}: {statement}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Count the physical and the code lines of the rumorcast sources.

A code line holds at least one token of a statement: blank lines, comment
lines and docstrings (a statement that is only a string) do not count.
The count comes from ``tokenize``, so a ``#`` or a triple quote inside a
string cannot fool it.  One row per module, then the total, in the same
order as ``wc -l src/rumorcast/*.py``.

Example:
    python3 scripts/code_lines.py
"""

from __future__ import annotations

import glob
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "rumorcast")
LAYOUT = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.INDENT,
                    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER})


def count_lines(path: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source file."""
    with open(path, "rb") as fh:
        physical = fh.read().count(b"\n")
        fh.seek(0)
        tokens = list(tokenize.tokenize(fh.readline))
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokens:
        if tok.type in LAYOUT:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if any(t.type != tokenize.STRING for t in statement):
            for t in statement:
                code.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return physical, len(code)


def main() -> int:
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    rows = [(*count_lines(p), os.path.relpath(p)) for p in paths]
    rows.append((sum(r[0] for r in rows), sum(r[1] for r in rows), "total"))
    sys.stdout.write(f"{'lines':>7} {'code':>7}\n")
    for physical, code, name in rows:
        sys.stdout.write(f"{physical:>7} {code:>7} {name}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Count the lines and the code lines of each module of a Python package.

Code lines are the lines left after removing blank lines, comment-only lines
and docstrings: the first string statement of a module, class or function,
found with `ast`. Comments are found with `tokenize`.

Usage: python scripts/loc.py [package directory, default src/symplat]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens that make no line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree):
    """The (start, end) positions of every docstring in `tree`."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def counts(source):
    """(lines, code lines) of the Python `source`."""
    spans = _docstrings(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else ROOT / "src" / "symplat"
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Code lines of each Python module of a package and their total: lines that
hold a token of code, so blank lines, comments and docstrings do not count.

    python3 tools/code_lines.py [PACKAGE_DIR]   # default: src/relphase

A docstring is a string-constant statement that opens a module, class or
function body (what ``ast.get_docstring`` reads); every line it spans is
left out.  A line that holds both code and a comment counts once.  Prints
one ``<lines>  <file>`` row per module, sorted by path, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the docstrings of the module, classes and
    functions of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "relphase"
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(package)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Count the code lines and docstring lines of each module of ``src/selbergdim``.

A code line holds at least one token that is not a comment, a line break,
an indent or a dedent, and is not part of a docstring. A docstring line is
a line of the string literal that opens a module, class or function body.
Blank and comment-only lines count as neither.

Usage:
    python scripts/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/selbergdim`` next to this script's parent.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "selbergdim"
    total_code = total_docs = 0
    print(f"{'module':<16}{'code':>6}{'docstring':>11}")
    for path in sorted(root.glob("*.py")):
        code, docs = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_docs += docs
        print(f"{path.name:<16}{code:>6}{docs:>11}")
    print(f"{'total':<16}{total_code:>6}{total_docs:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

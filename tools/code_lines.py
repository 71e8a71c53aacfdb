"""Count the code lines of each module in ``src/spinstar``.

A code line is a line that holds part of a Python token other than a
comment, a docstring or layout (newlines, indentation).  Docstrings are the
string expressions that open a module, class or function body, found with
``ast``; the rest comes from ``tokenize``.  So a trimmed docstring or comment
leaves the count as it was.  Each module's ``wc -l`` count is printed beside
it.

Usage: ``python tools/code_lines.py [directory]``; the default directory is
the repository's ``src/spinstar``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file at ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "spinstar"
    total_code = total_wc = 0
    print(f"{'module':<16}{'code':>6}{'wc -l':>8}")
    for path in sorted(root.glob("*.py")):
        code, wc = code_lines(path), path.read_bytes().count(b"\n")
        total_code += code
        total_wc += wc
        print(f"{path.name:<16}{code:>6}{wc:>8}")
    print(f"{'total':<16}{total_code:>6}{total_wc:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

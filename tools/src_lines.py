"""Line counts of the globalcert package, the tracked size of `src/`.

For each module it prints the total lines and the code lines: lines that
are not blank, not only a comment and not part of a docstring. Run from
anywhere:

    python3 tools/src_lines.py [package directory]

The package directory defaults to this checkout's `src/globalcert`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "globalcert"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment or layout, outside
    docstrings."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else PACKAGE
    total = code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        counts = (len(source.splitlines()), code_lines(source))
        total, code = total + counts[0], code + counts[1]
        print(f"{path.name:<16}{counts[0]:>7}{counts[1]:>7}")
    print(f"{'total':<16}{total:>7}{code:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])

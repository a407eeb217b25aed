"""Count the code lines of Python files: lines of code without comments or docstrings.

A line counts when it holds a token other than a comment, a line break
(NL, NEWLINE), an INDENT or a DEDENT, and lies outside every module,
class and function docstring. A token that spans lines, such as a
multi-line string, counts on each of them. Blank lines and the end
marker, which lies past the last line, never count.

Usage: python tools/code_lines.py FILE...

Prints one line per file, ``<code lines> <path>``, then ``<total> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in the tree."""
    lines: set[int] = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """The number of code lines in the Python source file at ``path``."""
    with tokenize.open(path) as source:
        text = source.read()
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text, path)))


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count} {path}")
    print(f"{total} total")


if __name__ == "__main__":
    main(sys.argv[1:])

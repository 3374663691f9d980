"""Count the code lines of Python source files.

    python3 tools/code_lines.py <file.py> [file.py ...]

A code line is a line that holds a token of code: blank lines, comment-only
lines and the lines of docstrings (the leading string of a module, class or
function, found with ``ast``) do not count. A statement spanning several
lines counts each line it holds a token on, and a string that is not a
docstring counts every line it spans. Prints one "<count> <path>" line per
file, in the order given, then "<total> total".
"""

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a Python source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in argv[1:]:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

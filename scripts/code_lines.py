"""Code lines of Python modules: each module's count and their total.

A code line is a line that is not blank, not a comment and not inside a
module, class or function docstring.  A line that holds code and a
trailing comment is a code line, and so is every line of a multi-line
string that is not a docstring.  A directory stands for every ``*.py``
file under it.  By default it counts the package and ``scripts/`` of this
checkout together, so that code moved between them leaves the total as
it is.

Usage: python3 scripts/code_lines.py [PATH ...]   (default src/salsa_deconv
           and scripts of this checkout)
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT = [ROOT / "src" / "salsa_deconv", ROOT / "scripts"]
# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths: list[Path]) -> list[Path]:
    """``paths`` with each directory replaced by the ``*.py`` files under it, in order."""
    found = []
    for path in paths:
        if path.is_dir():
            found.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            found.append(path)
        else:
            raise SystemExit(f"{path}: no such file or directory")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("paths", nargs="*", type=Path, default=DEFAULT,
                        help="Python files or directories (default: src/salsa_deconv "
                             "and scripts)")
    args = parser.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    sys.exit(main())

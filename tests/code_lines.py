"""File lines and code lines of each ``src/stnoma`` module.

Usage, from the repository root::

    python tests/code_lines.py

Prints one line per module, ``<module> <file lines> <code lines>``, and a
total. Code lines are the lines that are not blank, not a comment alone and
not part of a docstring (the string that opens a module, class or function
body). These are the counts ROADMAP.md and CHANGES.md quote.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stnoma"


def counts(text):
    """``(file lines, code lines)`` of the Python source ``text``."""
    lines = text.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = sum(
        1 for number, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )
    return len(lines), code


def main():
    total = [0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{path.name} {lines} {code}")
    print(f"total {total[0]} {total[1]}")
    return total


if __name__ == "__main__":
    main()

"""Statement lines of ``src/stnoma`` that none of the verbs executes.

Usage, from the repository root::

    python tests/verb_lines.py

It runs each command line of ``RUNS`` through ``stnoma.cli.main`` in this
process, with the run's ``STNOMA_`` variables set and its outputs in a
temporary directory, under a ``sys.settrace`` hook that records every line
of the package executed, imports included (the hook is set before
``stnoma`` is imported). It then prints, per module, the statement lines
that no run reached, as ``<module> <count>`` and one ``<line> <source>``
row each, and a total. A statement counts as reached when any line of it
runs (for a compound statement, any line of its header). Stdlib only.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stnoma"

# (command line, STNOMA_ variables) of each run; region and convergence get
# an --out directory of their own
RUNS = (
    (["region", "--trials", "2"], {"STNOMA_N": "5", "STNOMA_M1": "3", "STNOMA_M2": "3"}),
    (["region", "--trials", "2"], {"STNOMA_N": "6", "STNOMA_M1": "4", "STNOMA_M2": "4"}),
    (["check", "--trials", "20"], {}),
    (["convergence"], {}),
)


def statement_spans(text):
    """``{first line: (first, last)}`` of every statement of the source
    ``text`` but a docstring (which compiles to no code); a compound
    statement spans its decorators and its header only."""
    tree = ast.parse(text)
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans.setdefault(node.lineno, (first, last))
    return spans


def executed_lines(runs):
    """``{file name: set of line numbers}`` of the package lines the runs
    execute, imports included."""
    prefix = str(PACKAGE) + os.sep
    seen = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(global_)
    try:
        import stnoma.cli

        with tempfile.TemporaryDirectory() as tmp:
            for index, (argv, env) in enumerate(runs):
                if argv[0] != "check":
                    argv = [*argv, "--out", os.path.join(tmp, str(index))]
                with mock.patch.dict(os.environ, env), \
                        contextlib.redirect_stdout(io.StringIO()):
                    status = stnoma.cli.main(argv)
                if status != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {status}")
    finally:
        sys.settrace(None)
    return {Path(name).name: lines for name, lines in seen.items()}


def main():
    seen = executed_lines(RUNS)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        ran = seen.get(path.name, set())
        missed = [line for line, (first, last) in sorted(statement_spans(text).items())
                  if ran.isdisjoint(range(first, last + 1))]
        total += len(missed)
        print(f"{path.name} {len(missed)}")
        for line in missed:
            print(f"  {line} {source[line - 1].strip()}")
    print(f"total {total}")
    return total


if __name__ == "__main__":
    main()

"""Every import of the package is used, or is a trace seam that says so.

No linter runs on this repository, so this test enforces what the
``# noqa: F401`` markers claim: an imported name that its module never
references and does not export must carry the marker, and a marked import
must stay unused.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stnoma"
MARKER = "# noqa: F401  bench/tracing.py patches it here"


def imports(path):
    """``(name, used, marked)`` of each name an import in ``path`` binds:
    whether the module reads it or lists it in ``__all__``, and whether its
    line carries the marker."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                marked = lines[alias.lineno - 1].rstrip().endswith(MARKER)
                yield name, name in used, marked


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_unused_imports_are_marked_trace_seams(path):
    found = list(imports(path))
    assert found
    assert [name for name, used, marked in found if not used and not marked] == []
    assert [name for name, used, marked in found if used and marked] == []

import subprocess
import sys
from pathlib import Path

import code_lines

SCRIPT = Path(code_lines.__file__)


def test_code_lines_prints_every_module_and_the_total():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    modules = sorted(path.name for path in code_lines.PACKAGE.glob("*.py"))
    assert [name for name, *_ in rows] == modules + ["total"]
    counts = [(int(lines), int(code)) for _, lines, code in rows]
    assert all(0 < code < lines for lines, code in counts[1:])
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1])))


def test_code_lines_skip_blank_comment_and_docstring_lines():
    text = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # a code line\n"
        "\n"
        "def f():\n"
        '    """Docstring."""\n'
        '    return """not a\n'
        '    docstring"""\n'
    )
    assert code_lines.counts(text) == (10, 4)

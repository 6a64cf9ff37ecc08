import subprocess
import sys
from pathlib import Path

import verb_lines

SCRIPT = Path(verb_lines.__file__)

# 1-trial runs of every verb, in a fresh interpreter: the trace must see
# stnoma imported
SMOKE = """
import verb_lines
verb_lines.RUNS = (
    (["region", "--trials", "1", "--mu-steps", "2"], {"STNOMA_N": "6", "STNOMA_M1": "4",
                                                      "STNOMA_M2": "4"}),
    (["check", "--trials", "1"], {}),
    (["convergence"], {"STNOMA_CCP_MAX_ITERS": "2"}),
)
verb_lines.main()
"""


def test_verb_lines_lists_each_module_and_the_lines_no_run_reaches():
    out = subprocess.run([sys.executable, "-c", SMOKE], cwd=SCRIPT.parent, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    modules, missed = {}, {}
    for line in out.splitlines():
        if line.startswith("  "):
            number, source = line.split(None, 1)
            missed.setdefault(name, {})[int(number)] = source
        else:
            name, count = line.split()
            modules[name] = int(count)
    total = modules.pop("total")
    assert sorted(modules) == sorted(p.name for p in verb_lines.PACKAGE.glob("*.py"))
    assert total == sum(modules.values())
    assert all(len(missed.get(name, {})) == count for name, count in modules.items())
    cli_source = (verb_lines.PACKAGE / "cli.py").read_text().splitlines()
    main_line = cli_source.index("def main(argv=None):") + 1
    # the module's import ran, main ran, and the __main__ guard's body did not
    assert main_line not in missed["cli.py"]
    assert "raise SystemExit(main())" in missed["cli.py"].values()


def test_statement_spans_skip_docstrings_and_bodies_of_compound_statements():
    text = (
        '"""Module docstring."""\n'
        "@decorator\n"
        "def f(a,\n"
        "      b):\n"
        '    """Docstring."""\n'
        "    return (a +\n"
        "            b)\n"
        "if x: y = 1\n"
    )
    assert verb_lines.statement_spans(text) == {
        3: (2, 4), 6: (6, 7), 8: (8, 8),
    }

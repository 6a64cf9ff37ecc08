"""Start-up cost of the package, as the benchmark's ``setup_s`` measures it.

Usage, from the repository root::

    python tests/startup_probe.py [--runs 21] [--src path/to/src]

Starts ``--runs`` fresh interpreters, one after another. Each imports numpy
and then runs the benchmark's own set-up step (``SETUP_CODE`` of
``bench/measure.py``: ``import stnoma`` and ``load_scenario`` with the
``region_ref`` scenario) on the package under ``--src`` (default: this
checkout's ``src``). It prints the median milliseconds of that step after
numpy. Pass another checkout's ``src`` to compare two commits on the same
host. Where bytecode
is not written (``PYTHONDONTWRITEBYTECODE=1``) and ``--src`` holds no fresh
``__pycache__``, every start-up also compiles the sources, as the
benchmark's does. The bench modules are loaded read-only.
"""

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import stnoma.cli  # noqa: E402,F401  loaded first, as the bench modules import it
from bench_modules import load  # noqa: E402

workloads = load("workloads")
checks = load("checks", workloads=workloads)
tracing = load("tracing")
measure = load("measure", checks=checks, tracing=tracing, workloads=workloads)

# Runs before the set-up step: numpy loads untimed, as in the benchmark's
# baseline probe.
PRELUDE = """\
import time
import numpy
start = time.perf_counter()
"""
POSTLUDE = """
print(1e3 * (time.perf_counter() - start))
"""


def start_up(code, src):
    """Milliseconds after numpy of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        cwd=Path(src).parent, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    if out[0] != "ready":
        raise RuntimeError(f"set-up interpreter printed {out[0]!r}")
    return float(out[1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=21)
    p.add_argument("--src", type=Path, default=TESTS.parent / "src")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be >= 1")
    workload = workloads.WORKLOADS["region_ref"]
    setup = measure.SETUP_CODE.format(args=workload.scenario_args(0))
    runs = [start_up(PRELUDE + setup + POSTLUDE, args.src.resolve()) for _ in range(args.runs)]
    print(f"{args.src}: {args.runs} start-ups, median {statistics.median(runs):.1f} ms "
          f"for import stnoma + load_scenario after numpy")


if __name__ == "__main__":
    main()

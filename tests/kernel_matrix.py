"""The bit-pinned tests, the lockstep-equals-alone tests and the pool digests
under each OpenBLAS kernel.

Usage, from the repository root::

    python tests/kernel_matrix.py [--kernels SkylakeX Haswell ...] [--large]

The numpy wheel's OpenBLAS picks its kernel by CPU at run time, and kernels
round the same sums differently, so output bits are reproducible per kernel.
For each kernel name of ``--kernels`` (by default ``KERNELS``) this runs,
in child processes whose environment alone sets ``OPENBLAS_CORETYPE`` to
that name, the tests of ``SELECTED`` (those that pin output bits, and those
that a lockstep row, a stacked draw or a pool's output is bit for bit its
own) and ``tests/pool_digest.py`` (with ``--large`` if given). It prints per
kernel the kernel OpenBLAS reports it runs, the pass count of those tests,
each failing test, and every digest line. Each pytest child runs in a fresh
temporary directory, so that no test example stored by an earlier run is
replayed, with hypothesis derandomized. Run it at two commits on one host:
equal failures and digests per kernel mean the change keeps every kernel's
bits. It changes no machine setting.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
KERNELS = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Prescott")
FILES = ("test_power.py", "test_cli.py", "test_frozen_values.py", "test_bench_reference.py",
         "test_rates.py", "test_linalg.py", "test_region.py", "test_acceptance.py")
# test names, or their prefixes, for pytest -k; a name that a checkout does
# not have selects nothing
SELECTED = (
    # pinned bits and work
    "pinned", "test_frozen_values", "test_bench_reference",
    # a row of a lockstep or a stack is bit for bit its own
    "test_underestimator_rows_are_each_rows_own", "test_weights_in_lockstep",
    "test_draws_in_lockstep", "test_rows_carry_the_evaluations_of_different_steps",
    "test_one_evaluation_serves_the_polish_and_the_full_step",
    "test_rows_stopping_together", "test_failed_line_search", "test_line_search_refuses",
    "test_stopped_rows_park",
    "test_one_row_solve_is_a_row_of_the_lockstep", "test_failed_searches_in_a_whole_solve",
    "test_stage_carry_gives_the_bits_of_a_fresh_start",
    "test_a_stage_takes_its_value_only_when_read",
    "test_stream_gains_rows_are_each_draws_own_gains", "test_qr_of_a_stack_is_each_matrix_own",
    "test_null_space_tests_each_rank_on_its_own",
    # outputs do not depend on the worker count or the run
    "worker_invariant", "identical_across_uneven_chunks", "test_region_rerun_byte_identical",
    "test_criterion_8_byte_determinism",
)
# the kernel name the wheel's OpenBLAS reports, or "unknown" for a build
# that does not export it
CORENAME = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
try:
    get = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    get.argtypes, get.restype = [], ctypes.c_char_p
    print(get().decode())
except (IndexError, OSError, AttributeError):
    print("unknown")
"""


def run(args, env, cwd=ROOT):
    """``args`` under ``env``, in ``cwd``: its stdout lines."""
    done = subprocess.run(args, env=env, cwd=cwd, capture_output=True, text=True)
    return done.stdout.splitlines()


def kernel_report(kernel, large):
    """The lines printed for ``kernel``."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    lines = [f"== {kernel} (OpenBLAS runs {run([sys.executable, '-c', CORENAME], env)[0]})"]
    with tempfile.TemporaryDirectory() as scratch:
        out = run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                   "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
                   "--hypothesis-seed", "0", "-k", " or ".join(SELECTED),
                   *(str(TESTS / name) for name in FILES)], env, cwd=scratch)
        prefix = os.path.relpath(TESTS, scratch) + os.sep  # of each test's node id
    summary = [line for line in out if " passed" in line or " failed" in line]
    lines.append("tests: " + (summary[-1].strip("= ") if summary else "no summary"))
    lines += ["  " + line.split(" - ")[0].replace(prefix, "tests/")
              for line in out if line.startswith("FAILED")]
    lines += run([sys.executable, str(TESTS / "pool_digest.py"), *(["--large"] * large)], env)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", nargs="+", default=KERNELS, help="OPENBLAS_CORETYPE names")
    parser.add_argument("--large", action="store_true", help="pass --large to pool_digest.py")
    args = parser.parse_args(argv)
    for kernel in args.kernels:
        print("\n".join(kernel_report(kernel, args.large)), flush=True)


if __name__ == "__main__":
    main()

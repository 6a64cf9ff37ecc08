"""Digests of the benchmark's whole reference pool, to show that a change
keeps every output byte for byte.

Usage, from the repository root::

    python tests/pool_digest.py [--large]

For each reference family of ``bench/workloads.py`` it runs every block of
the pool (``POOL`` seeds) as the benchmark does, one process per available
CPU, and prints one SHA-256 over all of the family's outputs, in block
order, the largest relative deviation from ``bench/reference.json``, and
the number of problems that the benchmark's own output checks
(``bench/checks.py``) find; any problem is also printed, and makes the
script exit with status 1. A region block contributes its ``region.csv``
bytes; a check block its report and the weighted sum rate of every solve,
captured as ``bench/tracing.py`` captures them. It also prints one
SHA-256 over the ``convergence.csv`` bytes of the default scenario at the
benchmark's two seeds. ``--large`` adds one SHA-256 over the
``region.csv`` bytes of the default scenario at each of ``LARGE_TRIALS``
trials, in one process (``--workers 1``). Run it at two commits: equal
digests mean equal outputs on every block and both traces. The bench
modules are loaded read-only.
"""

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from bench_modules import BENCH, load  # noqa: E402
from stnoma import cli  # noqa: E402

workloads = load("workloads")
checks = load("checks", workloads=workloads)
tracing = load("tracing")
# workloads that differ only in worker count share a family and its reference
FAMILIES = {w.family: w for w in workloads.WORKLOADS.values()}
CONVERGENCE_SEEDS = (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED)
LARGE_TRIALS = (100, 1000)


def _deviation(values, reference):
    """Largest relative deviation of ``values`` from ``reference``; a NaN
    counts as infinite."""
    devs = (abs(v - r) / abs(r) if r else abs(v) for v, r in zip(values, reference))
    return max((d if d <= math.inf else math.inf for d in devs), default=0.0)


def block_output(task):
    """``(family, block, output bytes, problems, values, reference values)``
    of one pool block; the problems are those of ``bench/checks.py``."""
    family, block = task
    workload = FAMILIES[family]
    reference = json.loads((BENCH / "reference.json").read_text())
    reference = reference["families"][family][str(block)]
    scenario = cli.load_scenario(environ={}, **workload.scenario_args(block))
    if workload.verb == "check":
        with tracing.captured_solve_rates() as rates:
            report = cli.self_check(scenario)
        data = repr((report.trials, report.failures, rates)).encode()
        problems = checks.check_self_check(report, workload, rates, reference)
        return family, block, data, problems, rates, reference["wsr"]
    with tempfile.TemporaryDirectory() as out:
        csv_path, _ = cli.run_region(scenario, out, workers=1)
        data = Path(csv_path).read_bytes()
    _, problems = checks.check_region(data, workload, block, reference)
    st = checks.parse_region_csv(data)["st_noma"]
    values = [r for _, r1, r2, *_ in st for r in (r1, r2)]
    reference = [r for pair in reference["st_noma"] for r in pair]
    return family, block, data, problems, values, reference


def convergence_output(seed):
    """``convergence.csv`` bytes of the default scenario at ``seed``."""
    scenario = cli.load_scenario(environ={}, seed=seed)
    with tempfile.TemporaryDirectory() as out:
        (csv_path,) = cli.run_convergence(scenario, out)
        return Path(csv_path).read_bytes()


def large_region_output(trials):
    """``region.csv`` bytes of the default scenario at ``trials`` trials,
    in one process."""
    scenario = cli.load_scenario(environ={}, trials=trials)
    with tempfile.TemporaryDirectory() as out:
        csv_path, _ = cli.run_region(scenario, out, workers=1)
        return Path(csv_path).read_bytes()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--large", action="store_true",
                        help="also digest region.csv at 100 and 1000 trials, --workers 1")
    args = parser.parse_args(argv)
    tasks = [(f, b) for f in sorted(FAMILIES) for b in range(workloads.POOL)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        large = pool.map_async(large_region_output, LARGE_TRIALS if args.large else ())
        results = pool.map(block_output, tasks, chunksize=1)
        traces = pool.map(convergence_output, CONVERGENCE_SEEDS)
        large = large.get()
    for family in sorted(FAMILIES):
        digest, worst, blocks, failed = hashlib.sha256(), 0.0, 0, 0
        for f, block, data, problems, values, reference in results:
            if f == family:
                digest.update(data)
                worst = max(worst, _deviation(values, reference))
                blocks += 1
                failed += len(problems)
                for problem in problems:
                    print(f"FAILED {family} block {block}: {problem}")
        print(f"{family}  {blocks} blocks  sha256 {digest.hexdigest()}  "
              f"max rel dev {worst:.3e}  {failed} problems")
    seeds = ", ".join(map(str, CONVERGENCE_SEEDS))
    print(f"convergence.csv  seeds {seeds}  "
          f"sha256 {hashlib.sha256(b''.join(traces)).hexdigest()}")
    for trials, data in zip(LARGE_TRIALS, large):
        print(f"region.csv  {trials} trials  workers 1  sha256 {hashlib.sha256(data).hexdigest()}")
    return 1 if any(problems for _, _, _, problems, _, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired A/B timing of two checkouts' solves on the benchmark's blocks.

Usage, from the repository root::

    python tests/ab_timing.py path/to/parent [path/to/change] [--reps 31]
        [--blocks 0 1 2] [--workloads check_ref ...]

Each checkout's ``src/stnoma`` is copied under its own package name
(``stnoma_parent``, ``stnoma_change``; the package imports itself only
relatively), so both load into one process, and the parent's a second time
as ``stnoma_control``. The change defaults to this checkout. For every
workload of ``bench/workloads.py`` (or of ``--workloads``) that runs in one
process, and every block seed of ``--blocks``, each side samples and
decomposes the block's draws untimed, and then solves them as the verb
does: ``check`` one ``ccp_allocate`` per trial at mu = 0.5, ``region`` one
``ccp_allocate_draws`` over every draw and the rate-weight grid. A round is
each side's process CPU time over all blocks, the three sides interleaved
block by block, and the side that goes first rotates from block to block
and from round to round. Per workload it prints the median change/parent
ratio, its quartiles, the parent-against-itself (A/A, control/parent)
ratio and quartiles of the same rounds, and the pairs the change won. A
change ratio inside the A/A quartiles reads ``unresolved``: that
difference is within what the parent differs from its own copy; outside
them it reads ``faster`` or ``slower``.

Pairing is the point: on a shared host the speed drifts between runs far
more than a prototype changes it, and the sides of a round see the same
drift. This sizes a prototype; the numbers that count are those of the
benchmark, ``bench/run.py``. The bench modules are loaded read-only.
"""

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import process_time

import numpy as np

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

from bench_modules import load  # noqa: E402

workloads = load("workloads")
SIDES = ("parent", "control", "change")  # control: a second copy of the parent
PACKAGES = {f"stnoma_{side}" for side in SIDES}


def load_package(checkout, side, into):
    """The ``stnoma`` package of ``checkout``, copied into ``into`` (on the
    import path) as ``stnoma_<side>`` and imported under that name."""
    name = f"stnoma_{side}"
    shutil.copytree(Path(checkout) / "src" / "stnoma", Path(into) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("cli", "power", "system", "triangularize")}


def block_solve(pkg, workload, block):
    """A zero-argument function that runs one block's solves on the package
    ``pkg``; the draws are sampled and decomposed here, untimed."""
    scenario = pkg["cli"].load_scenario(environ={}, **workload.scenario_args(block))
    cfg, settings = scenario.config(), scenario.solver_settings()
    decs = []
    for trial in range(scenario.trials):
        rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, trial]))
        ch = pkg["system"].sample_channels(rng, cfg.n_bs, cfg.m1, cfg.m2)
        decs.append(pkg["triangularize"].simultaneous_triangularize(ch))
    power = pkg["power"]
    if workload.verb == "check":
        return lambda: [power.ccp_allocate(dec, cfg, 0.5, settings) for dec in decs]
    mus = scenario.mu_grid()
    return lambda: power.ccp_allocate_draws(decs, cfg, mus, settings)


def cpu_seconds(fn):
    start = process_time()
    fn()
    return process_time() - start


def time_rounds(solves, reps):
    """``reps`` rounds of ``{side: CPU seconds}`` over the blocks of
    ``solves``, a list of one ``{side: solve}`` per block."""
    rounds = []
    for rep in range(reps):
        total = dict.fromkeys(SIDES, 0.0)
        for b, solve in enumerate(solves):
            first = (rep + b) % len(SIDES)
            for side in SIDES[first:] + SIDES[:first]:
                total[side] += cpu_seconds(solve[side])
        rounds.append(total)
    return rounds


def summary(pairs):
    """``(median, lower quartile, upper quartile, pairs won)`` of the
    change/parent ratios of ``pairs``."""
    ratios = [change / parent for parent, change in pairs]
    if len(ratios) > 1:
        low, median, high = statistics.quantiles(ratios, n=4, method="inclusive")
    else:
        low = median = high = ratios[0]
    return median, low, high, sum(r < 1.0 for r in ratios)


def verdict(ratio, low, high):
    """How a change/parent ratio reads against the A/A quartiles."""
    return "faster" if ratio < low else "slower" if ratio > high else "unresolved"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", nargs="?", default=str(TESTS.parent),
                        help="checkout of the change (default: this one)")
    parser.add_argument("--reps", type=int, default=31, help="pairs per workload")
    parser.add_argument("--blocks", type=int, nargs="+", default=[0, 1, 2],
                        help="block seeds of the benchmark's pool")
    parser.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                        default=sorted(workloads.WORKLOADS), help="workloads to time")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            packages = {side: load_package(path, side, tmp)
                        for side, path in zip(SIDES, (args.parent, args.parent, args.change))}
            for workload in workloads.WORKLOADS.values():
                if workload.name not in args.workloads or workload.workers > 1:
                    continue  # in one process its solves are those of its family
                solves = [{side: block_solve(pkg, workload, block)
                           for side, pkg in packages.items()} for block in args.blocks]
                report(workload.name, time_rounds(solves, args.reps))
        finally:
            sys.path.remove(tmp)
            for name in [n for n in sys.modules if n.split(".")[0] in PACKAGES]:
                del sys.modules[name]


def report(name, rounds):
    median, low, high, won = summary([(r["parent"], r["change"]) for r in rounds])
    aa_median, aa_low, aa_high, _ = summary([(r["parent"], r["control"]) for r in rounds])
    parent_ms = 1e3 * statistics.median(r["parent"] for r in rounds)
    change_ms = 1e3 * statistics.median(r["change"] for r in rounds)
    print(f"{name:15s} parent {parent_ms:8.1f} ms  change {change_ms:8.1f} ms  "
          f"ratio median {median:.3f} [{low:.3f}, {high:.3f}]  "
          f"A/A {aa_median:.3f} [{aa_low:.3f}, {aa_high:.3f}] {verdict(median, aa_low, aa_high)}  "
          f"won {won}/{len(rounds)}", flush=True)

if __name__ == "__main__":
    main()

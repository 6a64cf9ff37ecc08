"""User-scale timing of ``stnoma region`` at two checkouts.

Usage, from the repository root::

    python tests/scale_timing.py path/to/parent [path/to/change]
        [--trials 100 1000] [--runs 6]

The benchmark's region blocks hold 42 lockstep rows; a user's
``stnoma region`` at 100 to 1000 trials and ``--workers 1`` solves 2,100 to
21,000 rows in one chunk, and the two respond in opposite ways to trading
numpy calls for element work. For every trial count of ``--trials``, this
runs ``stnoma region --trials N --workers 1`` of each checkout (its
``src`` on ``PYTHONPATH``; the change defaults to this checkout) ``--runs``
times, in alternating pairs whose first side alternates from pair to pair,
each in a fresh child process with one BLAS thread and its own output
directory. Each side's sources are compiled once, before its runs, into a
bytecode cache of its own (``PYTHONPYCACHEPREFIX`` in a temporary
directory), as an installed package loads bytecode: a run that compiles
its sources counts the compiler in ``ru_maxrss``, which then moves with
source edits alone. It prints per side the median CPU seconds of the
child (user plus system) with their interquartile range, the median
``ru_maxrss`` in MB with its range, and the pairs that side won on CPU
time. ``tests/pool_digest.py --large`` compares the two sides'
``region.csv``. It changes no machine setting.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MAIN = "import sys; from stnoma.cli import main; sys.exit(main())"


def side_env(checkout, cache):
    """The environment of a child that runs ``checkout``: its ``src`` on
    the path, one BLAS thread, and its sources compiled once into the
    bytecode cache ``cache``, as an installed package has them."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"), PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run([sys.executable, "-m", "compileall", "-q", env["PYTHONPATH"]], env=env,
                   check=True)
    return env


def run_region(env, trials, out):
    """One ``stnoma region`` run in the environment ``env`` (:func:`side_env`)
    writing into ``out``: ``(CPU seconds, ru_maxrss in MB)`` of its child
    process."""
    args = [sys.executable, "-c", MAIN, "region", "--trials", str(trials), "--workers", "1",
            "--out", str(out)]
    child = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise RuntimeError(f"{' '.join(args[3:])} of {env['PYTHONPATH']} exited "
                           f"{child.returncode}")
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def spread(values):
    """``(median, interquartile range)`` of ``values``."""
    if len(values) < 2:
        return values[0], 0.0
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return median, high - low


def time_pairs(checkouts, trials, runs):
    """``runs`` alternating pairs of one trial count: ``{side: [(CPU
    seconds, MB), ...]}``."""
    samples = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        envs = {side: side_env(checkouts[side], Path(tmp) / f"{side}-bytecode") for side in SIDES}
        for pair in range(runs):
            for side in SIDES[::-1] if pair % 2 else SIDES:
                samples[side].append(run_region(envs[side], trials, Path(tmp) / side))
    return samples


def report(trials, samples):
    """The lines printed for one trial count."""
    cpu = {side: [c for c, _ in samples[side]] for side in SIDES}
    won = {side: 0 for side in SIDES}
    for a, b in zip(cpu["parent"], cpu["change"]):
        if a != b:
            won["parent" if a < b else "change"] += 1
    n = len(cpu["parent"])
    lines = [f"region --trials {trials} --workers 1, {n} pair{'s' * (n != 1)}"]
    for side in SIDES:
        (c, c_iqr), (mb, mb_iqr) = spread(cpu[side]), spread([m for _, m in samples[side]])
        lines.append(f"  {side:6s}  cpu {c:.3f} s (IQR {c_iqr:.3f})  "
                     f"ru_maxrss {mb:.1f} MB (IQR {mb_iqr:.1f})  won {won[side]}/{n}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", nargs="?", default=str(ROOT),
                        help="checkout of the change (default: this one)")
    parser.add_argument("--trials", type=int, nargs="+", default=[100, 1000],
                        help="trial counts of the runs")
    parser.add_argument("--runs", type=int, default=6, help="pairs per trial count")
    args = parser.parse_args(argv)
    if args.runs < 1 or min(args.trials) < 1:
        parser.error("--runs and every --trials must be >= 1")
    checkouts = {"parent": args.parent, "change": args.change}
    for trials in args.trials:
        print("\n".join(report(trials, time_pairs(checkouts, trials, args.runs))), flush=True)


if __name__ == "__main__":
    main()

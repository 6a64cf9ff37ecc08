"""Benchmark of the stnoma region and check verbs.

Usage, from the repository root::

    python3 bench/run.py --workload region_ref [--seed 0] [--seconds 20] [--trace 0|1]
    python3 bench/run.py --emit-spec > BENCHMARK.json

Runs one workload (see ``workloads.py`` and ``README.md``) through the
public entry points ``stnoma.cli.run_region`` / ``stnoma.cli.self_check``,
checks every output, prints each metric with its unit, writes the result
with an environment stamp to ``bench/results/``, and prints one JSON object
``{"correct", "attempted", "failed", "metrics"}`` as its last line. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. Exit code 2 means the benchmark could not run at all.
"""

import os

# Pin BLAS threads before numpy is first imported, here and in every
# process started from here, so that two pool workers use two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    HELDOUT_SEED,
    METRIC_UNITS,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    benchmark_spec,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
def git_commit():
    """Commit of the checkout, read from ``.git`` without leaving ROOT."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment_stamp(workload, seed, blocks):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {
            v: os.environ[v]
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "seed_role": {DEFAULT_SEED: "default (baselines)",
                      HELDOUT_SEED: "held-out (claims)"}.get(seed, "other"),
        "workload": {
            "name": workload.name, "verb": workload.verb,
            "antennas": f"{workload.n}x{workload.m1}x{workload.m2}",
            "workers": workload.workers, "trials_per_call": workload.trials,
            "blocks": blocks,
            "scenario": workload.scenario_args("<block>"),
        },
    }


def peak_rss_mb(workers):
    """Peak RSS of this process plus, with a worker pool, ``workers`` times
    the largest child's (an upper bound on the children alive at once)."""
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workers > 1:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        mb += workers * children / 1024.0
    return mb


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--emit-spec", action="store_true",
                   help="print BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not args.emit_spec and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.emit_spec:
        print(json.dumps(benchmark_spec(), indent=2))
        return 0
    if not (SRC / "stnoma" / "__init__.py").is_file():
        print(f"error: no stnoma sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure  # imports stnoma

    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())
    blocks = workload.block_seeds(args.seed)
    stamp = environment_stamp(workload, args.seed, blocks)

    tally, metrics, details = measure.run(
        workload, args.seed, args.seconds, args.trace,
        reference["families"][workload.family], BENCH,
    )
    if args.trace:
        names = [n for n, *_ in PER_LAYER]
    else:
        names = [n for n, *_ in END_TO_END]
        metrics["peak_rss_mb"] = peak_rss_mb(workload.workers)
    correct = tally.failed == 0 and all(
        math.isfinite(metrics[n]) for n in names
    )
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            n: {"value": metrics[n] if math.isfinite(metrics[n]) else None,
                "unit": METRIC_UNITS[n]}
            for n in names
        },
    }

    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"environment": stamp, "result": result, "details": details}, indent=1
    ) + "\n")

    for problem in details["problems"][:20]:
        print("FAILED", problem)
    if details["numpy_repr_cells_per_csv"]:
        print(f"WARNING: region.csv writes {details['numpy_repr_cells_per_csv']} "
              "rates as 'np.float64(...)' instead of plain floats")
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} calls, {tally.failed} failed; "
          f"run_s over {details['run_s_samples']} calls "
          f"(median wall time {details['wall_run_s']:.4g} s); "
          f"-> {out.relative_to(ROOT)}")
    for n in names:
        print(f"  {n:50s} {metrics[n]:>14.6g} {METRIC_UNITS[n]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``reference.json``: the outputs of every block in the pool.

Usage, from the repository root::

    python3 bench/make_reference.py

The stored values are the outputs the benchmark compares every run with
(relative tolerance ``REFERENCE_RTOL``). They were made from the commit
named in the file; regenerate them only when a change is meant to move the
program's numbers, and say so in that change.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import stnoma.cli as cli  # noqa: E402
from checks import parse_region_csv, wsr_mean  # noqa: E402
from run import git_commit  # noqa: E402
from tracing import captured_solve_rates  # noqa: E402
from workloads import POOL, REFERENCE_RTOL, WORKLOADS  # noqa: E402


def block_reference(task):
    family, block = task
    workload = next(w for w in WORKLOADS.values() if w.family == family)
    scenario = cli.load_scenario(environ={}, **workload.scenario_args(block))
    if workload.verb == "check":
        with captured_solve_rates() as rates:
            report = cli.self_check(scenario)
        if not report.ok:
            raise RuntimeError(f"block {block}: {report.failures}")
        return family, block, {"wsr": rates}
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as out:
        csv_path, _ = cli.run_region(scenario, out, workers=1)
        rows = parse_region_csv(Path(csv_path).read_bytes())
    st = rows["st_noma"]
    return family, block, {
        "st_noma": [[r1, r2] for _, r1, r2, *_ in st],
        "wsr": wsr_mean(st),
    }


def main():
    families = sorted({w.family for w in WORKLOADS.values()})
    tasks = [(f, b) for f in families for b in range(POOL)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        results = pool.map(block_reference, tasks, chunksize=1)
    doc = {
        "commit": git_commit(),
        "rtol": REFERENCE_RTOL,
        "families": {f: {} for f in families},
    }
    for family, block, values in results:
        doc["families"][family][str(block)] = values
    (BENCH / "reference.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()

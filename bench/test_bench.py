"""Self-tests of the benchmark, on one-block versions of its workloads.

Run from the repository root (about a minute)::

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import stnoma.cli as cli  # noqa: E402
from checks import check_region  # noqa: E402
from tracing import LAYERS, Tracer, _self_times  # noqa: E402
from workloads import PER_LAYER, WORKLOADS, benchmark_spec  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())["families"]
SEED = 3


def tiny(name):
    return replace(WORKLOADS[name], blocks=1)


def traced_run(workload):
    tally, metrics, details = measure.run(
        workload, SEED, 1e-3, True, REFERENCE[workload.family], BENCH
    )
    assert tally.failed == 0, details["problems"]
    return metrics, details


def work_counters(metrics):
    return {
        k: v for k, v in metrics.items()
        if k.endswith((".calls", "_iters", "_frac")) and not k.startswith("trace.")
    }


@pytest.fixture(scope="module")
def region_runs():
    return [traced_run(tiny("region_ref")) for _ in range(2)]


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == benchmark_spec()


def test_work_counters_repeat_exactly(region_runs):
    (a, _), (b, _) = region_runs
    assert work_counters(a) == work_counters(b)
    assert a["power.ccp_allocate.calls"] == 2 * 21
    check = tiny("check_ref")
    assert work_counters(traced_run(check)[0]) == work_counters(traced_run(check)[0])


def test_pool_workers_report_the_same_work(region_runs):
    pooled, details = traced_run(tiny("region_ref_w2"))
    assert work_counters(pooled) == work_counters(region_runs[0][0])
    assert pooled["region.parallel_efficiency"] > 0.0
    assert details["workers1_seconds_by_block"]


def test_every_per_layer_metric_is_reported(region_runs):
    metrics = region_runs[0][0]
    assert {n for n, *_ in PER_LAYER} <= set(metrics)
    for layer in LAYERS:
        assert metrics[f"{layer}.self_s"] > 0.0, layer


def test_self_times_nonnegative_and_sum_to_traced_run(tmp_path):
    scenario = cli.load_scenario(
        environ={}, **tiny("region_ref").scenario_args(SEED)
    )
    tracer = Tracer(tmp_path)
    with tracer.installed():
        t0 = measure.perf_counter()
        cli.run_region(scenario, tmp_path / "out")
        traced_s = measure.perf_counter() - t0
    (tree,) = tracer.take()
    own = _self_times(tree)
    assert min(own) >= -1e-9
    # Self times telescope to the root span, which lies inside the timed call.
    assert 0.0 <= traced_s - sum(own) <= 0.01 * traced_s


def test_output_checks_catch_wrong_numbers(tmp_path):
    workload = tiny("region_ref")
    block = workload.block_seeds(SEED)[0]
    scenario = cli.load_scenario(environ={}, **workload.scenario_args(block))
    csv_path, _ = cli.run_region(scenario, tmp_path)
    data = Path(csv_path).read_bytes()
    ref = REFERENCE[workload.family][str(block)]
    assert check_region(data, workload, block, ref)[1] == []

    nudged = dict(ref, st_noma=[[r1 * (1 + 2e-6), r2] for r1, r2 in ref["st_noma"]])
    assert check_region(data, workload, block, nudged)[1]
    assert check_region(data, workload, block + 1, ref)[1]  # seed column
    lines = data.decode().split("\n")
    cells = lines[11].split(",")  # st_noma at mu = 0.5
    cells[2] = "-" + cells[2]
    lines[11] = ",".join(cells)
    assert check_region("\n".join(lines).encode(), workload, block, ref)[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check_ref", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

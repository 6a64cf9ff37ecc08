"""The benchmark counts a verb call as failed when its outputs leave the
stored ``bench/reference.json`` (relative tolerance ``REFERENCE_RTOL``).
This runs the unedited ``bench/checks.py`` on a few pool blocks of every
family, so a solver change that would make the benchmark report incorrect
outputs fails here first."""

import json
from pathlib import Path

import pytest

from bench_modules import BENCH, load
from stnoma import cli

workloads = load("workloads")
checks = load("checks", workloads=workloads)
tracing = load("tracing")
REFERENCE = json.loads((BENCH / "reference.json").read_text())["families"]
# workloads that differ only in worker count share a family and its reference
FAMILIES = {w.family: w for w in workloads.WORKLOADS.values()}


def scenario(family, block):
    return cli.load_scenario(environ={}, **FAMILIES[family].scenario_args(block))


@pytest.mark.parametrize("block", [0, workloads.POOL - 1])
@pytest.mark.parametrize(
    "family", sorted(f for f, w in FAMILIES.items() if w.verb == "region")
)
def test_region_block_matches_the_reference(tmp_path, family, block):
    csv_path, _ = cli.run_region(scenario(family, block), tmp_path, workers=1)
    _, problems = checks.check_region(
        Path(csv_path).read_bytes(), FAMILIES[family], block, REFERENCE[family][str(block)]
    )
    assert problems == []


@pytest.mark.parametrize(
    "family", sorted(f for f, w in FAMILIES.items() if w.verb == "check")
)
def test_check_block_matches_the_reference(family):
    with tracing.captured_solve_rates() as rates:
        report = cli.self_check(scenario(family, 0))
    problems = checks.check_self_check(
        report, FAMILIES[family], rates, REFERENCE[family]["0"]
    )
    assert problems == []

"""The benchmark traces the program by patching module attributes by name
(``bench/tracing.py``), so a refactor that drops or renames one of them
crashes every traced run. This checks the names from the unedited tracer."""

import pytest

from bench_modules import load
from stnoma import cli

tracing = load("tracing")


@pytest.mark.parametrize(
    "owner, attribute", [(owner, attr) for _, owner, attr in tracing.TRACE_POINTS]
)
def test_trace_point_resolves(owner, attribute):
    assert callable(getattr(tracing._owner(owner), attribute))


def test_checks_helpers_resolve():
    # bench/checks.py imports this for its hybrid-dominance check
    from stnoma.region import frontier_value_at

    assert callable(frontier_value_at)


def test_check_solves_through_ccp_allocate_once_per_trial():
    # the bench reads check's per-solve rates by capturing each
    # stnoma.cli.ccp_allocate call; batching check's solves would empty it
    scenario = cli.Scenario(trials=3, mu_steps=3, seed=1)
    with tracing.captured_solve_rates() as rates:
        report = cli.self_check(scenario)
    assert report.ok
    assert len(rates) == scenario.trials

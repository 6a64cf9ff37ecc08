"""The benchmark traces the program by patching module attributes by name
(``bench/tracing.py``), so a refactor that drops or renames one of them
crashes every traced run. This checks the names from the unedited tracer."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "owner, attribute", [(owner, attr) for _, owner, attr in tracing.TRACE_POINTS]
)
def test_trace_point_resolves(owner, attribute):
    assert callable(getattr(tracing._owner(owner), attribute))


def test_checks_helpers_resolve():
    # bench/checks.py imports this for its hybrid-dominance check
    from stnoma.region import frontier_value_at

    assert callable(frontier_value_at)

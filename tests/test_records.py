"""The package's record classes (``stnoma.system.Record``) behave as the
dataclasses they replace: positional and keyword construction in the same
field order, value equality and hashing, pickling, frozen fields and the
same validation errors; ``replace`` validates again."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stnoma.cli import COUNT_MAX, CheckReport, Scenario, ScenarioError
from stnoma.power import (
    CcpRecord,
    CcpState,
    InnerSolveResult,
    SolverSettings,
    ccp_allocate_draws,
)
from stnoma.rates import RateBreakdown
from stnoma.region import RateRegionPoint
from stnoma.system import ChannelPair, StreamDims, SystemConfig, sample_channels
from stnoma.transceiver import CancelledSignals, PowerAllocation
from stnoma.triangularize import (
    ResidualReport,
    StDecomposition,
    simultaneous_triangularize,
    verify_decomposition,
)

CFG = SystemConfig(5, 3, 3, 62500.0, 2500.0, 1.0, 10 ** (-6.5))
DIMS = CFG.dims
ARRAY = np.arange(1.0, 6.0)
CH = sample_channels(np.random.default_rng(3), 5, 3, 3)
DEC = simultaneous_triangularize(CH)
SCENARIO_FIELDS = ("n", "m1", "m2", "d1", "d2", "pathloss_exponent", "pt_dbm", "sigma2_dbm",
                   "trials", "mu_steps", "seed", "ccp_max_iters", "ccp_tol", "inner_max_iters")
RESIDUAL_FIELDS = ("factorization1", "factorization2", "unitarity1", "unitarity2",
                   "triangularity1", "triangularity2", "diag_imag1", "diag_imag2",
                   "diag_negativity1", "diag_negativity2", "column_norm")


def record_of_one_run():
    return ccp_allocate_draws([DEC], CFG, [0.25, 0.75])


# Each record class, its fields in positional order (as the dataclasses
# declared them) and values for them.
RECORDS = [
    (SystemConfig, ("n_bs", "m1", "m2", "pathloss1", "pathloss2", "power_budget",
                    "noise_power"), (5, 3, 3, 62500.0, 2500.0, 1.0, 1e-6)),
    (StreamDims, ("total", "shared", "private1", "private2"), (5, 1, 2, 2)),
    (ChannelPair, ("h1", "h2"), (np.ones((3, 5), complex), np.ones((3, 5), complex))),
    (SolverSettings, ("ccp_max_iters", "ccp_tol", "inner_max_iters"), (7, 1e-5, 100)),
    (InnerSolveResult, ("value", "iterations", "converged", "residual", "grad_norm"),
     (1.5, 12, True, 1e-8, 3.0)),
    (CcpState, ("q", "allocation", "iterations", "objective_trace", "converged",
                "inner_results"),
     (np.zeros(1), PowerAllocation.zeros(DIMS), 1, np.ones(1), True, ())),
    (RateBreakdown, ("r1", "r2", "r1_at_user1", "r1_at_user2"),
     (ARRAY, ARRAY + 1.0, ARRAY[:1], ARRAY[1:2])),
    (RateRegionPoint, ("r1", "r2", "scheme", "param", "trials"), (1.0, 2.0, "oma", 0.5, 3)),
    (PowerAllocation, ("p1", "p2"), (ARRAY, ARRAY * 0.0)),
    (CancelledSignals, ("user", "values"), (2, ARRAY.astype(complex))),
    (CheckReport, ("trials", "failures"), (3, ["trial 0: a failure"])),
    (Scenario, SCENARIO_FIELDS,
     (4, 2, 3, 200.0, 40.0, 3.0, 20.0, -30.0, 7, 5, 1, 3, 1e-5, 500)),
    (StDecomposition, ("x_mat", "q1", "q2", "r1", "r2", "dims"), DEC.astuple()),
    (ResidualReport, RESIDUAL_FIELDS, tuple(i * 1e-16 for i in range(11))),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
FROZEN = {SystemConfig, StreamDims, ChannelPair, SolverSettings, InnerSolveResult,
          RateBreakdown, RateRegionPoint, CancelledSignals, Scenario, StDecomposition,
          ResidualReport}


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, names, values):
    assert cls.__slots__ == names
    by_position = cls(*values)
    by_name = cls(**dict(zip(names, values)))
    for record in (by_position, by_name):
        assert all(getattr(record, n) is v for n, v in zip(names, values))
    assert repr(by_position).startswith(f"{cls.__name__}({names[0]}=")
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[:-1], **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, unknown=1)


def test_record_of_a_run_in_field_order():
    record = record_of_one_run()
    assert CcpRecord.__slots__ == ("dims", "p1", "p2", "rates", "iterations",
                                   "converged", "trace", "inner")
    fields = [getattr(record, n) for n in CcpRecord.__slots__]
    assert CcpRecord(*fields).astuple() == tuple(fields)
    with pytest.raises(AttributeError):
        record.p1 = None
    assert [a.dtype for a in record.inner.astuple()] == [
        np.dtype(t) for t in InnerSolveResult.TYPES]


def test_defaults():
    assert SolverSettings() == SolverSettings(10, 1e-4, 10000)
    assert SolverSettings(ccp_tol=1e-6) == SolverSettings(10, 1e-6, 10000)
    state = CcpState(np.zeros(1), PowerAllocation.zeros(DIMS), 0, np.zeros(0), False)
    assert state.inner_results == ()
    assert Scenario().astuple() == (5, 3, 3, 250.0, 50.0, 2.0, 30.0, -35.0, 100, 21, 0, 10,
                                    1e-4, 10000)
    with pytest.raises(TypeError, match="takes the fields q, allocation, .*, inner_results"):
        CcpState(np.zeros(1), PowerAllocation.zeros(DIMS), 0, np.zeros(0))


def test_value_equality_and_hash():
    # the frozen records hash by value, as frozen dataclasses do;
    # StreamGains compares its draws' StreamDims with !=; the lockstep tests
    # compare tuples of InnerSolveResult
    same = SystemConfig(*CFG.astuple())
    assert same == CFG and hash(same) == hash(CFG) and same is not CFG
    assert len({CFG, same, SystemConfig(5, 3, 3, 62500.0, 2500.0, 2.0, 1e-6)}) == 2
    assert hash(SolverSettings()) == hash(SolverSettings(10, 1e-4, 10000))
    assert StreamDims(5, 1, 2, 2) == DIMS and StreamDims(5, 3, 1, 1) != DIMS
    assert (InnerSolveResult(1.0, 2, True, 0.0, 1.0),) == (InnerSolveResult(1.0, 2, True, 0.0, 1.0),)
    assert InnerSolveResult(1.0, 2, True, 0.0, 1.0) != InnerSolveResult(1.0, 3, True, 0.0, 1.0)
    # value equality within one class only, as a dataclass compares
    assert RateRegionPoint(1.0, 2.0, "oma", None, 1) != (1.0, 2.0, "oma", None, 1)
    assert StreamDims(1, 1, 0, 0) != CheckReport(1, 1)
    assert Scenario(trials=3) == Scenario(trials=3) != Scenario(trials=4)
    assert hash(Scenario(trials=3)) == hash(Scenario(trials=3))
    report = verify_decomposition(DEC, CH)
    assert ResidualReport(*report.astuple()) == report
    assert hash(ResidualReport(*report.astuple())) == hash(report)
    # the same arrays compare equal; like a frozen dataclass of arrays, a
    # decomposition has no hash
    assert DEC.replace() == DEC and DEC.replace() is not DEC
    with pytest.raises(TypeError):
        hash(DEC)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(cls, names, values):
    record = cls(*values)
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(record, names[0], values[0])
        with pytest.raises(AttributeError):
            delattr(record, names[0])
    else:
        # a mutable dataclass is unhashable
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, names[0], values[0])
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_pickle_round_trip():
    # _run_trials pickles SystemConfig and SolverSettings into pool tasks
    for record in (CFG, SolverSettings(3, 1e-6, 50),
                   RateRegionPoint(1.0, 2.0, "st_noma", 0.25, 4),
                   RateRegionPoint(3.0, 0.0, "p2p_user1", None, 4),
                   Scenario(trials=3, ccp_tol=1e-6), verify_decomposition(DEC, CH)):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record
        assert hash(back) == hash(record)
        assert copy.deepcopy(record) == record
    record = record_of_one_run()
    back = pickle.loads(pickle.dumps(record))
    assert back.dims == record.dims
    for a, b in zip(back.astuple()[1:-1] + back.inner.astuple(),
                    record.astuple()[1:-1] + record.inner.astuple()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    back = pickle.loads(pickle.dumps(DEC))
    assert type(back) is StDecomposition and back.dims == DEC.dims
    for a, b in zip(back.astuple()[:-1], DEC.astuple()[:-1]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make, message", [
    (lambda: SystemConfig(0, 3, 3, 2.0, 1.0, 1.0, 1.0), "antenna counts"),
    (lambda: SystemConfig(5, 2, 2, 2.0, 1.0, 1.0, 1.0), "m1 \\+ m2 = 4 < n_bs = 5"),
    (lambda: SystemConfig(2, 1, 1, 1.0, 2.0, 1.0, 1.0), "pathloss1 > pathloss2"),
    (lambda: SystemConfig(2, 1, 1, 2.0, 1.0, math.nan, 1.0), "power_budget"),
    (lambda: SystemConfig(2, 1, 1, 2.0, 1.0, 1.0, math.inf), "noise_power"),
    (lambda: StreamDims(5, 1, 2, 1), "do not add up"),
    (lambda: StreamDims(1, 2, -1, 0), "nonnegative"),
    (lambda: ChannelPair(np.ones(3), np.ones((1, 3))), "h1 must be 2-D"),
    (lambda: ChannelPair(np.ones((1, 3)), np.full((1, 3), np.nan)), "h2 contains non-finite"),
    (lambda: ChannelPair(np.ones((1, 3)), np.ones((1, 2))), "share the BS antenna count"),
    (lambda: SolverSettings(ccp_tol=math.nan), "positive and finite"),
    (lambda: SolverSettings(inner_max_iters=0), "positive and finite"),
    (lambda: CcpState(np.array([-1.0]), None, 0, np.zeros(0), False), "anchor powers"),
    (lambda: CcpState(np.zeros(1), None, 2, np.zeros(1), False), "trace length"),
    (lambda: RateRegionPoint(-1e-16, 1.0, "oma", 0.5, 1), "nonnegative"),
    (lambda: RateRegionPoint(1.0, math.nan, "oma", 0.5, 1), "nonnegative"),
    (lambda: PowerAllocation(np.zeros(2), np.zeros(3)), "1-D arrays of equal length"),
    (lambda: PowerAllocation(np.zeros((1, 2)), np.zeros((1, 2))), "1-D arrays"),
    (lambda: Scenario(trials=0), "trials must be >= 1"),
    (lambda: Scenario(seed=-1), "seed must be >= 0"),
    (lambda: Scenario(d1=10.0), "need d1 > d2 > 0"),
    (lambda: Scenario(ccp_tol=0.0), "positive and finite"),
    (lambda: Scenario(mu_steps=1), "mu_steps must be >= 2"),
    (lambda: Scenario(n=5.0), "bad value for 'n': 5.0"),
    (lambda: Scenario(ccp_max_iters=COUNT_MAX + 1), "ccp_max_iters must be <= 1000000"),
    (lambda: Scenario(n=1025, m1=1025, m2=1025), "n must be <= 1024"),
])
def test_validation_errors(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_power_allocation_takes_float_arrays():
    alloc = PowerAllocation([1, 0], (0, 2))
    assert alloc.p1.dtype == float and alloc.p2.tolist() == [0.0, 2.0]
    # an unpickled allocation is validated and converted again
    back = pickle.loads(pickle.dumps(alloc))
    assert back.p1.tobytes() == alloc.p1.tobytes()


def test_replace_builds_through_the_constructor():
    assert CFG.replace(power_budget=2.0) == SystemConfig(5, 3, 3, 62500.0, 2500.0, 2.0,
                                                         10 ** (-6.5))
    assert Scenario().replace(trials=3, seed=4) == Scenario(trials=3, seed=4)
    # so it validates again, and knows only the fields
    with pytest.raises(ValueError, match="m1 \\+ m2 = 4 < n_bs = 5"):
        CFG.replace(m1=1)
    with pytest.raises(ScenarioError, match="trials must be >= 1"):
        Scenario().replace(trials=0)
    with pytest.raises(TypeError):
        Scenario().replace(antennas=3)
    # the mutable kind too, as a new record
    report = CheckReport(1, [])
    assert report.replace(failures=["x"]) == CheckReport(1, ["x"]) and report.failures == []


# Values of each kind for any field: right and wrong types, in and out of
# range.
_ANY_VALUE = st.one_of(
    st.integers(-3, 12), st.sampled_from([COUNT_MAX, COUNT_MAX + 1, 2**62]),
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none(),
    st.text(max_size=3), st.sampled_from([np.int64(4), np.float32(0.5), np.float64(30.0)]),
)


def _near(default):
    if type(default) is int:
        return st.integers(default // 2, 2 * default)
    return st.floats(default - abs(default), default + abs(default))


@settings(max_examples=400, deadline=None)
@given(st.fixed_dictionaries({}, optional={
           name: _near(default) for name, default in zip(SCENARIO_FIELDS, Scenario().astuple())}),
       st.dictionaries(st.sampled_from(SCENARIO_FIELDS), _ANY_VALUE, max_size=3))
def test_a_scenario_is_valid_or_refused_by_name(near, values):
    # values near every field's default, some of them replaced by any value
    try:
        scenario = Scenario(**{**near, **values})
    except ScenarioError:
        return
    scenario.config()
    scenario.solver_settings()
    assert len(scenario.mu_grid()) == scenario.mu_steps <= COUNT_MAX
    assert 1 <= scenario.trials <= COUNT_MAX and scenario.seed >= 0

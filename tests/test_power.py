import copy
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_oracle as oracle
from stnoma import power
from stnoma.cli import Scenario
from stnoma.power import CcpState, ccp_allocate_draws
from stnoma.rates import StreamGains, rate_breakdown
from stnoma.power import (
    InnerSolveResult,
    SolverSettings,
    _SurrogateProblem,
    _project,
    _residual,
    ccp_allocate,
    maximize_surrogate,
    project_power_budget,
    rate_underestimator,
)
from stnoma.rates import rate_user1, rate_user2, weighted_sum_rate
from stnoma.system import SystemConfig, sample_channels
from stnoma.transceiver import PowerAllocation
from stnoma.triangularize import simultaneous_triangularize


def make_cfg(n, m1, m2):
    return SystemConfig(
        n_bs=n, m1=m1, m2=m2, pathloss1=62500.0, pathloss2=2500.0,
        power_budget=1.0, noise_power=10 ** (-6.5),
    )


CFG335 = make_cfg(5, 3, 3)


def setup_case(seed, cfg=CFG335):
    rng = np.random.default_rng(seed)
    ch = sample_channels(rng, cfg.n_bs, cfg.m1, cfg.m2)
    dec = simultaneous_triangularize(ch)
    return rng, dec


def random_alloc(rng, dims, budget=1.0):
    w = rng.random(2 * dims.total)
    w /= w.sum()
    p1 = w[: dims.total] * budget * rng.random()
    p2 = w[dims.total :] * budget * rng.random()
    p2[list(dims.private1_indices())] = 0.0
    p1[list(dims.private2_indices())] = 0.0
    return PowerAllocation(p1, p2)


# --- DC pieces ---------------------------------------------------------------


def test_dc_components_reproduce_rates():
    rng, dec = setup_case(0)
    alloc = random_alloc(rng, dec.dims)
    for l in dec.dims.shared_indices():
        c11, c12, c21, c22 = oracle.gains_dc_components(alloc, dec, CFG335, l)
        at1 = oracle.rate_at_user1(alloc, dec, CFG335, l)
        at2 = oracle.rate_at_user2(alloc, dec, CFG335, l)
        assert c11 - c12 == pytest.approx(at1, abs=1e-12)
        assert c21 - c22 == pytest.approx(at2, abs=1e-12)


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_dc_components_and_underestimator_match_scalar_oracle(shape):
    cfg = make_cfg(*shape)
    rng, dec = setup_case(80, cfg)
    d = dec.dims
    for _ in range(20):
        alloc = random_alloc(rng, d)
        anchor = rng.random(d.shared) * cfg.power_budget / max(1, d.shared)
        for l in d.shared_indices():
            np.testing.assert_allclose(
                oracle.gains_dc_components(alloc, dec, cfg, l),
                oracle.dc_components(alloc, dec, cfg, l),
                rtol=0.0, atol=1e-12,
            )
            assert rate_underestimator(alloc, anchor, dec, cfg, l) == pytest.approx(
                oracle.rate_underestimator(alloc, anchor, dec, cfg, l), abs=1e-12
            )
    with pytest.raises(ValueError):
        oracle.gains_dc_components(alloc, dec, cfg, d.shared)
    with pytest.raises(ValueError):
        rate_underestimator(alloc, anchor, dec, cfg, d.shared)


def test_dc_components_zero_power():
    _, dec = setup_case(1)
    alloc = PowerAllocation.zeros(dec.dims)
    c11, c12, c21, c22 = oracle.gains_dc_components(alloc, dec, CFG335, 0)
    log_noise = math.log2(CFG335.noise_power)
    assert c11 == pytest.approx(log_noise, abs=1e-12)
    assert c12 == pytest.approx(log_noise, abs=1e-12)
    assert c11 - c12 == 0.0 and c21 - c22 == 0.0


def test_dc_components_interference_free_constant():
    rng, dec = setup_case(2)
    alloc = random_alloc(rng, dec.dims)
    alloc.p2[list(dec.dims.shared_indices())] = 0.0
    _, c12, _, c22 = oracle.gains_dc_components(alloc, dec, CFG335, 0)
    assert c12 == pytest.approx(math.log2(CFG335.noise_power), abs=1e-12)
    assert c22 == pytest.approx(math.log2(CFG335.noise_power), abs=1e-12)


def test_dc_components_rejects_private_stream():
    rng, dec = setup_case(3)
    alloc = random_alloc(rng, dec.dims)
    with pytest.raises(ValueError):
        oracle.gains_dc_components(alloc, dec, CFG335, dec.dims.shared)


# --- min identity -------------------------------------------------------------


def test_min_identity_examples():
    assert oracle.min_difference_identity(1.0, 2.0, 3.0, 4.0) == (-1.0, -1.0)
    assert oracle.min_difference_identity(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)


@settings(max_examples=1000, deadline=None)
@given(
    a=st.floats(-100, 100), b=st.floats(-100, 100),
    c=st.floats(-100, 100), d=st.floats(-100, 100),
)
def test_min_identity_property(a, b, c, d):
    lhs, rhs = oracle.min_difference_identity(a, b, c, d)
    # exact in rational arithmetic
    fa, fb, fc, fd = (Fraction(v) for v in (a, b, c, d))
    exact_lhs = min(fa - fb, fc - fd)
    exact_rhs = min(fa + fd, fc + fb) - (fb + fd)
    assert exact_lhs == exact_rhs
    # and tight in floating point
    assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


# --- underestimator -----------------------------------------------------------


def test_underestimator_tight_at_anchor():
    rng, dec = setup_case(4)
    d = dec.dims
    for _ in range(50):
        alloc = random_alloc(rng, d)
        anchor = alloc.p2[: d.shared].copy()
        r1 = rate_user1(alloc, dec, CFG335)
        for l in d.shared_indices():
            under = rate_underestimator(alloc, anchor, dec, CFG335, l)
            assert abs(under - r1[l]) <= 1e-12 * max(1.0, abs(r1[l]))


def test_underestimator_bounds_rate():
    rng, dec = setup_case(5)
    d = dec.dims
    for _ in range(200):
        alloc = random_alloc(rng, d)
        anchor = rng.random(d.shared) * CFG335.power_budget
        r1 = rate_user1(alloc, dec, CFG335)
        for l in d.shared_indices():
            under = rate_underestimator(alloc, anchor, dec, CFG335, l)
            assert under <= r1[l] + 1e-9


def test_underestimator_bounds_rate_multi_shared():
    # several overlapping shared streams exercise the cross-coordinate terms
    cfg = make_cfg(4, 6, 6)
    rng, dec = setup_case(6, cfg)
    d = dec.dims
    assert d.shared == 4
    for _ in range(200):
        alloc = random_alloc(rng, d)
        anchor = rng.random(d.shared) * cfg.power_budget / d.shared
        r1 = rate_user1(alloc, dec, cfg)
        for l in d.shared_indices():
            under = rate_underestimator(alloc, anchor, dec, cfg, l)
            assert under <= r1[l] + 1e-9


def test_underestimator_zero_anchor_zero_power():
    _, dec = setup_case(7)
    alloc = PowerAllocation.zeros(dec.dims)
    anchor = np.zeros(dec.dims.shared)
    under = rate_underestimator(alloc, anchor, dec, CFG335, 0)
    assert under == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "shape", [s for s in oracle.EDGE_SHAPES if 1 <= make_cfg(*s).dims.shared <= 3]
)
def test_underestimator_rows_are_each_rows_own(shape):
    # one bound formula over rows: row i of a stack of draws, allocations
    # and anchors is the one-row rate_underestimator and rate_user1, bit for
    # bit
    cfg = make_cfg(*shape)
    rng = np.random.default_rng(31)
    decs = [simultaneous_triangularize(sample_channels(rng, *shape)) for _ in range(6)]
    d = decs[0].dims
    allocs = [random_alloc(rng, d) for _ in decs]
    anchors = [rng.random(d.shared) / d.shared for _ in decs]
    anchors[1] = allocs[1].p2[: d.shared].copy()  # tight at its anchor
    r1, bounds = power.rates_and_underestimators(allocs, anchors, decs, cfg)
    assert r1.shape == (len(decs), d.total) and bounds.shape == (len(decs), d.shared)
    for i, (alloc, anchor, dec) in enumerate(zip(allocs, anchors, decs)):
        assert r1[i].tobytes() == rate_user1(alloc, dec, cfg).tobytes()
        for l in d.shared_indices():
            assert bounds[i, l] == rate_underestimator(alloc, anchor, dec, cfg, l)
            assert bounds[i, l] <= r1[i, l] + 1e-12


def test_surrogate_gradient_matches_finite_differences():
    # central differences on the packed objective, away from kinks
    cfg = make_cfg(6, 4, 4)
    rng, dec = setup_case(15, cfg)
    d = dec.dims
    problem = _SurrogateProblem.over_draws([dec], cfg, 0, 0.6, rng.random(d.shared) * 0.2)
    z = problem.dims.pack(*random_alloc(rng, d).astuple()) + 1e-3
    f, b1, b2, point = problem.evaluate(z)
    assert np.all(np.abs(b1 - b2) > 1e-6)  # smooth point
    lam = problem._branch_weights(b1, b2, 0.0)
    g, h = problem._derivative(1, lam, point), problem._derivative(2, lam, point)
    eps = 1e-7
    for i in range(problem.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += eps
        zm[i] -= eps
        fp, fm = problem.evaluate(zp)[0], problem.evaluate(zm)[0]
        fd = (fp - fm) / (2 * eps)
        assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)
        fd2 = (fp - 2 * f + fm) / eps**2
        # curvature preconditioner keeps the dominant diagonal terms only
        assert h[i] >= 0.0
        if abs(fd2) > 1e-3:
            assert h[i] == pytest.approx(-fd2, rel=0.35, abs=1e-2)


def test_surrogate_value_matches_per_stream_ops():
    # the solver's packed objective equals the sum of the scalar oracle's
    # per-stream quantities
    cfg = make_cfg(6, 4, 4)
    rng, dec = setup_case(8, cfg)
    d = dec.dims
    mu = 0.4
    alloc = random_alloc(rng, d)
    anchor = rng.random(d.shared) * 0.3
    problem = _SurrogateProblem.over_draws([dec], cfg, 0, mu, anchor)
    got = problem.evaluate(problem.dims.pack(alloc.p1, alloc.p2))[0]
    under = sum(
        oracle.rate_underestimator(alloc, anchor, dec, cfg, l)
        for l in d.shared_indices()
    )
    r1, r2 = oracle.rates(alloc, dec, cfg)
    want = (
        mu * under
        + mu * sum(r1[l] for l in d.private1_indices())
        + (1 - mu) * r2.sum()
    )
    assert got == pytest.approx(want, abs=1e-10)


def summed_value(problem, z, tau):
    """The surrogate's value as a sum over streams: each stream's bound
    less its linearization, then each interference-free rate times its
    user's weight."""
    m, n1 = problem.m, problem.dims.private1
    _, b1, b2, point = problem.evaluate(z, tau)
    free = np.log2(point)[..., 4 * m :]
    p2s = z[..., problem.n_p1 : problem.n_p1 + m]
    under = problem._softmin(b1, b2, tau) - problem.anchored - problem.slope * (p2s - problem.anchor)
    return (
        problem.mu * under.sum(axis=-1)
        + problem.mu2 * free[..., n1 : n1 + m].sum(axis=-1)
        + problem.mu * free[..., :n1].sum(axis=-1)
        + problem.mu2 * free[..., n1 + m :].sum(axis=-1)
    )


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_value_is_the_sum_over_streams(shape):
    # the value, two row dot products and the linearization's constant,
    # is the sum over streams up to rounding, with and without shared and
    # private streams, on the exact and a smoothed objective
    cfg = make_cfg(*shape)
    decs = [setup_case(seed, cfg)[1] for seed in (116, 117)]
    rng = np.random.default_rng(119)
    d = decs[0].dims
    anchors = rng.random((4, d.shared)) * 0.3
    problem = _SurrogateProblem.over_draws(decs, cfg, [0, 1, 0, 1], [0.0, 0.3, 0.7, 1.0], anchors)
    z = np.stack([problem.dims.pack(*random_alloc(rng, d).astuple()) for _ in range(4)])
    for tau in (0.0, 1e-2):
        got, want = problem.evaluate(z, tau)[0], summed_value(problem, z, tau)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_take_is_the_surrogate_built_on_the_rows():
    # every entry of the row table of the taken rows is that of the
    # surrogate built on them alone, bit for bit: rows on two links, and
    # rows that all lie on one link
    rng = np.random.default_rng(122)
    mu = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    rows = np.array([1, 3, 4])
    for seeds, draw in (((121, 221), [0, 1, 1, 0, 1]), ((121,), [0] * 5)):
        decs = [setup_case(seed)[1] for seed in seeds]
        draw = np.array(draw)
        anchor = rng.random((5, decs[0].dims.shared)) * 0.3
        problem = _SurrogateProblem.over_draws(decs, CFG335, draw, mu, anchor)
        got = problem.take(rows)
        want = _SurrogateProblem.over_draws(decs, CFG335, draw[rows], mu[rows], anchor[rows])
        for name in _SurrogateProblem._ROW_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_row_table_names_every_per_row_array():
    # every array attribute whose leading axis is the row axis is an entry
    # of the row table, so take() cannot miss one; and every entry is one.
    # On 6x4x4, whose two shared streams make c1 a matrix, every entry is
    # C-contiguous as built, taken and re-anchored: a strided view, such as
    # np.diagonal's of c1, would slow every numpy call that reads it.
    cfg = make_cfg(6, 4, 4)
    decs = [setup_case(seed, cfg)[1] for seed in (121, 221)]
    assert decs[0].dims.shared == 2
    anchor = np.full((5, decs[0].dims.shared), 0.1)
    problem = _SurrogateProblem.over_draws(decs, cfg, [0, 1, 1, 0, 1],
                                           [0.1, 0.3, 0.5, 0.7, 0.9], anchor)
    # after a derivation, so that no array formed on first use escapes
    problem._derivative(2, np.zeros((5, problem.m)), problem.point(np.zeros((5, problem.size))))
    per_row = {name for name, value in vars(problem).items()
               if isinstance(value, np.ndarray) and value.ndim and len(value) == 5}
    assert per_row == set(_SurrogateProblem._ROW_FIELDS)
    taken = problem.take([0, 2, 3])
    for sub in (problem, taken, taken.reanchored(anchor[:3] + 0.1)):
        for name in _SurrogateProblem._ROW_FIELDS:
            assert getattr(sub, name).flags.c_contiguous, name


def test_copy_reanchored_leaves_the_original():
    # a copy shares the original's arrays until re-anchored, and
    # re-anchoring replaces them rather than writing into them
    decs = [setup_case(seed)[1] for seed in (121, 221)]
    anchor = np.full((2, decs[0].dims.shared), 0.1)
    problem = _SurrogateProblem.over_draws(decs, CFG335, [0, 1], [0.3, 0.6], anchor)
    before = {name: getattr(problem, name).copy() for name in _SurrogateProblem._ROW_FIELDS}
    moved = copy.copy(problem)
    assert moved.c1 is problem.c1
    moved._anchor_rows(anchor + 0.2)
    for name, value in before.items():
        assert getattr(problem, name).tobytes() == value.tobytes()
    assert moved.offset.tobytes() != problem.offset.tobytes()
    rebuilt = _SurrogateProblem.over_draws(decs, CFG335, [0, 1], [0.3, 0.6], anchor + 0.2)
    for name in _SurrogateProblem._ROW_FIELDS:
        assert getattr(moved, name).tobytes() == getattr(rebuilt, name).tobytes()


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_packed_point_is_the_shared_and_free_arguments(shape):
    # one log2 serves the whole objective: the point is shared_args, then
    # 1 + p * gain of user 1's private, user 2's shared and user 2's private
    # streams, each gain written out here as its own formula; rows on
    # different draws, bit for bit
    cfg = make_cfg(*shape)
    decs = [setup_case(seed, cfg)[1] for seed in (116, 117)]
    rng = np.random.default_rng(118)
    d = decs[0].dims
    m, k, s2 = d.shared, d.user1_streams, cfg.noise_power
    allocs = [random_alloc(rng, d) for _ in decs]
    problem = _SurrogateProblem.over_draws(decs, cfg, [0, 1], [0.3, 0.7], np.zeros((2, m)))
    point = problem.point(np.stack([problem.dims.pack(alloc.p1, alloc.p2) for alloc in allocs]))
    for row, (dec, alloc) in enumerate(zip(decs, allocs)):
        p1, p2 = alloc.p1, alloc.p2
        gains = StreamGains([dec], cfg, 0)
        want = np.concatenate([
            *gains.shared_args(p1[:m], p2[:m]),
            1.0 + p1[m:k] * (dec.diag1[m:] ** 2 / (cfg.pathloss1 * s2)),
            1.0 + p2[:m] * (gains.w2 / s2),
            1.0 + p2[k:] * (dec.diag2[m:] ** 2 / (cfg.pathloss2 * s2)),
        ])
        assert point[row].tobytes() == want.tobytes()


# --- projection ----------------------------------------------------------------


def test_projection_inside_is_clip():
    v = np.array([0.2, -0.1, 0.3])
    np.testing.assert_allclose(project_power_budget(v, 1.0), [0.2, 0.0, 0.3])


def test_projection_zero_budget():
    np.testing.assert_array_equal(project_power_budget(np.array([1.0, 2.0]), 0.0), [0.0, 0.0])


def test_projection_feasible_and_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(200):
        v = rng.standard_normal(6) * rng.random() * 3
        budget = rng.random() * 2
        x = project_power_budget(v, budget)
        assert np.all(x >= 0.0)
        assert x.sum() <= budget + 1e-12
        np.testing.assert_allclose(project_power_budget(x, budget), x, atol=1e-12)


def test_projection_optimality_against_random_feasible_points():
    rng = np.random.default_rng(10)
    for _ in range(50):
        v = rng.standard_normal(5) * 2
        budget = 0.5 + rng.random()
        x = project_power_budget(v, budget)
        dist = np.linalg.norm(x - v)
        for _ in range(40):
            y = rng.random(5)
            y *= rng.random() * budget / y.sum()
            assert dist <= np.linalg.norm(y - v) + 1e-9


def test_projection_rejects_nan():
    # a NaN budget gave all NaN, and a NaN entry spread to the finite ones
    with pytest.raises(ValueError, match="budget"):
        project_power_budget(np.array([0.5, 1.0]), math.nan)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            project_power_budget(np.array([bad, 1.0]), 1.0)


@settings(max_examples=200, deadline=None)
@given(
    vals=st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    budget=st.floats(0.0, 4.0),
)
def test_projection_properties_hypothesis(vals, budget):
    x = project_power_budget(np.array(vals), budget)
    assert np.all(x >= 0.0)
    assert x.sum() <= budget + 1e-9


def bisection_projection(v, weights, budget, iters=300):
    """Independent oracle: bisection on the multiplier ``theta`` of
    ``max(0, v - theta / weights)``, kept on the feasible side."""
    x = np.maximum(v, 0.0)
    if x.sum() <= budget:
        return x
    lo, hi = 0.0, float(np.max(v * weights))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid / weights, 0.0).sum() > budget:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - hi / weights, 0.0)


@st.composite
def projection_cases(draw):
    # a small value pool forces ties and zeros; weights span 1e-3..1e3
    entry = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.25]), st.floats(-5, 5))
    v = np.array(draw(st.lists(entry, min_size=1, max_size=8)))
    weights = 10.0 ** np.array(
        draw(st.lists(st.floats(-3, 3), min_size=v.size, max_size=v.size))
    )
    # budgets from 0 through the float resolution of the entries to ~10
    ulps = np.spacing(np.max(np.abs(v)))
    budget = draw(
        st.one_of(st.integers(0, 8).map(lambda k: k * ulps), st.floats(0.0, 10.0))
    )
    return v, weights, float(budget)


@settings(max_examples=500, deadline=None)
@given(case=projection_cases())
def test_weighted_projection_matches_bisection(case):
    v, weights, budget = case
    x = _project(v, weights, budget)
    atol = 1e-12 * (1.0 + np.abs(v).sum())
    assert np.all(x >= 0.0)
    assert x.sum() <= budget + atol
    np.testing.assert_allclose(x, bisection_projection(v, weights, budget), rtol=0, atol=atol)
    unit = np.ones_like(v)
    np.testing.assert_array_equal(_project(v, unit, budget), project_power_budget(v, budget))


def last_hit_projection(v, weights, budget):
    """Oracle: the projection with the threshold of the last prefix whose
    threshold lies below its own breakpoint (the rule ``_project`` used
    before the largest prefix threshold), the same steps otherwise."""
    if v.ndim == 1:
        rows = None if weights is None else weights[None]
        return last_hit_projection(v[None], rows, budget)[0]
    x = np.maximum(v, 0.0)
    inside = np.add.reduce(x, axis=1) <= budget
    rows, n = v.shape
    starts, cols, counts = n * np.arange(rows), np.arange(n), np.arange(1.0, n + 1.0)
    breakpoints = v if weights is None else v * weights
    order = np.argsort(breakpoints, axis=1)[:, ::-1] + starts[:, None]
    theta = v.take(order).cumsum(axis=1) - budget
    theta /= counts if weights is None else (1.0 / weights.take(order)).cumsum(axis=1)
    hits = breakpoints.take(order) > theta
    # no hit (budgets at the float resolution of the entries): the first
    theta = theta.take(starts + np.maximum.reduce(hits * cols, axis=1))[:, None]
    proj = np.maximum(v - (theta if weights is None else theta / weights), 0.0)
    return np.where(inside[:, None], x, proj)


@st.composite
def projection_rows(draw, tied):
    """1 to 29 rows of 1 to 12 entries, 1-D or 2-D, at unit or diagonal
    weights, with the budget at 0, at 1 or at a few units of the float
    resolution of the entries. Random entries are untied; entries rounded
    to 0.1 (and weights that are powers of two) tie often."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 29)), draw(st.integers(1, 12)))
    v = rng.standard_normal(shape) * rng.uniform(0.1, 5.0)
    weights = None
    if draw(st.booleans()):
        weights = 2.0 ** rng.integers(-2, 3, shape) if tied else 10.0 ** rng.uniform(-3, 3, shape)
    if tied:
        v = np.round(v, 1)
    ulps = np.spacing(np.max(np.abs(v)))
    budget = float(draw(st.sampled_from([0.0, 1.0]) | st.integers(0, 8).map(lambda k: k * ulps)))
    if draw(st.booleans()):
        v = v[0]
        weights = None if weights is None else weights[0]
    return v, weights, budget


@settings(max_examples=300, deadline=None)
@given(case=projection_rows(tied=False))
def test_projection_threshold_is_the_last_hit_on_untied_rows(case):
    # the largest prefix threshold is the last hit's, bit for bit, on
    # untied rows and on rows already projected onto the budget (as the
    # warm start is)
    v, weights, budget = case
    assert _project(v, weights, budget).tobytes() == last_hit_projection(v, weights, budget).tobytes()
    x = last_hit_projection(v, weights, budget)
    assert _project(x, weights, budget).tobytes() == last_hit_projection(x, weights, budget).tobytes()


@settings(max_examples=300, deadline=None)
@given(case=projection_rows(tied=True))
def test_projection_threshold_within_one_rounding_on_tied_rows(case):
    # at tied breakpoints the two rules may pick thresholds one rounding
    # apart, which moves an entry by at most two roundings of the row's
    # largest entry
    v, weights, budget = case
    got, want = _project(v, weights, budget), last_hit_projection(v, weights, budget)
    scale = np.max(np.abs(v), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 2.0 * np.finfo(float).eps * scale)


# --- inner solver ---------------------------------------------------------------


def waterfill_bisection(gains, budget, lo=0.0, hi=None, iters=200):
    """Independent oracle: bisection on the water level."""
    gains = np.asarray(gains, dtype=float)
    if hi is None:
        hi = budget + np.max(1.0 / gains[gains > 0], initial=0.0) + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        spent = np.sum(np.maximum(mid - 1.0 / gains, 0.0))
        if spent > budget:
            hi = mid
        else:
            lo = mid
    level = 0.5 * (lo + hi)
    powers = np.maximum(level - 1.0 / gains, 0.0)
    return powers, float(np.sum(np.log2(1.0 + gains * powers)))


def test_inner_mu_zero_matches_kkt_oracle():
    # with mu = 0 the surrogate is a plain water-filling problem over user
    # 2's streams
    for seed in range(8):
        rng, dec = setup_case(20 + seed)
        d = dec.dims
        alloc, info = maximize_surrogate(np.zeros(d.shared), dec, CFG335, 0.0)
        assert info.converged
        assert np.all(alloc.p1 == 0.0)
        gains = []
        for l in d.shared_indices():
            gains.append(abs(dec.r2[l, l]) ** 2 / (CFG335.pathloss2 * CFG335.noise_power))
        for l in d.private2_indices():
            row = l - d.private1
            gains.append(abs(dec.r2[row, row]) ** 2 / (CFG335.pathloss2 * CFG335.noise_power))
        _, oracle_rate = waterfill_bisection(np.array(gains), CFG335.power_budget)
        got = rate_user2(alloc, dec, CFG335).sum()
        assert got == pytest.approx(oracle_rate, rel=1e-6)


def test_inner_zero_budget():
    cfg = SystemConfig(
        n_bs=5, m1=3, m2=3, pathloss1=62500.0, pathloss2=2500.0,
        power_budget=1e-300, noise_power=10 ** (-6.5),
    )
    _, dec = setup_case(30, cfg)
    alloc, info = maximize_surrogate(np.zeros(dec.dims.shared), dec, cfg, 0.5)
    assert alloc.total_power <= 1e-299
    assert info.value == pytest.approx(0.0, abs=1e-12)


def test_inner_separable_matches_waterfilling():
    # no shared streams: the problem splits into two independent
    # water-filling problems weighted by mu
    cfg = make_cfg(4, 2, 2)
    for seed in range(8):
        rng, dec = setup_case(40 + seed, cfg)
        d = dec.dims
        assert d.shared == 0
        mu = 0.5
        alloc, info = maximize_surrogate(np.zeros(0), dec, cfg, mu)
        assert info.converged
        # oracle: with equal weights the combined problem is a single
        # water-filling over all four gains
        g1 = [abs(dec.r1[l, l]) ** 2 / (cfg.pathloss1 * cfg.noise_power) for l in d.private1_indices()]
        g2 = [abs(dec.r2[l - d.private1, l - d.private1]) ** 2 / (cfg.pathloss2 * cfg.noise_power) for l in d.private2_indices()]
        _, oracle_rate = waterfill_bisection(np.array(g1 + g2), cfg.power_budget)
        got = weighted_sum_rate(alloc, dec, cfg, mu) / mu
        assert got == pytest.approx(oracle_rate, rel=1e-6)


def test_inner_certificate_across_instances():
    rng = np.random.default_rng(50)
    for cfg in [make_cfg(5, 3, 3), make_cfg(6, 4, 4), make_cfg(2, 2, 2)]:
        for _ in range(10):
            ch = sample_channels(rng, cfg.n_bs, cfg.m1, cfg.m2)
            dec = simultaneous_triangularize(ch)
            d = dec.dims
            anchor = rng.random(d.shared) * 0.2
            mu = float(rng.random())
            alloc, info = maximize_surrogate(anchor, dec, cfg, mu)
            assert info.converged, (cfg, mu, info)
            assert info.residual <= 1e-6 * (1.0 + info.grad_norm)
            alloc.validate(d, cfg.power_budget)


def test_inner_certificate_at_kinks_matches_weight_grid():
    """At a tie between user 1's decoding points every branch weight in
    [0, 1] gives a valid supergradient; the reported residual must be as
    small as the best one over a 0.01 grid of every kinked stream's weight.
    Small weights on 6x4x4 end on such ties, some where a poor weight
    leaves a residual far above the certificate tolerance."""
    cfg = make_cfg(6, 4, 4)
    mu = 0.02
    grid = np.linspace(0.0, 1.0, 101)
    kinked = 0
    worst = 0.0
    for seed in (0, 6):
        _, dec = setup_case(seed, cfg)
        anchor = np.zeros(dec.dims.shared)
        alloc, info = maximize_surrogate(anchor, dec, cfg, mu)
        problem = _SurrogateProblem.over_draws([dec], cfg, 0, mu, anchor)
        z = problem.dims.pack(alloc.p1, alloc.p2)
        _, b1, b2, point = problem.evaluate(z)
        kinks = np.flatnonzero(
            np.abs(b1 - b2) <= 1e-7 * (1.0 + np.abs(b1) + np.abs(b2))
        )
        if not kinks.size:
            continue
        kinked += 1
        lam = (b1 <= b2).astype(float)
        residuals = []
        for weights in itertools.product(grid, repeat=kinks.size):
            lam[kinks] = weights
            residuals.append(_residual(z, problem._derivative(1, lam, point)))
        assert info.residual <= min(residuals) + 1e-12, (seed, kinks)
        worst = max(worst, max(residuals))
    assert kinked > 0
    assert worst > 1e-3


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solvers_reject_a_non_finite_anchor(bad):
    # a NaN anchor passed the `anchor < 0` guards and gave a NaN value and a
    # zero allocation; an infinite one failed on a numpy warning
    rng, dec = setup_case(16)
    anchor = np.array([bad])  # 5x3x3 has one shared stream
    with pytest.raises(ValueError, match="anchor"):
        maximize_surrogate(anchor, dec, CFG335, 0.5)
    with pytest.raises(ValueError, match="anchor"):
        rate_underestimator(random_alloc(rng, dec.dims), anchor, dec, CFG335, 0)
    with pytest.raises(ValueError, match="anchor"):
        CcpState(anchor, PowerAllocation.zeros(dec.dims), 0, np.zeros(0), False)


@pytest.mark.parametrize("mu", [2.0, -1.0, math.nan])
def test_surrogate_rejects_a_weight_outside_unit_interval(mu):
    # 2.0 and -1.0 were solved and reported converged; NaN gave a zero
    # allocation, not converged
    _, dec = setup_case(16)
    with pytest.raises(ValueError, match=r"mu must lie in \[0, 1\]"):
        maximize_surrogate(np.zeros(dec.dims.shared), dec, CFG335, mu)


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(ccp_max_iters=0)
    with pytest.raises(ValueError):
        SolverSettings(ccp_tol=0.0)
    with pytest.raises(ValueError):
        SolverSettings(inner_max_iters=0)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverSettings(ccp_tol=tol)
    # a cap that is not an integer loaded and died mid-run
    for caps in ({"ccp_max_iters": 2.5}, {"inner_max_iters": 10.0}, {"ccp_max_iters": True}):
        with pytest.raises(ValueError, match="integers"):
            SolverSettings(**caps)
    assert SolverSettings(ccp_max_iters=np.int64(3)).ccp_max_iters == 3


# --- outer loop ------------------------------------------------------------------


def test_ccp_trace_monotone_and_runs_to_cap():
    _, dec = setup_case(60)
    alloc, state = ccp_allocate(dec, CFG335, mu=0.5)
    assert state.iterations == 10
    assert len(state.objective_trace) == 10
    assert np.all(np.diff(state.objective_trace) >= -1e-9)
    np.testing.assert_array_equal(state.q, alloc.p2[: dec.dims.shared])
    alloc.validate(dec.dims, CFG335.power_budget)


def test_ccp_mu_zero_single_iteration_suffices():
    _, dec = setup_case(61)
    alloc, state = ccp_allocate(dec, CFG335, mu=0.0)
    assert np.all(alloc.p1 == 0.0)
    # the allocation settles immediately; the stopping rule needs one extra
    # iteration to observe it
    assert state.converged and state.iterations <= 3
    assert np.ptp(state.objective_trace) <= 1e-9 * abs(state.objective_trace[-1])


def test_ccp_surrogate_tightness_each_iteration():
    # re-anchoring is tight: the surrogate at the previous allocation equals
    # the true objective there
    _, dec = setup_case(62)
    mu = 0.5
    settings = SolverSettings()
    q = np.zeros(dec.dims.shared)
    for _ in range(5):
        alloc, _ = maximize_surrogate(q, dec, CFG335, mu, settings=settings)
        q = alloc.p2[: dec.dims.shared].copy()
        problem = _SurrogateProblem.over_draws([dec], CFG335, 0, mu, q)
        tight = problem.evaluate(problem.dims.pack(alloc.p1, alloc.p2))[0]
        truth = weighted_sum_rate(alloc, dec, CFG335, mu)
        assert tight == pytest.approx(truth, abs=1e-9)


def test_ccp_majorization_property():
    for seed in (63, 64, 65):
        cfg = make_cfg(6, 4, 4)
        _, dec = setup_case(seed, cfg)
        for mu in (0.25, 0.5, 0.75):
            _, state = ccp_allocate(dec, cfg, mu=mu)
            assert np.all(np.diff(state.objective_trace) >= -1e-9)


def test_ccp_converges_with_loose_tolerance():
    _, dec = setup_case(66)
    settings = SolverSettings(ccp_max_iters=200, ccp_tol=1e-4)
    alloc, state = ccp_allocate(dec, CFG335, mu=0.5, settings=settings)
    assert state.converged
    assert state.iterations < 200
    alloc.validate(dec.dims, CFG335.power_budget)


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
@pytest.mark.parametrize("mu", [0.2, 0.8])
def test_ccp_edge_shapes_finite_feasible_monotone(shape, mu):
    cfg = make_cfg(*shape)
    _, dec = setup_case(90, cfg)
    alloc, state = ccp_allocate(dec, cfg, mu=mu)
    alloc.validate(dec.dims, cfg.power_budget)
    assert np.all(np.isfinite(rate_user1(alloc, dec, cfg)))
    assert np.all(np.isfinite(rate_user2(alloc, dec, cfg)))
    assert np.all(np.isfinite(state.objective_trace))
    assert np.all(np.diff(state.objective_trace) >= -1e-9)


def test_ccp_grid_oracle_small():
    # coarse sanity version of the acceptance grid check
    cfg = make_cfg(2, 2, 2)
    settings = SolverSettings(ccp_max_iters=300, ccp_tol=1e-7)
    for seed in range(3):
        rng, dec = setup_case(70 + seed, cfg)
        pts = np.linspace(0.0, cfg.power_budget, 12)
        best = 0.0
        grids = np.meshgrid(pts, pts, pts, pts, indexing="ij")
        tot = sum(grids)
        mask = tot <= cfg.power_budget + 1e-12
        p1a, p1b, p2a, p2b = (g[mask] for g in grids)
        s2n = cfg.noise_power
        w1 = np.abs(dec.r1[:2, :2]) ** 2 / cfg.pathloss1
        w2 = np.abs(np.diagonal(dec.r2)[:2]) ** 2 / cfg.pathloss2
        r10 = np.minimum(
            np.log2(1 + p1a * w1[0, 0] / (s2n + p2a * w1[0, 0] + p2b * w1[0, 1])),
            np.log2(1 + p1a * w2[0] / (s2n + p2a * w2[0])),
        )
        r11 = np.minimum(
            np.log2(1 + p1b * w1[1, 1] / (s2n + p2b * w1[1, 1])),
            np.log2(1 + p1b * w2[1] / (s2n + p2b * w2[1])),
        )
        r2 = np.log2(1 + p2a * w2[0] / s2n) + np.log2(1 + p2b * w2[1] / s2n)
        best = float(np.max(0.5 * (r10 + r11) + 0.5 * r2))
        alloc, _ = ccp_allocate(dec, cfg, mu=0.5, settings=settings)
        got = weighted_sum_rate(alloc, dec, cfg, 0.5)
        assert got >= best * 0.98


# --- lockstep over weights ---------------------------------------------------------


def alone(dec, cfg, mu, settings=None):
    """The state of the one-row run, which holds the allocation it returns."""
    alloc, state = ccp_allocate(dec, cfg, mu, settings)
    assert state.allocation is alloc
    return state


def assert_same_solve(record, d, i, want):
    """Row ``(d, i)`` of a lockstep record and the ``CcpState`` ``want``
    agree bit for bit, and the row is padded past its last iteration."""
    state = record.state(d, i)
    for a, b in [
        (record.p1[d, i], want.allocation.p1),
        (record.p2[d, i], want.allocation.p2),
        (state.allocation.p1, want.allocation.p1),
        (state.allocation.p2, want.allocation.p2),
        (state.q, want.q),
        (state.objective_trace, want.objective_trace),
    ]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (state.iterations, state.converged) == (want.iterations, want.converged)
    assert state.inner_results == want.inner_results
    for r, r_w in zip(state.inner_results, want.inner_results):
        assert np.float64(r.value).tobytes() == np.float64(r_w.value).tobytes()
        assert np.float64(r.residual).tobytes() == np.float64(r_w.residual).tobytes()
    n = state.iterations
    assert not record.trace[d, i, n:].any()
    assert not record.inner.iterations[d, i, n:].any()


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_weights_in_lockstep_match_one_weight_solves(shape):
    # every row of the lockstep run is the one-weight run at its mu, whatever
    # the batch size and the order of the weights
    cfg = make_cfg(*shape)
    rng, dec = setup_case(100, cfg)
    mus = list(np.arange(21) / 20)
    want = {mu: alone(dec, cfg, mu) for mu in mus}
    for size in (1, 7, 21):
        batch = list(rng.permutation(mus)[:size])
        record = ccp_allocate_draws([dec], cfg, batch)
        assert record.iterations.shape == (1, size)
        for i, mu in enumerate(batch):
            assert_same_solve(record, 0, i, want[mu])


@pytest.mark.parametrize("shape", [(5, 3, 3), (6, 4, 4)])
def test_weights_in_lockstep_match_when_inner_budget_runs_out(shape):
    # an 8-iteration budget ends some solves before the exact stage's test
    # holds, so rows that stop on their spent budget run next to rows that
    # hit; a budget of 1 is spent in the first softmin stage, so every later
    # stage, the exact one included, runs on a zero budget: one evaluation
    # and no step
    cfg = make_cfg(*shape)
    _, dec = setup_case(101, cfg)
    mus = [0.0, 0.15, 0.5, 0.85, 1.0]
    for inner_max_iters in (8, 1):
        settings = SolverSettings(inner_max_iters=inner_max_iters)
        record = ccp_allocate_draws([dec], cfg, mus, settings=settings)
        ran = np.arange(settings.ccp_max_iters) < record.iterations[..., None]
        assert (record.inner.iterations[ran] <= inner_max_iters).all()
        if inner_max_iters == 8:
            converged = record.inner.converged[ran]
            assert converged.any() and not converged.all()
        for i, mu in enumerate(mus):
            assert_same_solve(record, 0, i, alone(dec, cfg, mu, settings=settings))


def test_weights_in_lockstep_reject_weights_outside_unit_interval():
    _, dec = setup_case(102)
    with pytest.raises(ValueError):
        ccp_allocate_draws([dec], CFG335, [0.5, 1.5])
    record = ccp_allocate_draws([dec], CFG335, [])
    assert record.p1.shape == (1, 0, dec.dims.total)
    assert record.rates.shape == (1, 0, 2)


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
@pytest.mark.parametrize("settings", [SolverSettings(), SolverSettings(inner_max_iters=8),
                                      SolverSettings(inner_max_iters=1)])
def test_draws_in_lockstep_match_one_draw_solves(shape, settings):
    # every (draw, weight) row of the joint run is the one-draw run of its
    # draw, whatever the number of draws and the order of the weights: each
    # row reads its own draw's gains, from the first anchor on
    cfg = make_cfg(*shape)
    rng = np.random.default_rng(104)
    decs = [setup_case(seed, cfg)[1] for seed in (105, 106, 107)]
    mus = list(np.arange(11) / 10)
    one_draw = [ccp_allocate_draws([dec], cfg, mus, settings) for dec in decs]
    for count in (1, 2, 3):
        batch = list(rng.permutation(mus))
        joint = ccp_allocate_draws(decs[:count], cfg, batch, settings)
        assert joint.iterations.shape == (count, len(batch))
        for d in range(count):
            for i, mu in enumerate(batch):
                assert_same_solve(joint, d, i, one_draw[d].state(0, mus.index(mu)))


def test_draws_in_lockstep_edge_cases():
    _, dec = setup_case(108)
    _, other = setup_case(108, make_cfg(6, 4, 4))
    empty = ccp_allocate_draws([], CFG335, [0.5])
    assert empty.p1.shape == (0, 1, CFG335.dims.total)
    assert empty.trace.shape == (0, 1, SolverSettings().ccp_max_iters)
    none = ccp_allocate_draws([dec, dec], CFG335, [])
    assert none.rates.shape == (2, 0, 2)
    assert none.inner.iterations.shape == (2, 0, SolverSettings().ccp_max_iters)
    with pytest.raises(ValueError, match="same stream dimensions"):
        ccp_allocate_draws([dec, other], CFG335, [0.5])


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_record_rates_are_the_rate_sums_of_its_powers(shape):
    # the rates a record keeps are each user's rate_breakdown sum at the
    # row's final powers, bit for bit, and its trace ends on their weighted
    # sum
    cfg = make_cfg(*shape)
    decs = [setup_case(seed, cfg)[1] for seed in (111, 112, 113)]
    mus = np.arange(11) / 10
    record = ccp_allocate_draws(decs, cfg, mus)
    for d, dec in enumerate(decs):
        for i, mu in enumerate(mus):
            br = rate_breakdown(record.allocation(d, i), dec, cfg)
            want = np.array([br.r1.sum(), br.r2.sum()])
            assert record.rates[d, i].tobytes() == want.tobytes()
            last = record.trace[d, i, record.iterations[d, i] - 1]
            assert last == mu * want[0] + (1.0 - mu) * want[1]


@pytest.mark.parametrize("shape", [(5, 3, 3), (6, 4, 4), (3, 3, 3)])
def test_ccp_is_the_same_at_any_power_budget(shape):
    # at a fixed pt / noise the problem is the same in units of the budget:
    # the outer loop stops on moves relative to the budget, and the powers
    # scale with it
    n, m1, m2 = shape
    decs = [setup_case(seed, make_cfg(*shape))[1] for seed in (114, 115)]
    mus = np.arange(11) / 10
    records = {}
    for pt_dbm in (-100.0, 0.0, 30.0):
        budget = 10.0 ** ((pt_dbm - 30.0) / 10.0)
        cfg = SystemConfig(
            n_bs=n, m1=m1, m2=m2, pathloss1=62500.0, pathloss2=2500.0,
            power_budget=budget, noise_power=budget * 10 ** (-6.5),
        )
        records[pt_dbm] = record = ccp_allocate_draws(decs, cfg, mus)
        assert record.rates.min() >= 0.0 and record.rates.max() > 1.0
        np.testing.assert_allclose(record.p1 / budget, records[-100.0].p1 / 1e-13,
                                   rtol=0, atol=1e-9)
    for record in records.values():
        np.testing.assert_array_equal(record.iterations, records[30.0].iterations)
        np.testing.assert_allclose(record.rates, records[30.0].rates, rtol=1e-9)


@pytest.mark.parametrize("inner_max_iters", [1, 3, 8, 10000])
def test_inner_result_is_the_evaluation_at_the_returned_point(inner_max_iters):
    # the reported value, residual and gradient norm are those of the exact
    # objective at the returned allocation, whether the exact stage stopped
    # on its test, on a spent budget (at 1, its budget is zero: it evaluates
    # once and takes no step) or without a step
    settings = SolverSettings(inner_max_iters=inner_max_iters)
    rng = np.random.default_rng(103)
    for cfg in (make_cfg(5, 3, 3), make_cfg(6, 4, 4), make_cfg(4, 2, 2)):
        for _ in range(4):
            dec = simultaneous_triangularize(sample_channels(rng, cfg.n_bs, cfg.m1, cfg.m2))
            anchor = rng.random(dec.dims.shared) * 0.2
            mu = float(rng.random())
            alloc, info = maximize_surrogate(anchor, dec, cfg, mu, settings=settings)
            assert info.iterations <= inner_max_iters
            problem = _SurrogateProblem.over_draws([dec], cfg, 0, mu, anchor)
            z = problem.dims.pack(alloc.p1, alloc.p2)
            f, b1, b2, point = problem.evaluate(z)
            g = problem._derivative(1, problem._branch_weights(b1, b2, 0.0), point)
            assert info.value == f
            assert info.residual == _residual(z, g)
            assert info.grad_norm == np.linalg.norm(g)
            assert info.converged == (info.residual <= 1e-6 * (1.0 + info.grad_norm))


def stage_calls(monkeypatch):
    """Log, in call order, every surrogate evaluation (with its point),
    every derivation of a gradient and its residual, and every Newton target
    (with its point) of the solver."""
    log = []
    evaluate, residual, project = _SurrogateProblem.evaluate, power._residual, power._project

    def evaluated(self, z, tau=0.0):
        log.append(("evaluate", z.copy()))
        return evaluate(self, z, tau)

    def derived(z, g):
        log.append(("residual", None))
        return residual(z, g)

    def projected(v, weights, budget):
        out = project(v, weights, budget)
        if weights is not None:  # only the Newton target is projected in a metric
            log.append(("target", out.copy()))
        return out

    monkeypatch.setattr(_SurrogateProblem, "evaluate", evaluated)
    monkeypatch.setattr(power, "_residual", derived)
    monkeypatch.setattr(power, "_project", projected)
    return log


@pytest.mark.parametrize(
    "shape, outer, inner, evaluations, derivations",
    [((5, 3, 3), 142, 1674, 204, 204), ((6, 4, 4), 150, 1804, 328, 233)],
    ids=["5x3x3", "6x4x4"],  # a re-pin keeps the test's name
)
def test_region_trial_solver_work_pinned(
    monkeypatch, shape, outer, inner, evaluations, derivations
):
    # the solver work of trial 0 at seed 0 with the benchmark physics and 21
    # weights; a change here changes the work every region point costs
    n, m1, m2 = shape
    scenario = Scenario(
        n=n, m1=m1, m2=m2, d1=250.0, d2=50.0, pathloss_exponent=2.0,
        pt_dbm=30.0, sigma2_dbm=-35.0, mu_steps=21, seed=0,
    )
    cfg = scenario.config()
    rng = np.random.default_rng(np.random.SeedSequence([0, 0]))
    dec = simultaneous_triangularize(sample_channels(rng, n, m1, m2))
    log = stage_calls(monkeypatch)
    record = ccp_allocate_draws(
        [dec], cfg, scenario.mu_grid(), settings=scenario.solver_settings()
    )
    monkeypatch.undo()
    assert record.iterations.sum() == outer
    assert record.inner.iterations.sum() == inner
    kinds = [kind for kind, _ in log]
    assert (kinds.count("evaluate"), kinds.count("residual")) == (evaluations, derivations)


def test_region_block_takes_pinned(monkeypatch):
    # The surrogate work of a 2-trial 5x3x3 region block at seed 0 with the
    # benchmark physics (block 0 of the bench's region_ref): calls of take,
    # evaluate and _derivative. A stage parks its stopped rows and takes its
    # running rows once a few dozen have stopped; before, it took them at
    # every stop: 142 takes, with the same 228 and 406.
    scenario = Scenario(n=5, m1=3, m2=3, d1=250.0, d2=50.0, pathloss_exponent=2.0,
                        pt_dbm=30.0, sigma2_dbm=-35.0, mu_steps=21, trials=2, seed=0)
    decs = [
        simultaneous_triangularize(sample_channels(
            np.random.default_rng(np.random.SeedSequence([0, trial])), 5, 3, 3))
        for trial in range(scenario.trials)
    ]
    counts = dict.fromkeys(["take", "evaluate", "_derivative"], 0)
    for name in counts:
        method = getattr(_SurrogateProblem, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(_SurrogateProblem, name, counted)
    ccp_allocate_draws(decs, scenario.config(), scenario.mu_grid(), scenario.solver_settings())
    monkeypatch.undo()
    assert counts == {"take": 10, "evaluate": 228, "_derivative": 406}


# check's scenario with the benchmark physics; block 0 of the bench's
# check_ref workload is its seed 0
CHECK_SCENARIO = Scenario(n=5, m1=3, m2=3, d1=250.0, d2=50.0, pathloss_exponent=2.0,
                          pt_dbm=30.0, sigma2_dbm=-35.0, trials=20, seed=0)


def check_draw(trial):
    rng = np.random.default_rng(np.random.SeedSequence([CHECK_SCENARIO.seed, trial]))
    return simultaneous_triangularize(sample_channels(rng, 5, 3, 3))


def test_check_trial_solver_work_pinned(monkeypatch):
    # the work of check's solve of trial 0 at seed 0 with the benchmark
    # physics: one row at mu = 0.5, capped at 10 outer iterations; a change
    # here changes the work every check trial costs. Every stage after an
    # outer iteration's first starts from its predecessor's carry, so 40 of
    # the 10 x 5 stages neither evaluate nor derive on entry.
    cfg = CHECK_SCENARIO.config()
    log = stage_calls(monkeypatch)
    _, state = ccp_allocate(check_draw(0), cfg, 0.5, settings=CHECK_SCENARIO.solver_settings())
    monkeypatch.undo()
    assert (state.iterations, state.converged) == (10, False)
    inner = [r.iterations for r in state.inner_results]
    assert inner == [19, 11, 11, 11, 11, 11, 10, 10, 10, 10]
    kinds = [kind for kind, _ in log]
    assert (kinds.count("evaluate"), kinds.count("residual")) == (74, 74)


def test_check_trial_surrogate_calls_pinned(monkeypatch):
    # The surrogate work of check's solve of trial 0 at seed 0 (mu = 0.5):
    # calls of _value, evaluate and _derivative. Each evaluate takes one
    # value; the other values are those a one-row stage takes at its own
    # tau from the last stage's point, only when it steps or returns it.
    # Before stages took that value lazily: 114, 74 and 138.
    counts = dict.fromkeys(["_value", "evaluate", "_derivative"], 0)
    for name in counts:
        method = getattr(_SurrogateProblem, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(_SurrogateProblem, name, counted)
    ccp_allocate(check_draw(0), CHECK_SCENARIO.config(), 0.5, CHECK_SCENARIO.solver_settings())
    monkeypatch.undo()
    assert counts == {"_value": 96, "evaluate": 74, "_derivative": 138}


def test_check_solves_pinned():
    # one digest over every CcpState field of the 20 ccp_allocate solves of
    # check at seed 0 (mu = 0.5), read before stages handed on their
    # evaluations: a rounding change on the one-row path shows here
    cfg, settings = CHECK_SCENARIO.config(), CHECK_SCENARIO.solver_settings()
    digest = hashlib.sha256()
    for trial in range(CHECK_SCENARIO.trials):
        alloc, state = ccp_allocate(check_draw(trial), cfg, 0.5, settings)
        fields = [state.q, alloc.p1, alloc.p2, state.iterations, state.objective_trace,
                  state.converged]
        fields += [a for r in state.inner_results for a in r.astuple()]
        for a in fields:
            digest.update(np.asarray(a).tobytes())
    assert digest.hexdigest()[:16] == "b6abc9d45b0607cc"


def test_rows_carry_the_evaluations_of_different_steps(monkeypatch):
    # rows that accept different step sizes in one iteration carry each
    # accepted evaluation, copied in by mask, to the next iteration in place
    # of a fresh one; every row is still its own one-row solve
    masked = []
    carry = power._carry

    def counted(into, evaluation, rows):
        masked.append(into is not None)
        return carry(into, evaluation, rows)

    monkeypatch.setattr(power, "_carry", counted)
    decs = [setup_case(seed)[1] for seed in (121, 221)]
    mus = list(np.arange(11) / 10)
    record = ccp_allocate_draws(decs, CFG335, mus)
    monkeypatch.undo()
    assert sum(masked) > 0
    for d, dec in enumerate(decs):
        for i, mu in enumerate(mus):
            assert_same_solve(record, d, i, alone(dec, CFG335, mu))


@pytest.mark.parametrize("backtracks, start", [
    (0, [0.1] * 6),
    (1, [0.02514018838227714, 0.02360699482764004, 0.09409707768052226,
         0.5824621226620944, 0.09160366509046447, 0.15695898319901908]),
])
def test_one_evaluation_serves_the_polish_and_the_full_step(monkeypatch, backtracks, start):
    # Row 0 starts at its optimum, so its Newton step is objective-flat and
    # it polishes; row 1 starts at ``start`` and takes the Armijo search.
    # One evaluation serves the polish and the full step t = 1: row 0 sits at
    # the Newton target, row 1 at start + d. When row 1 takes the full step,
    # the polish's derivation is the next iteration's; when it backtracks,
    # the next iteration derives its own. Each row is its one-row stage, bit
    # for bit.
    _, dec = setup_case(121)
    mu, anchor = 0.8, np.full(dec.dims.shared, 0.3)
    one = _SurrogateProblem.over_draws([dec], CFG335, [0], [mu], [anchor])
    optimum, _ = power._maximize(one, np.zeros((1, one.size)), SolverSettings())
    problem = _SurrogateProblem.over_draws([dec], CFG335, [0, 0], [mu, mu], [anchor, anchor])
    z0 = np.stack([optimum[0], start])
    # exact objective, one step per row, no residual hit, and a flatness test
    # the optimum's model ascent (1e-13 relative) passes
    tau, caps, rtol, gd_rtol = 0.0, np.array([1, 1]), 0.0, 1e-9
    log = stage_calls(monkeypatch)
    z = z0.copy()
    result = power._ascent_stage(problem, z, tau, caps, rtol, gd_rtol)
    monkeypatch.undo()
    kinds = [kind for kind, _ in log]
    # the start's evaluation and derivation, the target, then one evaluation
    # and the polish's derivation
    assert kinds[:5] == ["evaluate", "residual", "target", "evaluate", "residual"]
    target, point = log[2][1], log[3][1]
    assert point[0].tobytes() == target[0].tobytes()
    # row 1 took the line search: on a concave objective a flat row rises by
    # at most its model ascent, and row 1 rose by more
    before = problem.evaluate(z0)[0]
    assert result[1][1] - before[1] > gd_rtol * (1.0 + abs(before[1]))
    # the backtracking trials, then the second iteration, at the cap, derives
    # only when nothing was carried
    assert kinds[5:] == ["evaluate"] * backtracks + ["residual"] * (backtracks > 0)
    for r in range(2):
        z_alone = z0[r : r + 1].copy()
        alone = power._ascent_stage(
            problem.take([r]), z_alone, tau, caps[r : r + 1], rtol, gd_rtol
        )
        assert z_alone.tobytes() == z[r : r + 1].tobytes()
        for a, b in zip(result, alone):
            assert a[r : r + 1].tobytes() == b.tobytes()


@pytest.mark.parametrize("cap", [2, 10000])
def test_rows_stopping_together_return_as_beside_a_row_that_does_not(cap):
    # Two copies of one row stop in the same iteration, so on their own they
    # drop out together; beside a third row they drop out before it (at cap
    # 2) or after it (uncapped). Both ways, and each row alone in a stage of
    # its own, give the same bits.
    _, dec = setup_case(122)
    anchor = np.full(dec.dims.shared, 0.2)
    problem = _SurrogateProblem.over_draws([dec], CFG335, [0, 0, 0], [0.6, 0.6, 0.3], [anchor] * 3)
    caps, tau, rtol, gd_rtol = np.array([cap, cap, 22]), 0.0, 1e-6, 1e-15

    def stage(rows):
        z = np.zeros((len(rows), problem.size))
        return (z, *power._ascent_stage(problem.take(rows), z, tau, caps[rows], rtol, gd_rtol))

    beside = stage([0, 1, 2])
    pair = stage([0, 1])
    used = beside[1]
    assert used[0] == used[1] != used[2]
    assert (used[0] == cap) == (cap == 2)
    for a, b in zip(beside, pair):
        assert a.dtype == b.dtype and a[:2].tobytes() == b.tobytes()
    for r in range(3):
        for a, b in zip(beside, stage([r])):
            assert a.dtype == b.dtype and a[r : r + 1].tobytes() == b.tobytes()


def test_stage_of_one_row_and_of_none():
    # one row returns the evaluation at the point it writes into z; no rows
    # return empty results of the same types and leave z as it is
    _, dec = setup_case(123)
    anchor = np.full(dec.dims.shared, 0.1)
    problem = _SurrogateProblem.over_draws([dec], CFG335, [0], [0.5], [anchor])
    z = np.zeros((1, problem.size))
    used, f, res, gnorm = power._ascent_stage(problem, z, 0.0, np.array([10000]), 1e-6, 1e-15)
    assert used.dtype == int and used.shape == f.shape == res.shape == gnorm.shape == (1,)
    assert used[0] > 1 and z.any()
    value, b1, b2, point = problem.evaluate(z)
    g = problem._derivative(1, problem._branch_weights(b1, b2, 0.0), point)
    assert f.tobytes() == value.tobytes()
    assert res.tobytes() == _residual(z, g).tobytes()
    assert gnorm[0] == np.linalg.norm(g)
    none = problem.take(np.array([], dtype=int))
    z = np.zeros((0, problem.size))
    out = power._ascent_stage(none, z, 0.0, np.zeros(0, dtype=int), 1e-6, 1e-15)
    assert [(a.dtype, a.shape) for a in out] == [(np.dtype(int), (0,))] + [
        (np.dtype(float), (0,))
    ] * 3
    assert z.shape == (0, problem.size)


def test_failed_line_search_leaves_the_row_where_it_started(monkeypatch):
    # Every evaluation of the row at mu = 0.3 after the stage's first reads
    # 1.0 lower than it is, so no trial passes its Armijo test (not even
    # at a t so small that the trial point is the start): the search halves
    # t from 1 to 2**-59 (60 trials), fails below 1e-18, and the row stops
    # in its first iteration at its start, with that point's evaluation.
    # The row at mu = 0.7 steps on. The row alone and the row inside the
    # two-row lockstep give the same bits. In the lockstep the stopped row
    # stays parked at its start, and each later evaluation takes it there.
    _, dec = setup_case(126)
    anchor = np.full(dec.dims.shared, 0.2)
    problem = _SurrogateProblem.over_draws([dec], CFG335, [0, 0], [0.3, 0.7], [anchor] * 2)
    z0 = np.full((2, problem.size), 1.0 / problem.size)
    evaluate = _SurrogateProblem.evaluate
    calls, lowered, points = [], [], []

    def no_ascent(self, z, tau=0.0):
        f, *rest = evaluate(self, z, tau)
        off = (self.mu == 0.3) & (calls[-1] > 0)
        calls[-1] += 1
        lowered[-1] += np.count_nonzero(off)
        points[-1].append(z[:1].tobytes())
        return f - off, *rest

    monkeypatch.setattr(_SurrogateProblem, "evaluate", no_ascent)
    caps, tau, rtol, gd_rtol = np.array([5, 5]), 0.0, 0.0, 1e-15
    runs = []
    for rows in ([0, 1], [0]):
        calls.append(0)
        lowered.append(0)
        points.append([])
        z = z0[rows].copy()
        runs.append((z, *power._ascent_stage(problem.take(rows), z, tau, caps[rows], rtol,
                                             gd_rtol)))
    monkeypatch.undo()
    # 60 trials before the stop, in both runs and at the same points; then,
    # in the lockstep, one evaluation at the start in each of the other
    # row's 4 later iterations
    assert lowered == [64, 60]
    assert points[0][:61] == points[1]
    assert points[0][61:] == [z0[:1].tobytes()] * 4
    pair, one = runs
    assert one[0].tobytes() == z0[:1].tobytes()
    assert one[1].tolist() == [1] and pair[1].tolist()[1] > 1
    assert one[2].tobytes() == problem.take([0]).evaluate(z0[:1])[0].tobytes()
    for a, b in zip(pair, one):
        assert a.dtype == b.dtype and a[:1].tobytes() == b.tobytes()


def test_line_search_refuses_a_null_step(monkeypatch):
    # Every evaluation of the row at mu = 0.3 reads 1.0 lower than it is,
    # except at its start, so the only trial that passes its Armijo test is
    # one whose point rounded back to the start (za + t * d == za), which
    # passes through the noise allowance. That null step fails the search:
    # the row stops in its first iteration, at its start, alone and inside
    # the two-row lockstep alike, with the same bits. In the lockstep the
    # stopped row stays parked at its start, and each later evaluation takes
    # it there.
    _, dec = setup_case(126)
    anchor = np.full(dec.dims.shared, 0.2)
    problem = _SurrogateProblem.over_draws([dec], CFG335, [0, 0], [0.3, 0.7], [anchor] * 2)
    z0 = np.full((2, problem.size), 1.0 / problem.size)
    evaluate = _SurrogateProblem.evaluate
    calls, points = [], []

    def start_only(self, z, tau=0.0):
        f, *rest = evaluate(self, z, tau)
        off = (self.mu == 0.3) & (z != z0[0]).any(axis=-1)
        calls[-1] += np.count_nonzero(self.mu == 0.3)
        points[-1].append(z[:1].tobytes())
        return f - off, *rest

    monkeypatch.setattr(_SurrogateProblem, "evaluate", start_only)
    caps, tau, rtol, gd_rtol = np.array([5, 5]), 0.0, 0.0, 1e-15
    runs = []
    for rows in ([0, 1], [0]):
        calls.append(0)
        points.append([])
        z = z0[rows].copy()
        runs.append((z, *power._ascent_stage(problem.take(rows), z, tau, caps[rows], rtol,
                                             gd_rtol)))
    monkeypatch.undo()
    pair, one = runs
    # the start, then t = 1 down to 2**-54, in both runs and at the same
    # points; then, in the lockstep, one evaluation at the start in each of
    # the other row's 4 later iterations
    assert calls == [60, 56]
    assert points[0][:56] == points[1]
    assert points[0][56:] == [z0[:1].tobytes()] * 4
    assert one[0].tobytes() == z0[:1].tobytes()
    assert one[1].tolist() == [1] and pair[1].tolist()[1] > 1
    assert one[2].tobytes() == problem.take([0]).evaluate(z0[:1])[0].tobytes()
    for a, b in zip(pair, one):
        assert a.dtype == b.dtype and a[:1].tobytes() == b.tobytes()


def test_stopped_rows_park_until_one_take_drops_them(monkeypatch):
    # One stage of 40 rows: 36 stop on iteration caps of 1, 2 and 3 steps,
    # and 4 have 60. Two of those start at their optimum, polish and stop
    # early, on no cap; the other two run on. A row that stops is recorded
    # at once and parked in the stage's arrays until _PARK_ROWS of them have
    # stopped, here in iteration 4; then one take keeps the rows still
    # running, where a take at every stop would take 4 times. Every row is
    # its run alone, bit for bit.
    decs = [setup_case(seed)[1] for seed in (109, 121, 126, 221)]
    rows = 40
    draw = np.arange(rows) % len(decs)
    mus = np.linspace(0.0, 1.0, rows)
    anchors = np.full((rows, decs[0].dims.shared), 0.2)
    problem = _SurrogateProblem.over_draws(decs, CFG335, draw, mus, anchors)
    caps = np.random.default_rng(7).permutation([1] * 12 + [2] * 12 + [3] * 12 + [60] * 4)
    running = (caps == 60).nonzero()[0]
    z0 = np.full((rows, problem.size), 1.0 / problem.size)
    for i in running[:2]:
        z0[i] = power._maximize(problem.take([i]), np.zeros((1, problem.size)),
                                SolverSettings())[0][0]
    assert power._PARK_ROWS == 32
    tau, rtol, gd_rtol = 0.0, 0.0, 1e-9
    evaluate, take = _SurrogateProblem.evaluate, _SurrogateProblem.take
    sizes, takes = [], []

    def evaluated(self, z, tau=0.0):
        sizes.append(len(z))
        return evaluate(self, z, tau)

    def taken(self, kept):
        takes.append(kept.tolist())
        return take(self, kept)

    monkeypatch.setattr(_SurrogateProblem, "evaluate", evaluated)
    monkeypatch.setattr(_SurrogateProblem, "take", taken)
    z = z0.copy()
    lockstep = (z, *power._ascent_stage(problem, z, tau, caps, rtol, gd_rtol))
    monkeypatch.undo()
    used = lockstep[1]
    capped = caps < 60
    assert used[capped].tolist() == caps[capped].tolist()
    # a row at its optimum stops before the take and rides along parked
    assert min(used[running[:2]]) < 4 < min(used[running[2:]])
    kept = running[used[running] > 4]
    assert takes == [kept.tolist()]
    # every row that stopped was evaluated, parked, in the later iterations
    # up to the take, and the rows kept that stopped before the last, parked,
    # up to the stage's end
    parked = sizes.index(len(kept))
    assert sizes[:parked] == [40] * parked and parked >= 5
    assert set(sizes[parked:]) == {len(kept)}
    for i in range(rows):
        z = z0[[i]].copy()
        alone = (z, *power._ascent_stage(problem.take([i]), z, tau, caps[[i]], rtol, gd_rtol))
        for a, b in zip(lockstep, alone):
            assert a.dtype == b.dtype and a[i].tobytes() == b.tobytes()


def assert_row_of(one, pair):
    """The ``_maximize`` output ``one`` of one row is row 0 of ``pair``, bit
    for bit, in ``z`` and every result field."""
    (z_one, r_one), (z_pair, r_pair) = one, pair
    assert z_one.tobytes() == z_pair[:1].tobytes()
    assert len(r_one) == len(r_pair) == len(InnerSolveResult.__slots__)
    for a, b in zip(r_one, r_pair):
        assert a.dtype == b.dtype and a.shape == (1,) and a.tobytes() == b[:1].tobytes()


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
@pytest.mark.parametrize("inner_max_iters", [10000, 8, 1])
def test_one_row_solve_is_a_row_of_the_lockstep(shape, inner_max_iters):
    # A one-row solve runs every stage on its own path; two copies of the
    # row run each stage in lockstep. Both give the same bits, with no
    # shared stream (the exact stage alone), one, two and more, from a zero
    # and a uniform start, at weights on and between the ends, and on a
    # budget that ends a solve before the exact stage's test holds (8) or
    # leaves every stage after the first a zero budget (1).
    cfg = make_cfg(*shape)
    rng, dec = setup_case(109, cfg)
    settings = SolverSettings(inner_max_iters=inner_max_iters)
    for mu in (0.0, 0.35, 1.0):
        anchor = rng.random(dec.dims.shared) * 0.2
        problem = _SurrogateProblem.over_draws([dec], cfg, [0, 0], [mu, mu], [anchor] * 2)
        for start in (0.0, 1.0 / problem.size):
            z0 = np.full((2, problem.size), start)
            one = power._maximize(problem.take([0]), z0[:1], settings)
            assert_row_of(one, power._maximize(problem, z0, settings))
            assert one[1][1][0] <= inner_max_iters


@pytest.mark.parametrize("lowered", ["after_the_first", "off_the_start"])
def test_failed_searches_in_a_whole_solve(monkeypatch, lowered):
    # The row at mu = 0.3 reads 1.0 lower than it is either at every value
    # after the solve's first, so the first stage's search fails through all
    # 60 trials and the row starts the second stage where it started, or at
    # every point but its start, so every stage fails on a null step and the
    # row never moves. The patch is on _value, which both a fresh evaluation
    # and the value a one-row stage takes from the last stage's evaluation
    # read. The one-row solve and row 0 of the two-row lockstep solve, whose
    # row at mu = 0.7 ascends, give the same bits.
    _, dec = setup_case(126)
    anchor = np.full(dec.dims.shared, 0.2)
    problem = _SurrogateProblem.over_draws([dec], CFG335, [0, 0], [0.3, 0.7], [anchor] * 2)
    z0 = np.full((2, problem.size), 1.0 / problem.size)
    value = _SurrogateProblem._value
    points = []

    def patched(self, z, logs, b1, b2, tau):
        f = value(self, z, logs, b1, b2, tau)
        if lowered == "after_the_first":
            off = (self.mu == 0.3) & (len(points) > 0)
        else:
            off = (self.mu == 0.3) & (z != z0[0]).any(axis=-1)
        points.append(z[0].copy())
        return f - off

    monkeypatch.setattr(_SurrogateProblem, "_value", patched)
    one = power._maximize(problem.take([0]), z0[:1], SolverSettings())
    seen = points[:]
    del points[:]
    pair = power._maximize(problem, z0, SolverSettings())
    monkeypatch.undo()
    assert_row_of(one, pair)
    assert pair[1][1][1] > len(power._STAGES)
    if lowered == "after_the_first":
        # the start, 60 trials, then the second stage's start
        assert seen[61].tobytes() == z0[0].tobytes() and one[0].tobytes() != z0[:1].tobytes()
    else:
        assert one[0].tobytes() == z0[:1].tobytes()
        assert one[1][1].tolist() == [len(power._STAGES)]


def log_stage_starts(monkeypatch, log):
    """Append ``("stage", None)`` to ``log`` at the start of each stage: when
    the solver takes its entry of the stage table, on the one-row path and
    in the lockstep alike."""

    class Logged(tuple):
        def __iter__(self):
            for stage in tuple.__iter__(self):
                log.append(("stage", None))
                yield stage

    monkeypatch.setattr(power, "_STAGES", Logged(power._STAGES))


def stage_entries(monkeypatch, problem, z0):
    """``_maximize`` of ``problem`` from ``z0``, and per stage what its first
    iteration computed before the Newton target (or before the stage
    returned): ``["evaluate", "residual"]`` fresh, ``["residual"]`` from a
    carry whose branch weights changed, ``[]`` from a carry it reused."""
    log = stage_calls(monkeypatch)
    log_stage_starts(monkeypatch, log)
    z, result = power._maximize(problem, z0, SolverSettings())
    monkeypatch.undo()
    entries = []
    for kind, _ in log:
        if kind == "stage":
            entries.append([])
            before_target = True
        elif kind == "target":
            before_target = False
        elif before_target:
            entries[-1].append(kind)
    return z, result, entries


@pytest.mark.parametrize("shape, rows, reused", [
    # far from every kink: check's first solve of trial 0 (zero anchor and
    # start), whose weights stay saturated across all stages, beside a row
    # of another draw that starts from the uniform allocation
    ((5, 3, 3), [("check", 0.5, 0.0, 0.0), (121, 0.8, 0.3, None)], [True] * 4),
    # near a kink: the softmin weights at tau = 1e-9 are not the exact
    # stage's hard 0/1, so that stage derives again
    ((6, 4, 4), [(100, 0.1, 0.2, None), (100, 0.9, 0.1, None)], [True, True, True, False]),
    # the second stage's branch weights change and it derives again, then
    # stops on its first test (test_a_stage_takes_its_value_only_when_read)
    ((5, 3, 3), [(100, 0.7, 0.0, None), (121, 0.8, 0.3, None)], [False, True, True, True]),
])
def test_stage_carry_gives_the_bits_of_a_fresh_start(monkeypatch, shape, rows, reused):
    # Alone, the solve runs the one-row path, where every stage hands its
    # evaluation to the next, which reuses the derivation only where the
    # branch weights are the same. In lockstep beside another row, no stage
    # hands anything on and the next starts fresh. Both give the same bits.
    # A row is (draw: check's trial 0 or a setup_case seed, mu, anchor and
    # start powers; a start of None is the uniform allocation).
    cfg = make_cfg(*shape)
    decs = [check_draw(0) if seed == "check" else setup_case(seed, cfg)[1]
            for seed, *_ in rows]
    m = decs[0].dims.shared
    mus = [mu for _, mu, _, _ in rows]
    anchors = np.array([np.full(m, anchor) for _, _, anchor, _ in rows])
    problem = _SurrogateProblem.over_draws(decs, cfg, np.arange(2), mus, anchors)
    z0 = np.array([np.full(problem.size, 1.0 / problem.size if start is None else start)
                   for *_, start in rows])
    z_one, r_one, alone = stage_entries(monkeypatch, problem.take([0]), z0[:1])
    fresh = ["evaluate", "residual"]
    assert alone == [fresh] + [[] if same else ["residual"] for same in reused]
    z_pair, r_pair, beside = stage_entries(monkeypatch, problem, z0)
    assert beside == [fresh] * 5
    assert z_one.tobytes() == z_pair[:1].tobytes()
    for a, b in zip(r_one, r_pair):
        assert a.dtype == b.dtype and a.tobytes() == b[:1].tobytes()


def test_a_stage_takes_its_value_only_when_read(monkeypatch):
    # A one-row stage after the first takes its value at its own tau from
    # the last stage's point and branches only when it steps, or when it is
    # the exact stage, whose value the solve returns. Here the first stage
    # stops on its first test; the second derives changed branch weights
    # again and the third reuses them, and both stop on their first test
    # without a value; the fourth takes its value and steps; the exact stage
    # stops on its first test and takes the value it returns. Per stage: what
    # it computed up to its first Newton target, without the value each
    # evaluation takes. The solve is row 0 of the two-row lockstep, bit for
    # bit.
    _, dec = setup_case(100)
    anchor = np.zeros(dec.dims.shared)
    problem = _SurrogateProblem.over_draws([dec], CFG335, [0, 0], [0.7, 0.7], [anchor] * 2)
    z0 = np.full((2, problem.size), 1.0 / problem.size)
    log = stage_calls(monkeypatch)
    value = _SurrogateProblem._value

    def logged(self, *args):
        log.append(("value", None))
        return value(self, *args)

    monkeypatch.setattr(_SurrogateProblem, "_value", logged)
    log_stage_starts(monkeypatch, log)
    one = power._maximize(problem.take([0]), z0[:1], SolverSettings())
    monkeypatch.undo()
    stages, last = [], None
    for kind, _ in log:
        if kind == "stage":
            stages.append([])
        elif not (kind == "value" and last == "evaluate") and "target" not in stages[-1]:
            stages[-1].append(kind)
        last = kind
    assert stages == [["evaluate", "residual"], ["residual"], [], ["value", "target"], ["value"]]
    assert_row_of(one, power._maximize(problem, z0, SolverSettings()))


def test_value_from_is_the_value_of_evaluate():
    # the carried value at another tau has evaluate's bits, on rows at and
    # off the kinks and on a draw without a private stream
    for shape in ((5, 3, 3), (6, 4, 4), (3, 3, 3)):
        cfg = make_cfg(*shape)
        rng, dec = setup_case(125, cfg)
        rows = 6
        mus, anchors = rng.random(rows), rng.random((rows, dec.dims.shared)) * 0.2
        problem = _SurrogateProblem.over_draws([dec], cfg, np.zeros(rows, dtype=int), mus, anchors)
        allocs = [random_alloc(rng, dec.dims) for _ in range(rows)]
        z = np.stack([dec.dims.pack(alloc.p1, alloc.p2) for alloc in allocs])
        _, b1, b2, point = problem.evaluate(z)
        logs = np.log2(point)
        for tau, *_ in power._STAGES:
            want = problem.evaluate(z, tau)[0]
            assert problem._value(z, logs, b1, b2, tau).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, digest", [
    ((5, 3, 3), "ffbedcf63eb36f7a"),
    ((6, 4, 4), "c511fd2f0ea3bbc7"),
])
def test_surrogate_maximum_pinned(shape, digest):
    # the bits of a maximize_surrogate result: allocation, value, residual,
    # gradient norm and iterations
    cfg = make_cfg(*shape)
    _, dec = setup_case(124, cfg)
    anchor = np.linspace(0.05, 0.2, dec.dims.shared)
    alloc, info = maximize_surrogate(anchor, dec, cfg, 0.6)
    fields = [alloc.p1, alloc.p2, info.value, info.residual, info.grad_norm, info.iterations]
    got = hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in fields)).hexdigest()
    assert (got[:16], info.converged) == (digest, True)


def slsqp_surrogate_optimum(dec, cfg, mu, anchor):
    """Independent oracle: the surrogate in epigraph form, ``t_l <= b1_l``,
    ``t_l <= b2_l``, maximized by scipy's SLSQP with exact jacobians.
    Returns the surrogate's value at the oracle's point made feasible."""
    optimize = pytest.importorskip("scipy.optimize")
    gains = StreamGains([dec], cfg, 0)
    d = dec.dims
    m, n_p1 = d.shared, d.shared + d.private1
    size = n_p1 + m + d.private2
    ln2, s2, c1, w2 = math.log(2.0), cfg.noise_power, gains.c1, gains.w2
    # the interference-free gains in solver order: user 1 private, user 2
    # shared, user 2 private
    g1p, g2s, g2p = np.split(gains.free, [d.private1, n_p1])
    at12, at22 = s2 + c1 @ anchor, s2 + anchor * w2
    lin0 = np.log2(at12) + np.log2(at22)
    lin = c1 / (ln2 * at12[:, None]) + np.diag(w2 / (ln2 * at22))

    def split(x):
        return x[:m], x[m:n_p1], x[n_p1 : n_p1 + m], x[n_p1 + m : size], x[size:]

    def args(x):
        p1s, _, p2s, _, t = split(x)
        a12 = s2 + c1 @ p2s
        return a12 + p1s * gains.c1_diag, a12, s2 + (p1s + p2s) * w2, s2 + p2s * w2, t

    def neg_objective(x):
        _, p1p, p2s, p2p, t = split(x)
        return -(
            mu * (t.sum() - (lin0 + lin @ (p2s - anchor)).sum())
            + (1 - mu) * np.log2(1 + p2s * g2s).sum()
            + mu * np.log2(1 + p1p * g1p).sum()
            + (1 - mu) * np.log2(1 + p2p * g2p).sum()
        )

    def neg_objective_grad(x):
        _, p1p, p2s, p2p, _ = split(x)
        grad = np.empty(size + m)
        grad[:m] = 0.0
        grad[m:n_p1] = mu * g1p / (ln2 * (1 + p1p * g1p))
        grad[n_p1 : n_p1 + m] = -mu * lin.sum(axis=0) + (1 - mu) * g2s / (
            ln2 * (1 + p2s * g2s)
        )
        grad[n_p1 + m : size] = (1 - mu) * g2p / (ln2 * (1 + p2p * g2p))
        grad[size:] = mu
        return -grad

    def slack(x):
        a11, a12, a21, a22, t = args(x)
        return np.concatenate([
            np.log2(a11) + np.log2(a22) - t,
            np.log2(a21) + np.log2(a12) - t,
            [cfg.power_budget - x[:size].sum()],
        ])

    def slack_jac(x):
        a11, a12, a21, a22, _ = args(x)
        jac = np.zeros((2 * m + 1, size + m))
        for l in range(m):
            jac[l, l] = gains.c1_diag[l] / (ln2 * a11[l])
            jac[l, n_p1 : n_p1 + m] = c1[l] / (ln2 * a11[l])
            jac[l, n_p1 + l] += w2[l] / (ln2 * a22[l])
            jac[m + l, l] = w2[l] / (ln2 * a21[l])
            jac[m + l, n_p1 : n_p1 + m] = c1[l] / (ln2 * a12[l])
            jac[m + l, n_p1 + l] += w2[l] / (ln2 * a21[l])
        jac[:m, size:] = jac[m : 2 * m, size:] = -np.eye(m)
        jac[2 * m, :size] = -1.0
        return jac

    z0 = np.full(size, cfg.power_budget / (2 * size))
    a11, a12, a21, a22, _ = args(np.concatenate([z0, np.zeros(m)]))
    t0 = np.minimum(np.log2(a11) + np.log2(a22), np.log2(a21) + np.log2(a12)) - 1e-3
    result = optimize.minimize(
        neg_objective, np.concatenate([z0, t0]), jac=neg_objective_grad,
        bounds=[(0.0, cfg.power_budget)] * size + [(None, None)] * m,
        constraints=[{"type": "ineq", "fun": slack, "jac": slack_jac}],
        method="SLSQP", options={"ftol": 1e-14, "maxiter": 1000},
    )
    z = project_power_budget(np.maximum(result.x[:size], 0.0), cfg.power_budget)
    return float(_SurrogateProblem.over_draws([dec], cfg, 0, mu, anchor).evaluate(z)[0])


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_inner_optimum_matches_scipy_oracle(shape):
    cfg = make_cfg(*shape)
    rng = np.random.default_rng(110)
    for _ in range(3):
        dec = simultaneous_triangularize(sample_channels(rng, *shape))
        anchor = rng.random(dec.dims.shared) * 0.2
        mu = float(rng.random())
        _, info = maximize_surrogate(anchor, dec, cfg, mu)
        oracle_value = slsqp_surrogate_optimum(dec, cfg, mu, anchor)
        tol = 1e-6 * (1.0 + abs(info.value))
        assert info.value >= oracle_value - tol, (shape, mu)
        # and the oracle reached the optimum too, so the check has teeth
        assert oracle_value >= info.value - tol, (shape, mu)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(4, 2, 2), (3, 3, 3)]),
    snr_db=st.floats(-60.0, 150.0),
    seed=st.integers(0, 2**16),
    mus=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
# an objective of ~3e-3 bits, where the residual certificate let the second
# inner solve return a point 1.3e-9 bits below its warm start
@example(shape=(3, 3, 3), snr_db=15.0, seed=1360, mus=[0.90625])
def test_weights_in_lockstep_at_extreme_snr(shape, snr_db, seed, mus):
    # no shared stream (4x2x2) and no private stream (3x3x3), pt / noise
    # from -60 dB to +150 dB
    n, m1, m2 = shape
    cfg = SystemConfig(
        n_bs=n, m1=m1, m2=m2, pathloss1=62500.0, pathloss2=2500.0,
        power_budget=1.0, noise_power=10.0 ** (-snr_db / 10.0),
    )
    dec = simultaneous_triangularize(sample_channels(np.random.default_rng(seed), n, m1, m2))
    record = ccp_allocate_draws([dec], cfg, mus)
    for i, mu in enumerate(mus):
        state = record.state(0, i)
        alloc = state.allocation
        alloc.validate(dec.dims, cfg.power_budget)
        assert np.all(np.isfinite(rate_user1(alloc, dec, cfg)))
        assert np.all(np.isfinite(rate_user2(alloc, dec, cfg)))
        trace = state.objective_trace
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[:-1])))
        assert_same_solve(record, 0, i, alone(dec, cfg, mu))


def test_ccp_stops_at_its_last_iterate_when_a_solve_ends_below_its_start():
    # the extreme-SNR example above: at ~3e-3 bits the residual certificate
    # let the second inner solve end 1.3e-9 bits below its warm start
    cfg = SystemConfig(
        n_bs=3, m1=3, m2=3, pathloss1=62500.0, pathloss2=2500.0,
        power_budget=1.0, noise_power=10.0 ** (-15.0 / 10.0),
    )
    dec = simultaneous_triangularize(sample_channels(np.random.default_rng(1360), 3, 3, 3))
    first = ccp_allocate_draws([dec], cfg, [0.90625], SolverSettings(ccp_max_iters=1))
    record = ccp_allocate_draws([dec], cfg, [0.90625, 0.5])
    state = record.state(0, 0)
    assert (state.iterations, state.converged) == (1, True)
    for a, b in [(record.p1, first.p1), (record.p2, first.p2)]:
        assert a[0, 0].tobytes() == b[0, 0].tobytes()
    assert state.objective_trace.tobytes() == first.state(0, 0).objective_trace.tobytes()
    assert_same_solve(record, 0, 0, alone(dec, cfg, 0.90625))
    # the other weight's row goes on, as it would alone
    assert record.iterations[0, 1] > 1
    assert_same_solve(record, 0, 1, alone(dec, cfg, 0.5))


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(4, 2, 2), (3, 3, 3), (5, 3, 3)]),
    pt_dbm=st.floats(-100.0, 120.0),
    snr_db=st.floats(-60.0, 150.0),
    seed=st.integers(0, 2**16),
    mus=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
# both ends of the range; an absolute 1e-9 W slack failed the first
@example(shape=(5, 3, 3), pt_dbm=120.0, snr_db=150.0, seed=0, mus=[0.5])
@example(shape=(3, 3, 3), pt_dbm=-100.0, snr_db=-60.0, seed=0, mus=[0.5])
def test_weights_in_lockstep_at_extreme_budgets(shape, pt_dbm, snr_db, seed, mus):
    # the budget in watts varies too, from -100 to +120 dBm, with the noise
    # set so that pt / noise spans -60 dB to +150 dB
    n, m1, m2 = shape
    budget = 10.0 ** ((pt_dbm - 30.0) / 10.0)
    cfg = SystemConfig(
        n_bs=n, m1=m1, m2=m2, pathloss1=62500.0, pathloss2=2500.0,
        power_budget=budget, noise_power=budget * 10.0 ** (-snr_db / 10.0),
    )
    dec = simultaneous_triangularize(sample_channels(np.random.default_rng(seed), n, m1, m2))
    record = ccp_allocate_draws([dec], cfg, mus)
    for i in range(len(mus)):
        state = record.state(0, i)
        alloc = state.allocation
        alloc.validate(dec.dims, cfg.power_budget)
        assert np.all(np.isfinite(rate_user1(alloc, dec, cfg)))
        assert np.all(np.isfinite(rate_user2(alloc, dec, cfg)))
        trace = state.objective_trace
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[:-1])))

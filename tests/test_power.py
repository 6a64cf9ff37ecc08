import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_oracle as oracle
from stnoma.cli import Scenario
from stnoma.power import ccp_allocate_weights
from stnoma.rates import StreamGains
from stnoma.power import (
    SolverSettings,
    _SurrogateProblem,
    _project,
    _residual,
    ccp_allocate,
    dc_components,
    maximize_surrogate,
    min_difference_identity,
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
        c11, c12, c21, c22 = dc_components(alloc, dec, CFG335, l)
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
                dc_components(alloc, dec, cfg, l),
                oracle.dc_components(alloc, dec, cfg, l),
                rtol=0.0, atol=1e-12,
            )
            assert rate_underestimator(alloc, anchor, dec, cfg, l) == pytest.approx(
                oracle.rate_underestimator(alloc, anchor, dec, cfg, l), abs=1e-12
            )
    with pytest.raises(ValueError):
        dc_components(alloc, dec, cfg, d.shared)
    with pytest.raises(ValueError):
        rate_underestimator(alloc, anchor, dec, cfg, d.shared)


def test_dc_components_zero_power():
    _, dec = setup_case(1)
    alloc = PowerAllocation.zeros(dec.dims)
    c11, c12, c21, c22 = dc_components(alloc, dec, CFG335, 0)
    log_noise = math.log2(CFG335.noise_power)
    assert c11 == pytest.approx(log_noise, abs=1e-12)
    assert c12 == pytest.approx(log_noise, abs=1e-12)
    assert c11 - c12 == 0.0 and c21 - c22 == 0.0


def test_dc_components_interference_free_constant():
    rng, dec = setup_case(2)
    alloc = random_alloc(rng, dec.dims)
    alloc.p2[list(dec.dims.shared_indices())] = 0.0
    _, c12, _, c22 = dc_components(alloc, dec, CFG335, 0)
    assert c12 == pytest.approx(math.log2(CFG335.noise_power), abs=1e-12)
    assert c22 == pytest.approx(math.log2(CFG335.noise_power), abs=1e-12)


def test_dc_components_rejects_private_stream():
    rng, dec = setup_case(3)
    alloc = random_alloc(rng, dec.dims)
    with pytest.raises(ValueError):
        dc_components(alloc, dec, CFG335, dec.dims.shared)


# --- min identity -------------------------------------------------------------


def test_min_identity_examples():
    assert min_difference_identity(1.0, 2.0, 3.0, 4.0) == (-1.0, -1.0)
    assert min_difference_identity(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)


@settings(max_examples=1000, deadline=None)
@given(
    a=st.floats(-100, 100), b=st.floats(-100, 100),
    c=st.floats(-100, 100), d=st.floats(-100, 100),
)
def test_min_identity_property(a, b, c, d):
    lhs, rhs = min_difference_identity(a, b, c, d)
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


def test_surrogate_gradient_matches_finite_differences():
    # central differences on the packed objective, away from kinks
    cfg = make_cfg(6, 4, 4)
    rng, dec = setup_case(15, cfg)
    d = dec.dims
    problem = _SurrogateProblem(dec, cfg, 0.6, rng.random(d.shared) * 0.2)
    z = problem.pack(random_alloc(rng, d)) + 1e-3
    b1, b2 = problem.branches(z)
    assert np.all(np.abs(b1 - b2) > 1e-6)  # smooth point
    _, g, h = problem.value_and_grad(z, with_hess=True)
    eps = 1e-7
    for i in range(problem.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += eps
        zm[i] -= eps
        fd = (problem.value(zp) - problem.value(zm)) / (2 * eps)
        assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)
        fd2 = (problem.value(zp) - 2 * problem.value(z) + problem.value(zm)) / eps**2
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
    problem = _SurrogateProblem(dec, cfg, mu, anchor)
    got = problem.value(problem.pack(alloc))
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
        problem = _SurrogateProblem(dec, cfg, mu, anchor)
        z = problem.pack(alloc)
        b1, b2 = problem.branches(z)
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
            residuals.append(_residual(z, problem.grad(z, lam), cfg.power_budget))
        assert info.residual <= min(residuals) + 1e-12, (seed, kinks)
        worst = max(worst, max(residuals))
    assert kinked > 0
    assert worst > 1e-3


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
    prev = None
    for _ in range(5):
        alloc, _ = maximize_surrogate(q, dec, CFG335, mu, settings=settings, warm_start=prev)
        q = alloc.p2[: dec.dims.shared].copy()
        problem = _SurrogateProblem(dec, CFG335, mu, q)
        tight = problem.value(problem.pack(alloc))
        truth = weighted_sum_rate(alloc, dec, CFG335, mu)
        assert tight == pytest.approx(truth, abs=1e-9)
        prev = alloc


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


def assert_same_solve(got, want):
    """Two ``(PowerAllocation, CcpState)`` results agree bit for bit."""
    (alloc, state), (alloc_w, state_w) = got, want
    for a, b in [
        (alloc.p1, alloc_w.p1),
        (alloc.p2, alloc_w.p2),
        (state.q, state_w.q),
        (state.objective_trace, state_w.objective_trace),
    ]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert state.allocation is alloc
    assert (state.iterations, state.converged) == (state_w.iterations, state_w.converged)
    assert state.inner_results == state_w.inner_results
    for r, r_w in zip(state.inner_results, state_w.inner_results):
        assert np.float64(r.value).tobytes() == np.float64(r_w.value).tobytes()
        assert np.float64(r.residual).tobytes() == np.float64(r_w.residual).tobytes()


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_weights_in_lockstep_match_one_weight_solves(shape):
    # every row of the lockstep run is the one-weight run at its mu, whatever
    # the batch size and the order of the weights
    cfg = make_cfg(*shape)
    rng, dec = setup_case(100, cfg)
    mus = list(np.arange(21) / 20)
    alone = {mu: ccp_allocate(dec, cfg, mu) for mu in mus}
    for size in (1, 7, 21):
        batch = list(rng.permutation(mus)[:size])
        rows = ccp_allocate_weights(dec, cfg, batch)
        assert len(rows) == size
        for mu, row in zip(batch, rows):
            assert_same_solve(row, alone[mu])


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
        rows = ccp_allocate_weights(dec, cfg, mus, settings=settings)
        results = [r for _, s in rows for r in s.inner_results]
        assert all(r.iterations <= inner_max_iters for r in results)
        if inner_max_iters == 8:
            converged = [r.converged for r in results]
            assert any(converged) and not all(converged)
        for mu, row in zip(mus, rows):
            assert_same_solve(row, ccp_allocate(dec, cfg, mu, settings=settings))


def test_weights_in_lockstep_reject_weights_outside_unit_interval():
    _, dec = setup_case(102)
    with pytest.raises(ValueError):
        ccp_allocate_weights(dec, CFG335, [0.5, 1.5])
    assert ccp_allocate_weights(dec, CFG335, []) == []


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
            problem = _SurrogateProblem(dec, cfg, mu, anchor)
            z = problem.pack(alloc)
            f, g = problem.value_and_grad(z)
            assert info.value == f
            assert info.residual == _residual(z, g, cfg.power_budget)
            assert info.grad_norm == np.linalg.norm(g)
            assert info.converged == (info.residual <= 1e-6 * (1.0 + info.grad_norm))

@pytest.mark.parametrize(
    "shape, outer, inner", [((5, 3, 3), 142, 1674), ((6, 4, 4), 150, 1804)]
)
def test_region_trial_solver_work_pinned(shape, outer, inner):
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
    rows = ccp_allocate_weights(
        dec, cfg, scenario.mu_grid(), settings=scenario.solver_settings()
    )
    assert sum(s.iterations for _, s in rows) == outer
    assert sum(r.iterations for _, s in rows for r in s.inner_results) == inner


def slsqp_surrogate_optimum(dec, cfg, mu, anchor):
    """Independent oracle: the surrogate in epigraph form, ``t_l <= b1_l``,
    ``t_l <= b2_l``, maximized by scipy's SLSQP with exact jacobians.
    Returns the surrogate's value at the oracle's point made feasible."""
    optimize = pytest.importorskip("scipy.optimize")
    gains = StreamGains(dec, cfg)
    d = dec.dims
    m, n_p1 = d.shared, d.shared + d.private1
    size = n_p1 + m + d.private2
    ln2, s2, c1, w2 = math.log(2.0), cfg.noise_power, gains.c1, gains.w2
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
            + (1 - mu) * np.log2(1 + p2s * gains.g2s).sum()
            + mu * np.log2(1 + p1p * gains.g1p).sum()
            + (1 - mu) * np.log2(1 + p2p * gains.g2p).sum()
        )

    def neg_objective_grad(x):
        _, p1p, p2s, p2p, _ = split(x)
        grad = np.empty(size + m)
        grad[:m] = 0.0
        grad[m:n_p1] = mu * gains.g1p / (ln2 * (1 + p1p * gains.g1p))
        grad[n_p1 : n_p1 + m] = -mu * lin.sum(axis=0) + (1 - mu) * gains.g2s / (
            ln2 * (1 + p2s * gains.g2s)
        )
        grad[n_p1 + m : size] = (1 - mu) * gains.g2p / (ln2 * (1 + p2p * gains.g2p))
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
    return float(_SurrogateProblem(dec, cfg, mu, anchor).value(z))


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
def test_weights_in_lockstep_at_extreme_snr(shape, snr_db, seed, mus):
    # no shared stream (4x2x2) and no private stream (3x3x3), pt / noise
    # from -60 dB to +150 dB
    n, m1, m2 = shape
    cfg = SystemConfig(
        n_bs=n, m1=m1, m2=m2, pathloss1=62500.0, pathloss2=2500.0,
        power_budget=1.0, noise_power=10.0 ** (-snr_db / 10.0),
    )
    dec = simultaneous_triangularize(sample_channels(np.random.default_rng(seed), n, m1, m2))
    rows = ccp_allocate_weights(dec, cfg, mus)
    for mu, (alloc, state) in zip(mus, rows):
        alloc.validate(dec.dims, cfg.power_budget)
        assert np.all(np.isfinite(rate_user1(alloc, dec, cfg)))
        assert np.all(np.isfinite(rate_user2(alloc, dec, cfg)))
        trace = state.objective_trace
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[:-1])))
        assert_same_solve((alloc, state), ccp_allocate(dec, cfg, mu))

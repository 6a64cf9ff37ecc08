import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stnoma.power import (
    SolverSettings,
    _SurrogateProblem,
    _residual,
    ccp_allocate,
    dc_components,
    maximize_surrogate,
    min_difference_identity,
    project_power_budget,
    rate_underestimator,
)
from stnoma.rates import (
    rate_user1,
    rate_user1_shared_at_user1,
    rate_user1_shared_at_user2,
    rate_user2,
    weighted_sum_rate,
)
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
        at1 = rate_user1_shared_at_user1(alloc, dec, CFG335.pathloss1, CFG335.noise_power, l)
        at2 = rate_user1_shared_at_user2(alloc, dec, CFG335.pathloss2, CFG335.noise_power, l)
        assert c11 - c12 == pytest.approx(at1, abs=1e-12)
        assert c21 - c22 == pytest.approx(at2, abs=1e-12)


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
    # the solver's packed objective equals the sum of the public per-stream
    # quantities
    cfg = make_cfg(6, 4, 4)
    rng, dec = setup_case(8, cfg)
    d = dec.dims
    mu = 0.4
    alloc = random_alloc(rng, d)
    anchor = rng.random(d.shared) * 0.3
    problem = _SurrogateProblem(dec, cfg, mu, anchor)
    got = problem.value(problem.pack(alloc))
    under = sum(
        rate_underestimator(alloc, anchor, dec, cfg, l) for l in d.shared_indices()
    )
    r1 = rate_user1(alloc, dec, cfg)
    r2 = rate_user2(alloc, dec, cfg)
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

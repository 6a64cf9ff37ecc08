"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
heavy sweeps are seeded and deterministic.
"""

import time

import numpy as np
import pytest

from stnoma.cli import Scenario, run_region
from stnoma.power import SolverSettings, ccp_allocate, rate_underestimator
from stnoma.rates import rate_user1, weighted_sum_rate
from stnoma.region import ergodic_region, frontier_value_at
from stnoma.system import SystemConfig, config_from_scenario, sample_channels
from stnoma.transceiver import (
    PowerAllocation,
    build_symbol_vector,
    decode_user1,
    decode_user2,
    receive_and_detect,
    transmit,
)
from stnoma.triangularize import simultaneous_triangularize, verify_decomposition

PL1, PL2 = 62500.0, 2500.0
NOISE = 10 ** (-6.5)


def make_cfg(m1, m2, n):
    return SystemConfig(
        n_bs=n, m1=m1, m2=m2, pathloss1=PL1, pathloss2=PL2,
        power_budget=1.0, noise_power=NOISE,
    )


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def random_alloc(rng, dims, budget=1.0):
    w = rng.random(2 * dims.total)
    w /= w.sum()
    p1 = w[: dims.total] * budget * rng.random()
    p2 = w[dims.total :] * budget * rng.random()
    p2[list(dims.private1_indices())] = 0.0
    p1[list(dims.private2_indices())] = 0.0
    return PowerAllocation(p1, p2)


def random_symbols(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def test_criterion_1_decomposition_suite():
    configs = [(2, 2, 2), (3, 3, 5), (2, 2, 4), (4, 2, 5), (6, 6, 4)]
    t0 = time.perf_counter()
    worst = 0.0
    for idx, (m1, m2, n) in enumerate(configs):
        rng = np.random.default_rng(np.random.SeedSequence([100, idx]))
        for _ in range(1000):
            ch = sample_channels(rng, n, m1, m2)
            dec = simultaneous_triangularize(ch)
            worst = max(worst, verify_decomposition(dec, ch).max_residual)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report(1, ok, f"worst residual {worst:.2e} over 5000 channels, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_2_noiseless_scalarization():
    configs = [(3, 3, 5), (2, 2, 4), (4, 2, 5), (2, 2, 2)]
    worst = 0.0
    for draw in range(100):
        m1, m2, n = configs[draw % len(configs)]
        rng = np.random.default_rng(np.random.SeedSequence([200, draw]))
        ch = sample_channels(rng, n, m1, m2)
        dec = simultaneous_triangularize(ch)
        d = dec.dims
        alloc = random_alloc(rng, d)
        s1 = random_symbols(rng, d.total)
        s2 = random_symbols(rng, d.total)
        x = transmit(dec.x_mat, build_symbol_vector(s1, s2, alloc))
        y1 = receive_and_detect(ch.h1, PL1, dec.q1, x, np.zeros(m1, complex))
        y2 = receive_and_detect(ch.h2, PL2, dec.q2, x, np.zeros(m2, complex))
        got1 = decode_user1(y1, dec, alloc, PL1, s1).values
        got2 = decode_user2(y2, dec, alloc, PL2, s1, s2).values
        want1 = np.empty(d.user1_streams, complex)
        for l in range(d.user1_streams):
            val = np.sqrt(alloc.p1[l] / PL1) * dec.r1[l, l] * s1[l]
            for lp in range(l, d.shared):
                val += np.sqrt(alloc.p2[lp] / PL1) * dec.r1[l, lp] * s2[lp]
            want1[l] = val
        want2 = np.empty(d.user2_streams, complex)
        for l in range(d.shared):
            want2[l] = dec.r2[l, l] * (
                np.sqrt(alloc.p1[l] / PL2) * s1[l] + np.sqrt(alloc.p2[l] / PL2) * s2[l]
            )
        for row in range(d.shared, d.user2_streams):
            g = row + d.private1
            want2[row] = np.sqrt(alloc.p2[g] / PL2) * dec.r2[row, row] * s2[g]
        scale1 = max(np.abs(want1).max(), 1e-300)
        scale2 = max(np.abs(want2).max(), 1e-300)
        worst = max(
            worst,
            np.abs(got1 - want1).max() / scale1,
            np.abs(got2 - want2).max() / scale2,
        )
    ok = worst <= 1e-9
    report(2, ok, f"worst cancelled-signal deviation {worst:.2e} over 100 draws")
    assert ok


def test_criterion_3_underestimator_property():
    cfg = make_cfg(3, 3, 5)
    rng = np.random.default_rng(np.random.SeedSequence([300]))
    ch = sample_channels(rng, 5, 3, 3)
    dec = simultaneous_triangularize(ch)
    d = dec.dims
    worst_excess = -np.inf
    worst_anchor_gap = 0.0
    for pair in range(1000):
        if pair % 100 == 0:  # refresh the channel every hundred pairs
            ch = sample_channels(rng, 5, 3, 3)
            dec = simultaneous_triangularize(ch)
        alloc = random_alloc(rng, d)
        anchor = rng.random(d.shared) * cfg.power_budget
        r1 = rate_user1(alloc, dec, cfg)
        for l in d.shared_indices():
            under = rate_underestimator(alloc, anchor, dec, cfg, l)
            worst_excess = max(worst_excess, under - r1[l])
        anchored = PowerAllocation(alloc.p1.copy(), alloc.p2.copy())
        anchored.p2[: d.shared] = anchor
        r1a = rate_user1(anchored, dec, cfg)
        for l in d.shared_indices():
            under = rate_underestimator(anchored, anchor, dec, cfg, l)
            worst_anchor_gap = max(worst_anchor_gap, abs(under - r1a[l]))
    ok = worst_excess <= 1e-9 and worst_anchor_gap <= 1e-12
    report(
        3, ok,
        f"max excess over rate {worst_excess:.2e}, max anchor gap {worst_anchor_gap:.2e}",
    )
    assert worst_excess <= 1e-9
    assert worst_anchor_gap <= 1e-12


def test_criterion_4_ccp_convergence_behavior():
    configs = [(2, 2, 3), (3, 3, 5), (4, 4, 6)]
    t0 = time.perf_counter()
    stats = []
    all_ok = True
    for idx, (m1, m2, n) in enumerate(configs):
        cfg = make_cfg(m1, m2, n)
        good = 0
        rels = []
        for trial in range(50):
            rng = np.random.default_rng(np.random.SeedSequence([400 + idx, trial]))
            ch = sample_channels(rng, n, m1, m2)
            dec = simultaneous_triangularize(ch)
            _, state = ccp_allocate(dec, cfg, mu=0.5)
            tr = state.objective_trace
            monotone = bool(np.all(np.diff(tr) >= -1e-9))
            if len(tr) >= 10:
                rel = (tr[9] - tr[8]) / tr[9]
            else:
                rel = 0.0  # converged early under the epsilon rule
            rels.append(rel)
            if monotone and rel < 1e-3:
                good += 1
        frac = good / 50
        stats.append(
            f"{m1}x{m2}x{n}: {frac:.0%} ok (rel10 median {np.median(rels):.1e})"
        )
        all_ok = all_ok and frac >= 0.95
    elapsed = time.perf_counter() - t0
    all_ok = all_ok and elapsed < 120.0
    report(4, all_ok, "; ".join(stats) + f"; {elapsed:.0f}s")
    # The monotonicity clause holds everywhere; the 1e-3 relative-change
    # bound at iteration 10 does not. This is a property of the algorithm,
    # not of the solver: re-anchoring relaxes the linearized penalty
    # gradually, so the outer loop contracts geometrically at ~0.85 per
    # iteration in this scenario (the trajectory is reproduced exactly when
    # the inner solves are replaced by an independent interior-point convex
    # solver), leaving ~2e-3 relative objective steps at iteration 10. The
    # traces are visually flat there (~0.03 bits on an ~18 bit scale), which
    # is what "converged" means in the reproduced figure; the 1e-3-per-step
    # quantification is about 3x too tight and this check fails by design.
    assert elapsed < 120.0
    assert all_ok, (
        "relative objective change at iteration 10 stays above 1e-3 "
        f"({'; '.join(stats)}); expected failure, see the comment above"
    )


def test_criterion_5_grid_oracle_optimality():
    cfg = make_cfg(2, 2, 2)
    # Run the outer loop to a tight fixed point: the default ten-iteration /
    # 1e-4 W profile exists for figure reproduction and its stopping rule
    # can fire during the slow multiplicative start-up of the user-2 shared
    # powers, long before stationarity.
    settings = SolverSettings(ccp_max_iters=300, ccp_tol=1e-7)
    mus = (0.25, 0.5, 0.75)
    axis = np.linspace(0.0, cfg.power_budget, 20)
    grids = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    mask = sum(grids) <= cfg.power_budget + 1e-12
    p1a, p1b, p2a, p2b = (g[mask] for g in grids)
    worst_gap = -np.inf
    t0 = time.perf_counter()
    for trial in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([500, trial]))
        ch = sample_channels(rng, 2, 2, 2)
        dec = simultaneous_triangularize(ch)
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
        grid_r1 = r10 + r11
        grid_r2 = np.log2(1 + p2a * w2[0] / s2n) + np.log2(1 + p2b * w2[1] / s2n)
        for mu in mus:
            grid_best = float(np.max(mu * grid_r1 + (1 - mu) * grid_r2))
            alloc, _ = ccp_allocate(dec, cfg, mu, settings=settings)
            got = weighted_sum_rate(alloc, dec, cfg, mu)
            worst_gap = max(worst_gap, (grid_best - got) / grid_best)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 0.02
    report(5, ok, f"worst gap to 20^4 grid maximum {worst_gap:.3%}, {elapsed:.0f}s")
    assert ok


def test_criterion_6_separable_waterfilling_exactness():
    cfg = make_cfg(2, 2, 4)

    def weighted_waterfill_rate(gains, weights, budget):
        # exact KKT solution of max sum w_i log2(1 + g_i p_i), sum p <= budget
        gains = np.asarray(gains, float)
        weights = np.asarray(weights, float)
        order = np.argsort(gains * weights)[::-1]
        g, w = gains[order], weights[order]
        for k in range(g.size, 0, -1):
            # common multiplier nu: p_i = w_i / nu - 1 / g_i for active i
            nu = w[:k].sum() / (budget + np.sum(1.0 / g[:k]))
            p = w[:k] / nu - 1.0 / g[:k]
            if np.all(p >= -1e-15):
                rate = float(np.sum(w[:k] * np.log2(1.0 + g[:k] * np.maximum(p, 0.0))))
                return rate
        return 0.0

    worst = 0.0
    for trial in range(15):
        rng = np.random.default_rng(np.random.SeedSequence([600, trial]))
        ch = sample_channels(rng, 4, 2, 2)
        dec = simultaneous_triangularize(ch)
        d = dec.dims
        assert d.shared == 0
        for mu in (0.3, 0.5, 0.7):
            alloc, _ = ccp_allocate(dec, cfg, mu)
            got = weighted_sum_rate(alloc, dec, cfg, mu)
            g1 = [abs(dec.r1[l, l]) ** 2 / (cfg.pathloss1 * cfg.noise_power) for l in d.private1_indices()]
            g2 = [
                abs(dec.r2[l - d.private1, l - d.private1]) ** 2
                / (cfg.pathloss2 * cfg.noise_power)
                for l in d.private2_indices()
            ]
            want = weighted_waterfill_rate(
                np.array(g1 + g2),
                np.array([mu] * len(g1) + [1 - mu] * len(g2)),
                cfg.power_budget,
            )
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-6
    report(6, ok, f"worst relative rate gap to closed-form water-filling {worst:.2e}")
    assert ok


def test_criterion_7_region_reproduction():
    cfg = config_from_scenario(
        n_bs=5, m1=3, m2=3, d1=250.0, d2=50.0, pt_dbm=30.0, sigma2_dbm=-35.0
    )
    mu_grid = np.arange(21) / 20.0
    t0 = time.perf_counter()
    out = ergodic_region(cfg, mu_grid, trials=100, seed=0, workers=2)
    elapsed = time.perf_counter() - t0
    st_mid = next(p for p in out["st_noma"] if p.param == 0.5)
    oma_mid = next(p for p in out["oma"] if p.param == 0.5)
    dominates = st_mid.r1 >= oma_mid.r1 and st_mid.r2 >= oma_mid.r2
    front = [(p.r1, p.r2) for p in out["hybrid"]]
    hybrid_ok = (
        frontier_value_at(front, st_mid.r1) >= st_mid.r2 - 1e-9
        and frontier_value_at(front, oma_mid.r1) >= oma_mid.r2 - 1e-9
    )
    ok = dominates and hybrid_ok and elapsed < 300.0
    report(
        7, ok,
        f"ST(0.5)=({st_mid.r1:.2f},{st_mid.r2:.2f}) vs OMA(0.5)="
        f"({oma_mid.r1:.2f},{oma_mid.r2:.2f}); hybrid dominates both: "
        f"{hybrid_ok}; {elapsed:.0f}s",
    )
    assert dominates
    assert hybrid_ok
    assert elapsed < 300.0


def test_criterion_8_byte_determinism(tmp_path):
    scenario = Scenario(trials=5, mu_steps=7, seed=11)
    digests = set()
    for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / tag
        run_region(scenario, out, workers=workers)
        digests.add((out / "region.csv").read_bytes())
    ok = len(digests) == 1
    report(8, ok, f"{3} runs (worker counts 1,1,2) produced {len(digests)} distinct region.csv")
    assert ok

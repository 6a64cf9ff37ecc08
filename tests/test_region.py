import numpy as np
import pytest

from stnoma import region
from stnoma.power import SolverSettings
from stnoma.region import (
    RateRegionPoint,
    ergodic_region,
    frontier_value_at,
    hybrid_region,
    oma_region,
    p2p_capacity,
    pareto_frontier,
    st_noma_region,
)
from stnoma.system import SystemConfig, sample_channels

CFG = SystemConfig(
    n_bs=5, m1=3, m2=3, pathloss1=62500.0, pathloss2=2500.0,
    power_budget=1.0, noise_power=10 ** (-6.5),
)


def waterlevel_bisection_capacity(h, pathloss, budget, noise, iters=200):
    """Independent oracle: bisect the water level until the budget is spent."""
    s = np.linalg.svd(np.asarray(h, dtype=complex), compute_uv=False)
    gains = s[s > 0] ** 2 / (pathloss * noise)
    lo, hi = 0.0, budget + float(np.max(1.0 / gains)) + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sum(np.maximum(mid - 1.0 / gains, 0.0)) > budget:
            hi = mid
        else:
            lo = mid
    level = 0.5 * (lo + hi)
    powers = np.maximum(level - 1.0 / gains, 0.0)
    return float(np.sum(np.log2(1.0 + gains * powers)))


def test_p2p_scalar_channel():
    h = np.array([[0.7 - 0.2j]])
    gain = abs(h[0, 0]) ** 2 / (CFG.pathloss2 * CFG.noise_power)
    want = np.log2(1.0 + gain * CFG.power_budget)
    assert p2p_capacity(h, CFG.pathloss2, CFG.power_budget, CFG.noise_power) == pytest.approx(want, rel=1e-12)


def test_p2p_equal_gains_split_evenly():
    h = np.eye(2, dtype=complex)
    g = 1.0 / (CFG.pathloss2 * CFG.noise_power)
    want = 2.0 * np.log2(1.0 + g * CFG.power_budget / 2.0)
    assert p2p_capacity(h, CFG.pathloss2, CFG.power_budget, CFG.noise_power) == pytest.approx(want, rel=1e-12)


def test_p2p_matches_bisection_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        h = (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))) / np.sqrt(2)
        got = p2p_capacity(h, CFG.pathloss1, CFG.power_budget, CFG.noise_power)
        want = waterlevel_bisection_capacity(h, CFG.pathloss1, CFG.power_budget, CFG.noise_power)
        assert got == pytest.approx(want, abs=1e-8)


def test_p2p_zero_budget():
    h = np.eye(2, dtype=complex)
    assert p2p_capacity(h, 1.0, 0.0, 1.0) == 0.0


def test_oma_corners_and_midpoint():
    rng = np.random.default_rng(1)
    ch = sample_channels(rng, 5, 3, 3)
    pts = oma_region(ch, CFG, [0.0, 0.5, 1.0])
    c1 = p2p_capacity(ch.h1, CFG.pathloss1, CFG.power_budget, CFG.noise_power)
    c2 = p2p_capacity(ch.h2, CFG.pathloss2, CFG.power_budget, CFG.noise_power)
    assert (pts[0].r1, pts[0].r2) == (0.0, pytest.approx(c2))
    assert (pts[2].r1, pts[2].r2) == (pytest.approx(c1), 0.0)
    assert pts[1].r1 == pytest.approx(0.5 * c1) and pts[1].r2 == pytest.approx(0.5 * c2)


def test_st_region_mu_zero_gives_zero_r1():
    pts = st_noma_region(CFG, [0.0], trials=2, seed=5)
    assert pts[0].r1 == 0.0
    assert pts[0].r2 > 0.0


def test_st_region_deterministic_and_worker_invariant():
    grid = [0.0, 0.5, 1.0]
    a = st_noma_region(CFG, grid, trials=3, seed=9, workers=1)
    b = st_noma_region(CFG, grid, trials=3, seed=9, workers=1)
    c = st_noma_region(CFG, grid, trials=3, seed=9, workers=2)
    for x, y, z in zip(a, b, c):
        assert (x.r1, x.r2) == (y.r1, y.r2) == (z.r1, z.r2)


class RecordingPool:
    """Stand-in for ``multiprocessing.Pool`` that records its size and maps
    serially, so no process is ever started."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]


@pytest.mark.parametrize(
    "workers, trials, cpus, expected",
    [(10**6, 3, 2, [2]), (10**6, 3, 64, [3]), (2, 3, 64, [2]), (1, 3, 64, []),
     (8, 1, 64, [])],
)
def test_run_trials_pool_capped(monkeypatch, workers, trials, cpus, expected):
    monkeypatch.setattr(region, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(region.os, "cpu_count", lambda: cpus)
    pairs, caps = region._run_trials(
        CFG, [0.5], SolverSettings(ccp_max_iters=1), 3, trials, workers
    )
    assert RecordingPool.sizes == expected
    assert pairs.shape == (trials, 1, 2) and caps.shape == (trials, 2)


def test_rate_region_point_rejects_negative():
    with pytest.raises(ValueError):
        RateRegionPoint(r1=-0.1, r2=1.0, scheme="oma", param=0.5, trials=1)


def gift_wrap_frontier(points):
    """O(n^2) oracle: repeatedly pick the next frontier vertex by maximal
    slope from the current one, starting at the highest point."""
    pts = sorted(set(points))
    start = max(pts, key=lambda p: (p[1], p[0]))
    frontier = [start]
    current = start
    while True:
        candidates = [p for p in pts if p[0] > current[0]]
        if not candidates:
            break
        best = max(
            candidates,
            key=lambda p: (p[1] - current[1]) / (p[0] - current[0]),
        )
        frontier.append(best)
        current = best
    return [
        p for p in frontier
        if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in frontier)
    ]


def test_pareto_frontier_single_point_and_corners():
    pts = [(2.0, 3.0), (5.0, 0.0), (0.0, 4.0)]
    front = pareto_frontier(pts)
    assert front == [(0.0, 4.0), (2.0, 3.0), (5.0, 0.0)]  # two segments


def test_pareto_frontier_drops_interior_point():
    pts = [(1.0, 1.0), (5.0, 0.0), (0.0, 4.0)]
    front = pareto_frontier(pts)
    assert front == [(0.0, 4.0), (5.0, 0.0)]


def test_pareto_frontier_dominates_inputs():
    rng = np.random.default_rng(3)
    for _ in range(30):
        pts = [(float(x), float(y)) for x, y in rng.random((12, 2)) * 5]
        front = pareto_frontier(pts)
        for x, y in pts:
            assert frontier_value_at(front, x) >= y - 1e-9


def test_pareto_frontier_matches_gift_wrapping():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pts = [(float(x), float(y)) for x, y in rng.random((10, 2)) * 3]
        got = pareto_frontier(pts)
        want = gift_wrap_frontier(pts)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == pytest.approx(w[0], abs=1e-12)
            assert g[1] == pytest.approx(w[1], abs=1e-12)


def test_frontier_value_interpolation():
    front = [(0.0, 4.0), (2.0, 3.0), (5.0, 0.0)]
    assert frontier_value_at(front, -1.0) == 4.0
    assert frontier_value_at(front, 1.0) == pytest.approx(3.5)
    assert frontier_value_at(front, 3.5) == pytest.approx(1.5)
    assert frontier_value_at(front, 5.0) == pytest.approx(0.0)
    assert frontier_value_at(front, 6.0) == -np.inf


def test_hybrid_contains_inputs_and_corners():
    st_pts = [
        RateRegionPoint(r1=3.0, r2=5.0, scheme="st_noma", param=0.5, trials=4),
        RateRegionPoint(r1=1.0, r2=6.5, scheme="st_noma", param=0.25, trials=4),
    ]
    c1 = RateRegionPoint(r1=6.0, r2=0.0, scheme="p2p_user1", param=None, trials=4)
    c2 = RateRegionPoint(r1=0.0, r2=7.0, scheme="p2p_user2", param=None, trials=4)
    front = [(p.r1, p.r2) for p in hybrid_region(st_pts, c1, c2)]
    for p in st_pts + [c1, c2]:
        assert frontier_value_at(front, p.r1) >= p.r2 - 1e-9
    assert all(p.scheme == "hybrid" for p in hybrid_region(st_pts, c1, c2))


def test_ergodic_region_shapes_and_consistency():
    grid = np.array([0.0, 0.5, 1.0])
    out = ergodic_region(CFG, grid, grid, trials=2, seed=1, workers=1)
    assert {p.scheme for pts in out.values() for p in pts} == {
        "st_noma", "oma", "p2p_user1", "p2p_user2", "hybrid"
    }
    assert len(out["st_noma"]) == 3 and len(out["oma"]) == 3
    assert len(out["p2p_user1"]) == 1 and len(out["p2p_user2"]) == 1
    # the st points and corners are all inside the hybrid frontier
    front = [(p.r1, p.r2) for p in out["hybrid"]]
    for p in out["st_noma"] + out["p2p_user1"] + out["p2p_user2"]:
        assert frontier_value_at(front, p.r1) >= p.r2 - 1e-9
    # corners agree between oma endpoints and the p2p points
    assert out["oma"][2].r1 == pytest.approx(out["p2p_user1"][0].r1)
    assert out["oma"][0].r2 == pytest.approx(out["p2p_user2"][0].r2)

import multiprocessing
import os

import numpy as np
import pytest

from stnoma import region
from stnoma.cli import Scenario, run_region
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
from stnoma.transceiver import PowerAllocation

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


@pytest.mark.parametrize("budget", [np.nan, -1.0, np.inf])
def test_p2p_rejects_a_nan_or_negative_budget(budget):
    # a NaN budget passed the `budget <= 0` test and gave a NaN capacity; an
    # infinite one, which SystemConfig refuses, an infinite capacity
    with pytest.raises(ValueError, match="budget"):
        p2p_capacity(np.eye(2, dtype=complex), 1.0, budget, 1.0)


def test_p2p_rejects_a_non_finite_channel():
    # it failed inside the SVD with numpy's "SVD did not converge"
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        h = np.eye(2, dtype=complex)
        h[0, 1] = bad
        with pytest.raises(ValueError, match="channel entries must be finite"):
            p2p_capacity(h, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("pathloss, noise", [
    (np.nan, 1.0), (-1.0, 1.0), (0.0, 1.0), (np.inf, 1.0),
    (1.0, np.nan), (1.0, -1.0), (1.0, 0.0), (1.0, np.inf),
])
def test_p2p_rejects_a_bad_path_loss_or_noise_power(pathloss, noise):
    # a NaN or negative one gave a capacity of 0.0, a zero one a divide warning
    with pytest.raises(ValueError, match="path loss and noise power"):
        p2p_capacity(np.eye(2, dtype=complex), pathloss, 1.0, noise)


@pytest.mark.parametrize("pt_dbm", [-180.0, -400.0])
def test_p2p_capacity_is_not_negative_at_a_vanishing_snr(pt_dbm):
    # water-filling over gains far below 1 summed log2 of ratios near 1 to
    # -1.6e-16 at -180 dBm, and the OMA point built from it was rejected
    cfg = Scenario(pt_dbm=pt_dbm).config()
    ch = sample_channels(np.random.default_rng(np.random.SeedSequence([0, 1])), 5, 3, 3)
    for h, pathloss in ((ch.h1, cfg.pathloss1), (ch.h2, cfg.pathloss2)):
        assert p2p_capacity(h, pathloss, cfg.power_budget, cfg.noise_power) >= 0.0


@pytest.mark.parametrize("pt_dbm", [
    30.0,
    pytest.param(60.0, marks=pytest.mark.xfail(strict=True, reason=(
        "the inner solver's stop res <= rtol * (1 + ||g||) passes the zero "
        "start once ||g|| > ~1/rtol, so ST-NOMA rates collapse to 0 at high "
        "budgets"
    ))),
])
def test_st_noma_beats_oma_at_equal_weights(pt_dbm):
    # at the reference physics ST-NOMA's mu = 0.5 weighted sum rate is well
    # above OMA's at tau = 0.5 (17.7 against 12.2 bits at 30 dBm); a solver
    # that stops at its zero start falls below it
    cfg = Scenario(pt_dbm=pt_dbm).config()
    points = ergodic_region(cfg, [0.5], trials=2, seed=0)
    st, oma = points["st_noma"][0], points["oma"][0]
    assert st.r1 + st.r2 >= oma.r1 + oma.r2


def test_st_noma_beats_oma_by_three_paired_standard_errors(monkeypatch):
    # The paper's comparison at the reference scenario (5x3x3, 100 trials,
    # seed 0) with its Monte Carlo error, from the per-trial pairs that the
    # region sweep reduces: on each draw, ST-NOMA's weighted sum rate at
    # mu = 0.5 less OMA's at either end of its time-sharing line, whose
    # every point mixes the two. The mean difference exceeds three standard
    # errors of the paired difference (1.70 +- 0.12 bits against user 2's
    # corner). The hybrid frontier dominates every ST-NOMA and OMA point.
    scenario = Scenario()
    assert (scenario.n, scenario.m1, scenario.m2, scenario.trials, scenario.seed) == (5, 3, 3, 100, 0)
    run, runs = region._run_trials, []

    def recorded(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(region, "_run_trials", recorded)
    points = ergodic_region(scenario.config(), scenario.mu_grid(), scenario.trials,
                            scenario.seed, settings=scenario.solver_settings())
    [(pairs, caps)] = runs
    st = 0.5 * pairs[:, list(scenario.mu_grid()).index(0.5)].sum(axis=-1)
    for corner in caps.T:  # OMA at tau = 1 and at tau = 0
        diff = st - 0.5 * corner
        assert diff.mean() >= 3.0 * diff.std(ddof=1) / np.sqrt(len(diff))
    front = [(p.r1, p.r2) for p in points["hybrid"]]
    for p in points["st_noma"] + points["oma"]:
        assert frontier_value_at(front, p.r1) >= p.r2 - 1e-9


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


def test_st_region_worker_invariant_through_a_pool(monkeypatch):
    # 4 trials at two workers: a real 2-process pool, two trials a process
    sizes = []

    def spy_pool(processes):
        sizes.append(processes)
        return multiprocessing.Pool(processes=processes)

    monkeypatch.setattr(region, "Pool", spy_pool)
    monkeypatch.setattr(region, "_usable_cpus", lambda: 2)
    grid = [0.0, 0.5, 1.0]
    a = st_noma_region(CFG, grid, trials=4, seed=9, workers=1)
    b = st_noma_region(CFG, grid, trials=4, seed=9, workers=2)
    assert sizes == [2]
    for x, y in zip(a, b):
        assert (x.r1, x.r2) == (y.r1, y.r2)


def test_a_wrapper_on_the_trial_runs_in_the_pool_workers(tmp_path, monkeypatch):
    # a worker looks _trial_point up by name, so a wrapper installed on it
    # runs in the forked workers; a pool handed the wrapper itself would
    # pickle it, and a closure such as a tracer's cannot be pickled
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("only a forked worker inherits the wrapper")
    trial_point, log = region._trial_point, tmp_path / "pids"

    def wrapped(*args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return trial_point(*args)

    monkeypatch.setattr(region, "_trial_point", wrapped)
    monkeypatch.setattr(region, "_usable_cpus", lambda: 2)
    region._run_trials(CFG, [0.5], SolverSettings(ccp_max_iters=1), 3, 4, 2)
    pids = log.read_text().split()
    assert len(pids) == 2 and str(os.getpid()) not in pids


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
    [(10**6, 8, 2, [2]), (10**6, 7, 64, [3]), (2, 6, 64, [2]), (1, 3, 64, []),
     (8, 1, 64, []), (2, 2, 64, []), (3, 5, 64, [2])],
)
def test_run_trials_pool_capped(monkeypatch, workers, trials, cpus, expected):
    # one process per worker, per usable CPU and per two trials; no pool for one
    monkeypatch.setattr(region, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(region, "_usable_cpus", lambda: cpus)
    pairs, caps = region._run_trials(
        CFG, [0.5], SolverSettings(ccp_max_iters=1), 3, trials, workers
    )
    assert RecordingPool.sizes == expected
    assert pairs.shape == (trials, 1, 2) and caps.shape == (trials, 2)


def test_pool_sized_by_the_affinity_set(monkeypatch):
    # a process pinned to one of two CPUs (`taskset -c 0`) starts no pool
    monkeypatch.setattr(region, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(region.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(region.os, "cpu_count", lambda: 2)
    assert region._usable_cpus() == 1
    region._run_trials(CFG, [0.5], SolverSettings(ccp_max_iters=1), 3, 4, 2)
    assert RecordingPool.sizes == []


@pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_set(monkeypatch, count, expected):
    # platforms without sched_getaffinity fall back to the CPU count
    monkeypatch.delattr(region.os, "sched_getaffinity")
    monkeypatch.setattr(region.os, "cpu_count", lambda: count)
    assert region._usable_cpus() == expected


def test_failing_trial_names_seed_and_trial(monkeypatch):
    def non_generic(chs):
        return [ValueError("h1 is non-generic") for _ in chs]

    monkeypatch.setattr(region, "triangularize_draws", non_generic)
    with pytest.raises(ValueError, match=r"seed 7, trial 0: h1 is non-generic") as info:
        st_noma_region(CFG, [0.5], trials=2, seed=7, workers=1)
    assert isinstance(info.value.__cause__, ValueError)
    assert str(info.value.__cause__) == "h1 is non-generic"


def test_region_csv_identical_across_uneven_chunks(tmp_path, monkeypatch):
    # 7 trials run as one chunk, as chunks of 4 + 3 and as 3 + 2 + 2
    monkeypatch.setattr(region, "_usable_cpus", lambda: 3)
    scenario = Scenario(trials=7, mu_steps=3, seed=4)
    csvs = [
        run_region(scenario, tmp_path / f"w{workers}", workers=workers)[0].read_bytes()
        for workers in (1, 2, 3)
    ]
    assert csvs[0] == csvs[1] == csvs[2]


@pytest.mark.parametrize(
    "workers, trials, chunks",
    [(1, 5, [[0, 1, 2, 3, 4]]), (2, 5, [[0, 1, 2], [3, 4]]),
     (3, 7, [[0, 1, 2], [3, 4], [5, 6]]),
     (8, 9, [[0, 1, 2], [3, 4], [5, 6], [7, 8]])],
)
def test_run_trials_in_contiguous_chunks(monkeypatch, workers, trials, chunks):
    # one task per process, each a contiguous run of trials, in trial order;
    # the reduced rows are each trial's own, in trial order
    seen = []
    trial_point = region._trial_point

    def recording(cfg, mu_grid, settings, seed, chunk):
        seen.append(list(chunk))
        return trial_point(cfg, mu_grid, settings, seed, chunk)

    monkeypatch.setattr(region, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(region, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(region, "_trial_point", recording)
    settings = SolverSettings(ccp_max_iters=2)
    pairs, caps = region._run_trials(CFG, [0.2, 0.7], settings, 3, trials, workers)
    assert seen == chunks
    for t in range(trials):
        alone_pairs, alone_caps = trial_point(CFG, (0.2, 0.7), settings, 3, [t])
        assert pairs[t].tobytes() == alone_pairs[0].tobytes()
        assert caps[t].tobytes() == alone_caps[0].tobytes()


def test_region_needs_a_trial():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        st_noma_region(CFG, [0.5], trials=0, seed=1)


def test_failing_trial_of_a_chunk_is_named(monkeypatch):
    # the chunk's draws are triangularized in one stacked pass; its first
    # failing draw is named by its trial
    triangularize = region.triangularize_draws
    calls = []

    def second_and_third_non_generic(chs):
        calls.append(chs)
        decs = triangularize(chs)
        decs[1] = ValueError("h1 is non-generic")
        decs[2] = ValueError("h2 is non-generic")
        return decs

    monkeypatch.setattr(region, "triangularize_draws", second_and_third_non_generic)
    with pytest.raises(ValueError, match=r"^seed 7, trial 1: h1 is non-generic$"):
        st_noma_region(CFG, [0.5], trials=3, seed=7, workers=1)
    assert [len(chs) for chs in calls] == [3]


def test_failing_joint_solve_names_its_trials(monkeypatch):
    def failing(decs, cfg, mus, settings=None):
        raise ValueError("mu must lie in [0, 1]")

    monkeypatch.setattr(region, "ccp_allocate_draws", failing)
    with pytest.raises(ValueError, match=r"^seed 7, trials 0-2: mu must lie"):
        st_noma_region(CFG, [0.5], trials=3, seed=7, workers=1)


def test_non_finite_draw_names_its_trial(nan_in_factor):
    # the NaN enters the second draw's r2 in the stacked pass, whose
    # decomposition refuses it as it is built, not in the chunk's joint
    # solve
    nan_in_factor("r2", 1)
    with pytest.raises(ValueError, match=r"^seed 7, trial 1: decomposition not finite in r2$"):
        st_noma_region(CFG, [0.5], trials=3, seed=7, workers=1)


def test_invalid_row_is_named_with_the_message_of_validate(monkeypatch):
    # one array test covers the chunk's rows; the first failing row is
    # worded by validate and named by its trial
    solve = region.ccp_allocate_draws

    def bad_rows(decs, cfg, mus, settings=None):
        record = solve(decs, cfg, mus, settings)
        record.p1[1, 2, 0] = -0.1
        record.p2[2, 0, 1] = 0.1  # a private1 stream, on a later trial
        return record

    monkeypatch.setattr(region, "ccp_allocate_draws", bad_rows)
    settings = SolverSettings(ccp_max_iters=2)
    with pytest.raises(ValueError) as info:
        region._trial_point(CFG, (0.2, 0.5, 0.8), settings, 7, [4, 5, 6])
    bad = PowerAllocation.zeros(CFG.dims)
    bad.p1[0] = -0.1
    with pytest.raises(ValueError) as want:
        bad.validate(CFG.dims, CFG.power_budget)
    assert str(info.value) == f"seed 7, trial 5: {want.value}"


def test_rate_region_point_rejects_negative():
    with pytest.raises(ValueError):
        RateRegionPoint(r1=-0.1, r2=1.0, scheme="oma", param=0.5, trials=1)


@pytest.mark.parametrize("r1, r2", [(np.nan, 1.0), (1.0, np.nan)])
def test_rate_region_point_rejects_nan(r1, r2):
    # NaN passed the `rate < 0` test
    with pytest.raises(ValueError):
        RateRegionPoint(r1=r1, r2=r2, scheme="oma", param=0.5, trials=1)


def gift_wrap_frontier(points):
    """O(n^2) oracle: repeatedly pick the next frontier vertex by maximal
    slope from the current one, the farthest of collinear ones, starting at
    the highest point."""
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
            key=lambda p: ((p[1] - current[1]) / (p[0] - current[0]), p[0]),
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
    point_sets = [rng.random((10, 2)) * 3 for _ in range(50)]
    # ties and duplicates: small integer grids
    point_sets += [rng.integers(0, 4, (10, 2)) for _ in range(50)]
    point_sets += [
        [(0, 2), (1, 2), (2, 2), (3, 0)],  # tied at the top
        [(0, 2), (2, 0), (2, 1), (2, 1)],  # tied at the right end
        [(0, 3), (1, 2), (2, 1), (3, 0)],  # collinear, falling
        [(0, 0), (1, 1), (2, 2), (3, 3)],  # collinear, rising
        [(0, 4), (1, 3), (2, 2), (4, 0), (1, 1), (0, 4), (1, 3)],  # duplicates
        [(1, 1)] * 3,
    ]
    for points in point_sets:
        pts = [(float(x), float(y)) for x, y in points]
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
    out = ergodic_region(CFG, grid, trials=2, seed=1, workers=1)
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

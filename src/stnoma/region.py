"""Ergodic rate regions: NOMA sweep, OMA time sharing, point-to-point
corners, and the hybrid time-sharing frontier.

All ergodic quantities are Monte Carlo averages over independent channel
draws. Trial ``t`` of a run with seed ``s`` always uses the generator seeded
by ``(s, t)``, so results are independent of execution order and worker
count, and byte-reproducible for a fixed seed.
"""

import os
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .power import SolverSettings, ccp_allocate
from .rates import rate_user1, rate_user2
from .system import sample_channels
from .triangularize import simultaneous_triangularize

__all__ = [
    "RateRegionPoint",
    "p2p_capacity",
    "oma_region",
    "st_noma_region",
    "hybrid_region",
    "ergodic_region",
    "pareto_frontier",
    "frontier_value_at",
]


@dataclass(frozen=True)
class RateRegionPoint:
    """One (R1, R2) point with its provenance."""

    r1: float
    r2: float
    scheme: str
    param: float | None
    trials: int

    def __post_init__(self):
        if self.r1 < 0.0 or self.r2 < 0.0:
            raise ValueError("rates must be nonnegative")


def p2p_capacity(h, pathloss, power_budget, noise_power):
    """Single-user MIMO capacity with a total power constraint.

    Water-filling over the squared singular values of the channel: gains
    ``g_i = s_i^2 / (pathloss * noise)``, powers ``p_i = max(0, level - 1/g_i)``
    with the level chosen to spend the whole budget.
    """
    s = np.linalg.svd(np.asarray(h, dtype=complex), compute_uv=False)
    gains = np.sort(s[s > 0.0] ** 2 / (pathloss * noise_power))[::-1]
    if gains.size == 0 or power_budget <= 0.0:
        return 0.0
    inv = 1.0 / gains
    active = 1
    level = power_budget + inv[0]
    for k in range(gains.size, 0, -1):
        level = (power_budget + inv[:k].sum()) / k
        if level > inv[k - 1]:
            active = k
            break
    return float(np.sum(np.log2(level * gains[:active])))


def oma_region(ch, cfg, tau_grid):
    """Orthogonal (TDMA) baseline for one channel pair.

    Each user bursts at full power during its slot of duration ``tau`` or
    ``1 - tau``, with individual water-filling; the rate pair scales
    linearly with the slot split.
    """
    c1 = p2p_capacity(ch.h1, cfg.pathloss1, cfg.power_budget, cfg.noise_power)
    c2 = p2p_capacity(ch.h2, cfg.pathloss2, cfg.power_budget, cfg.noise_power)
    return [
        RateRegionPoint(
            r1=tau * c1, r2=(1.0 - tau) * c2, scheme="oma", param=float(tau), trials=1
        )
        for tau in tau_grid
    ]


def _trial_point(cfg, mu_grid, settings, seed, trial):
    """Rates of one channel draw: per-mu NOMA rate pairs plus both
    point-to-point capacities."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    ch = sample_channels(rng, cfg.n_bs, cfg.m1, cfg.m2)
    dec = simultaneous_triangularize(ch)
    pairs = np.empty((len(mu_grid), 2))
    for i, mu in enumerate(mu_grid):
        alloc, _ = ccp_allocate(dec, cfg, mu, settings=settings)
        alloc.validate(dec.dims, cfg.power_budget)
        pairs[i, 0] = rate_user1(alloc, dec, cfg).sum()
        pairs[i, 1] = rate_user2(alloc, dec, cfg).sum()
    c1 = p2p_capacity(ch.h1, cfg.pathloss1, cfg.power_budget, cfg.noise_power)
    c2 = p2p_capacity(ch.h2, cfg.pathloss2, cfg.power_budget, cfg.noise_power)
    return pairs, c1, c2


def _trial_point_star(args):
    return _trial_point(*args)


def _run_trials(cfg, mu_grid, settings, seed, trials, workers):
    """All trials, reduced in fixed trial order regardless of worker count.
    The pool holds at most one process per trial and per CPU."""
    tasks = [(cfg, tuple(mu_grid), settings, seed, t) for t in range(trials)]
    processes = min(workers, trials, os.cpu_count() or 1)
    if processes > 1:
        with Pool(processes=processes) as pool:
            results = pool.map(_trial_point_star, tasks)
    else:
        results = [_trial_point(*task) for task in tasks]
    pairs = np.stack([r[0] for r in results])  # (trials, n_mu, 2)
    caps = np.array([[r[1], r[2]] for r in results])  # (trials, 2)
    return pairs, caps


def st_noma_region(cfg, mu_grid, trials, seed, settings=None, workers=1):
    """Ergodic NOMA rate-region points, one per weight in ``mu_grid``."""
    if settings is None:
        settings = SolverSettings()
    pairs, _ = _run_trials(cfg, mu_grid, settings, seed, trials, workers)
    means = pairs.mean(axis=0)
    return [
        RateRegionPoint(
            r1=float(means[i, 0]),
            r2=float(means[i, 1]),
            scheme="st_noma",
            param=float(mu),
            trials=trials,
        )
        for i, mu in enumerate(mu_grid)
    ]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def pareto_frontier(points):
    """Upper-right Pareto frontier of the convex hull of 2-D points.

    Returns hull vertices sorted by increasing first coordinate, starting at
    the highest second coordinate; every input point is componentwise
    dominated by the piecewise-linear frontier.
    """
    pts = sorted(set((float(p[0]), float(p[1])) for p in points))
    if not pts:
        return []
    if len(pts) == 1:
        return pts
    upper = []
    for p in pts:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) >= 0.0:
            upper.pop()
        upper.append(p)
    peak = max(range(len(upper)), key=lambda i: (upper[i][1], upper[i][0]))
    tail = upper[peak:]
    # Drop anything still dominated (guards collinear/tied vertices).
    return [
        p
        for p in tail
        if not any(
            q is not p and q[0] >= p[0] and q[1] >= p[1] for q in tail
        )
    ]


def frontier_value_at(frontier, x):
    """Largest second coordinate the frontier reaches at first coordinate
    ``x``; -inf beyond its right end."""
    if not frontier:
        return -np.inf
    if x <= frontier[0][0]:
        return frontier[0][1]
    for (x0, y0), (x1, y1) in zip(frontier, frontier[1:]):
        if x <= x1:
            w = 0.0 if x1 == x0 else (x - x0) / (x1 - x0)
            return y0 + w * (y1 - y0)
    return -np.inf if x > frontier[-1][0] else frontier[-1][1]


def hybrid_region(st_points, corner1, corner2):
    """Time-sharing frontier between the NOMA points and the two
    point-to-point corners: the Pareto frontier of their convex hull."""
    pts = [(p.r1, p.r2) for p in st_points]
    pts.append((corner1.r1, corner1.r2))
    pts.append((corner2.r1, corner2.r2))
    trials = max([p.trials for p in st_points] or [1])
    return [
        RateRegionPoint(r1=x, r2=y, scheme="hybrid", param=None, trials=trials)
        for x, y in pareto_frontier(pts)
    ]


def ergodic_region(cfg, mu_grid, tau_grid, trials, seed, settings=None, workers=1):
    """Full region sweep: NOMA points, OMA line, corners, and hybrid frontier.

    A single set of channel draws feeds every scheme, so curves are directly
    comparable. Returns a dict keyed by scheme name; corner points appear
    under ``p2p_user1`` / ``p2p_user2``.
    """
    if settings is None:
        settings = SolverSettings()
    pairs, caps = _run_trials(cfg, mu_grid, settings, seed, trials, workers)
    means = pairs.mean(axis=0)
    c1, c2 = float(caps[:, 0].mean()), float(caps[:, 1].mean())

    st_points = [
        RateRegionPoint(
            r1=float(means[i, 0]),
            r2=float(means[i, 1]),
            scheme="st_noma",
            param=float(mu),
            trials=trials,
        )
        for i, mu in enumerate(mu_grid)
    ]
    # The ergodic OMA line is linear in the per-channel capacities, so
    # averaging the corners first gives the same curve.
    oma_points = [
        RateRegionPoint(
            r1=tau * c1, r2=(1.0 - tau) * c2, scheme="oma", param=float(tau),
            trials=trials,
        )
        for tau in tau_grid
    ]
    corner1 = RateRegionPoint(
        r1=c1, r2=0.0, scheme="p2p_user1", param=None, trials=trials
    )
    corner2 = RateRegionPoint(
        r1=0.0, r2=c2, scheme="p2p_user2", param=None, trials=trials
    )
    return {
        "st_noma": st_points,
        "oma": oma_points,
        "p2p_user1": [corner1],
        "p2p_user2": [corner2],
        "hybrid": hybrid_region(st_points, corner1, corner2),
    }

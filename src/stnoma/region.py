"""Ergodic rate regions: NOMA sweep, OMA time sharing, point-to-point
corners, and the hybrid time-sharing frontier.

All ergodic quantities are Monte Carlo averages over independent channel
draws. Trial ``t`` of a run with seed ``s`` always uses the generator seeded
by ``(s, t)`` (:func:`sample_trials`), so results are independent of
execution order and worker count, and byte-reproducible for a fixed seed.
"""

import os

import numpy as np

from .power import SolverSettings, ccp_allocate_draws
from .power import ccp_allocate  # noqa: F401  bench/tracing.py patches it here
from .rates import rate_user1  # noqa: F401  bench/tracing.py patches it here
from .rates import rate_user2  # noqa: F401  bench/tracing.py patches it here
from .system import Record, sample_channels
from .transceiver import PowerAllocation
from .triangularize import simultaneous_triangularize  # noqa: F401  bench/tracing.py patches it here
from .triangularize import triangularize_draws

__all__ = [
    "RateRegionPoint",
    "sample_trials",
    "p2p_capacity",
    "oma_region",
    "st_noma_region",
    "hybrid_region",
    "ergodic_region",
    "pareto_frontier",
    "frontier_value_at",
]


class RateRegionPoint(Record):
    """One (R1, R2) point with its provenance; ``param`` (mu or tau) is
    ``None`` for a corner or a hybrid vertex."""

    __slots__ = ("r1", "r2", "scheme", "param", "trials")

    def __post_init__(self):
        # written so that NaN fails
        if not (self.r1 >= 0.0 and self.r2 >= 0.0):
            raise ValueError("rates must be nonnegative")


def p2p_capacity(h, pathloss, power_budget, noise_power):
    """Single-user MIMO capacity with a total power constraint.

    Water-filling over the squared singular values of the channel: gains
    ``g_i = s_i^2 / (pathloss * noise)``, powers ``p_i = max(0, level - 1/g_i)``
    with the level chosen to spend the whole budget.
    """
    # written so that NaN fails
    if not 0.0 <= power_budget < np.inf:
        raise ValueError("power budget must be finite and >= 0")
    if not (0.0 < pathloss < np.inf and 0.0 < noise_power < np.inf):
        raise ValueError("path loss and noise power must be finite and > 0")
    h = np.asarray(h, dtype=complex)
    if not np.isfinite(h).all():
        raise ValueError("channel entries must be finite")
    s = np.linalg.svd(h, compute_uv=False)
    gains = np.sort(s[s > 0.0] ** 2 / (pathloss * noise_power))[::-1]
    if gains.size == 0 or power_budget == 0.0:
        return 0.0
    inv = 1.0 / gains
    active = 1
    level = power_budget + inv[0]
    for k in range(gains.size, 0, -1):
        level = (power_budget + inv[:k].sum()) / k
        if level > inv[k - 1]:
            active = k
            break
    # at a vanishing SNR the sum of logs of ratios near 1 can round below 0
    return max(0.0, float(np.sum(np.log2(level * gains[:active]))))


def oma_region(ch, cfg, taus):
    """Orthogonal (TDMA) baseline for one channel pair.

    Each user bursts at full power during its slot of duration ``tau`` or
    ``1 - tau``, with individual water-filling; the rate pair scales
    linearly with the slot split.
    """
    c1, c2 = _corners(ch, cfg)
    return _oma_line(c1, c2, taus, trials=1)


def _corners(ch, cfg):
    """Both users' point-to-point capacities on the channel pair ``ch``."""
    return (p2p_capacity(ch.h1, cfg.pathloss1, cfg.power_budget, cfg.noise_power),
            p2p_capacity(ch.h2, cfg.pathloss2, cfg.power_budget, cfg.noise_power))


def _oma_line(c1, c2, taus, trials):
    """Time-sharing points between the corners ``(c1, 0)`` and ``(0, c2)``."""
    return [
        RateRegionPoint(
            r1=tau * c1, r2=(1.0 - tau) * c2, scheme="oma", param=float(tau),
            trials=trials,
        )
        for tau in taus
    ]


def sample_trials(cfg, seed, trials):
    """The channel pair of each trial of ``trials``, in order: trial ``t``
    draws from the generator seeded by ``(seed, t)``, the one rule by which
    ``region``, ``check`` and ``convergence`` (whose trial ``t`` is its
    ``t``-th configuration) draw a channel."""
    return [sample_channels(np.random.default_rng(np.random.SeedSequence([seed, t])),
                            cfg.n_bs, cfg.m1, cfg.m2) for t in trials]


def _trial_point(cfg, mu_grid, settings, seed, trials):
    """Rates of the channel draws of the trials ``trials``, in order:
    per-mu NOMA rate pairs, shape ``(trials, mu, 2)``, and both
    point-to-point capacities, shape ``(trials, 2)``. One stacked pass
    triangularizes every draw, and one lockstep CCP run covers every (draw,
    weight) row and gives its rates. A ``ValueError`` (a non-generic draw or
    a non-finite decomposition, say) is re-raised naming the seed and the
    first such trial, or the trials of a joint step."""
    where = chunk = f"trials {trials[0]}-{trials[-1]}"
    try:
        chs = sample_trials(cfg, seed, trials)
        decs = triangularize_draws(chs)
        for trial, dec in zip(trials, decs):
            where = f"trial {trial}"
            if isinstance(dec, ValueError):  # the refusal of a draw's decomposition
                raise dec
        where = chunk
        record = ccp_allocate_draws(decs, cfg, mu_grid, settings=settings)
        # one array test of every row; validate words the first failure
        passes = PowerAllocation.passes(record.p1, record.p2, record.dims, cfg.power_budget)
        for t, i in np.argwhere(~passes):
            where = f"trial {trials[t]}"
            record.allocation(t, i).validate(record.dims, cfg.power_budget)
        caps = np.empty((len(decs), 2))
        for t, (trial, ch) in enumerate(zip(trials, chs)):
            where = f"trial {trial}"
            caps[t] = _corners(ch, cfg)
    except ValueError as exc:
        raise ValueError(f"seed {seed}, {where}: {exc}") from exc
    return record.rates, caps


def _trial_point_star(args):
    """:func:`_trial_point` of one task, looked up by name in the worker: a
    wrapper installed on it (a tracer's, say) runs there and is never
    pickled."""
    return _trial_point(*args)


def Pool(processes):
    """``multiprocessing.Pool``, imported on the first call: a run that starts
    no pool never loads ``multiprocessing``."""
    import multiprocessing

    return multiprocessing.Pool(processes=processes)


def _usable_cpus():
    """CPUs this process may run on: its affinity set where the platform has
    one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_trials(cfg, mu_grid, settings, seed, trials, workers):
    """All trials in contiguous chunks, one per process, reduced in fixed
    trial order regardless of worker count. The pool holds at most one
    process per usable CPU and per two trials: a chunk's draws share one
    lockstep CCP run, so two draws cost a process about what one does, and a
    pool that splits them pays its start-up for nothing."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    processes = max(1, min(workers, _usable_cpus(), trials // 2))
    # chunk lengths differ by at most one
    chunks = np.array_split(np.arange(trials), processes)
    tasks = [(cfg, tuple(mu_grid), settings, seed, c.tolist()) for c in chunks]
    if processes > 1:
        with Pool(processes=processes) as pool:
            results = pool.map(_trial_point_star, tasks)
    else:
        results = [_trial_point(*task) for task in tasks]
    pairs = np.concatenate([r[0] for r in results])  # (trials, n_mu, 2)
    caps = np.concatenate([r[1] for r in results])  # (trials, 2)
    return pairs, caps


def st_noma_region(cfg, mu_grid, trials, seed, settings=None, workers=1):
    """Ergodic NOMA rate-region points, one per weight in ``mu_grid``."""
    points = ergodic_region(cfg, mu_grid, trials, seed, settings=settings, workers=workers)
    return points["st_noma"]


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
    # Right of the peak the chain falls strictly: a vertex level with the
    # peak would be the peak, and a rise is a turn the chain pops.
    peak = max(range(len(upper)), key=lambda i: (upper[i][1], upper[i][0]))
    return upper[peak:]


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
    return -np.inf


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


def ergodic_region(cfg, mu_grid, trials, seed, settings=None, workers=1):
    """Full region sweep: NOMA points, OMA line, corners, and hybrid frontier.

    A single set of channel draws feeds every scheme, so curves are directly
    comparable, and the OMA line takes the weights of ``mu_grid`` as its
    slot splits. Returns a dict keyed by scheme name; corner points appear
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
    oma_points = _oma_line(c1, c2, mu_grid, trials)
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

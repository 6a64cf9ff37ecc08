"""Power allocation by the convex-concave procedure (CCP).

The weighted-sum-rate problem is nonconvex only through the shared-stream
rates of user 1. Each of those is a difference of concave terms, so the
min-of-differences is shifted into a concave minimum plus a concave
remainder, and the remainder is linearized around an anchor point ``q`` (the
previous iterate's user-2 shared powers). The resulting surrogate is concave
and is maximized over the power budget by diagonally preconditioned projected
ascent with an Armijo line search. One exact sorting-based projection onto
the capped simplex, in a diagonal metric, serves the step, the warm start and
the optimality residual. The outer loop re-anchors until the allocation stops
moving.

The remainder of stream l depends on the user-2 shared powers at streams
l and later, and the linearization keeps the full first-order term in all of
those coordinates. That makes the surrogate a global underestimator, tight
at the anchor, for any number of shared streams, which is what guarantees
the monotone ascent of the outer loop. (Linearizing only the own-index
coordinate, with the cross terms dropped, loses the bound as soon as two
shared streams overlap and lets the outer loop cycle or descend; with a
single shared stream the two forms coincide.)

Every routine works on rows. ``ccp_allocate_weights`` runs all rate weights
of one decomposition in lockstep: the rows share the link's gains and each
numpy call of a step, a row that stops drops out, and every row is bit for
bit the single-weight run; ``ccp_allocate`` and ``maximize_surrogate`` are
its one-row case.
"""

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .rates import StreamGains
from .rates import weighted_sum_rate  # noqa: F401  bench/tracing.py patches it here
from .transceiver import PowerAllocation

__all__ = [
    "SolverSettings",
    "CcpState",
    "InnerSolveResult",
    "dc_components",
    "min_difference_identity",
    "rate_underestimator",
    "project_power_budget",
    "maximize_surrogate",
    "ccp_allocate",
    "ccp_allocate_weights",
]

LN2 = math.log(2.0)

# Projected-gradient residual certificate: ||z - proj(z + g)|| must not
# exceed RESIDUAL_RTOL * (1 + ||g||) at return.
RESIDUAL_RTOL = 1e-6


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and iteration caps of both optimization loops."""

    ccp_max_iters: int = 10
    ccp_tol: float = 1e-4
    inner_max_iters: int = 10000

    def __post_init__(self):
        # written so that a NaN tolerance fails
        if not (
            self.ccp_max_iters > 0
            and 0.0 < self.ccp_tol < math.inf
            and self.inner_max_iters > 0
        ):
            raise ValueError("all solver settings must be positive and finite")


@dataclass(frozen=True)
class InnerSolveResult:
    """Outcome of one surrogate maximization."""

    value: float
    iterations: int
    converged: bool
    residual: float
    grad_norm: float


@dataclass
class CcpState:
    """Trajectory of the outer loop."""

    q: np.ndarray
    allocation: PowerAllocation
    iterations: int
    objective_trace: np.ndarray
    converged: bool
    inner_results: tuple = field(default=())

    def __post_init__(self):
        if (np.asarray(self.q) < 0.0).any():
            raise ValueError("anchor powers must be >= 0")
        if len(self.objective_trace) != self.iterations:
            raise ValueError("trace length must equal the iteration count")


def _check_shared(dims, l):
    if not 0 <= l < dims.shared:
        raise ValueError(f"stream {l} is not shared")


def dc_components(alloc, dec, cfg, l):
    """The four concave pieces of user 1's shared-stream rate ``l``.

    Returns ``(c11, c12, c21, c22)`` with the rate at user 1 equal to
    ``c11 - c12`` and the rate at user 2 equal to ``c21 - c22``: the log2 of
    :meth:`StreamGains.shared_args` at stream ``l``.
    """
    _check_shared(dec.dims, l)
    m = dec.dims.shared
    args = StreamGains(dec, cfg).shared_args(alloc.p1[:m], alloc.p2[:m])
    return tuple(math.log2(arg[l]) for arg in args)


def min_difference_identity(a, b, c, d):
    """Both evaluations of ``min(a-b, c-d) == min(a+d, c+b) - (b+d)``.

    Returns the left- and right-hand side; they agree for all real inputs
    and the identity is what moves the concave pieces into a DC form.
    """
    return min(a - b, c - d), min(a + d, c + b) - (b + d)


def rate_underestimator(alloc, anchor, dec, cfg, l):
    """Concave lower bound on user 1's shared-stream rate ``l``.

    The concave remainder of the DC form is replaced by its first-order
    expansion around ``anchor``, taken in every user-2 shared power it
    depends on (streams l and later plus the own decoding term). The bound
    is tight at ``p2 == anchor`` on the shared block and never exceeds the
    true rate. It is row ``l`` of the bounds the solver's surrogate sums.

    Parameters
    ----------
    alloc : PowerAllocation
        Evaluation point.
    anchor : (shared,) array_like
        Nonnegative anchor powers for user 2's shared streams.
    """
    _check_shared(dec.dims, l)
    problem = _SurrogateProblem(dec, cfg, 1.0, anchor)
    return float(problem.bounds(problem.pack(alloc))[l])


@functools.lru_cache(maxsize=64)
def _grid(rows, n):
    """Flat offsets of the rows of a (rows, n) array, the column indices,
    and the counts 1..n; read-only, as every caller shares them."""
    grid = n * np.arange(rows), np.arange(n), np.arange(1.0, n + 1.0)
    for a in grid:
        a.flags.writeable = False
    return grid


def _project(v, weights, budget):
    """Projection onto ``{x >= 0, sum(x) <= budget}`` in the diagonal metric
    ``weights`` (``None``: unit weights): minimizes
    ``sum(weights * (x - v)**2)``, row by row for a 2-D ``v``.

    The solution is ``max(0, v - theta / weights)`` for a multiplier
    ``theta >= 0``; coordinate i turns off at the breakpoint
    ``v_i * weights_i``. Sorting the breakpoints gives every candidate
    threshold at once (Duchi et al. 2008, in a diagonal metric); O(n log n).
    """
    if v.ndim == 1:
        rows = None if weights is None else weights[None]
        return _project(v[None], rows, budget)[0]
    x = np.maximum(v, 0.0)
    inside = np.add.reduce(x, axis=1) <= budget
    n_inside = np.count_nonzero(inside)
    if n_inside == len(v):
        return x
    starts, cols, counts = _grid(*v.shape)
    breakpoints = v if weights is None else v * weights
    # flat indices of each row's breakpoints in decreasing order
    order = np.argsort(breakpoints, axis=1)[:, ::-1] + starts[:, None]
    theta = v.take(order).cumsum(axis=1) - budget
    # unit weights sum to the exact counts
    theta /= counts if weights is None else (1.0 / weights.take(order)).cumsum(axis=1)
    hits = breakpoints.take(order) > theta
    # the last hit; rounding can empty the set for budgets at the float
    # resolution of the entries, and the single-coordinate threshold is then
    # the right answer
    theta = theta.take(starts + np.maximum.reduce(hits * cols, axis=1))[:, None]
    proj = np.maximum(v - (theta if weights is None else theta / weights), 0.0)
    return np.where(inside[:, None], x, proj) if n_inside else proj


def project_power_budget(v, budget):
    """Euclidean projection onto ``{x >= 0, sum(x) <= budget}``: the
    solver's sorting-based projection at unit weights, row by row for a 2-D
    ``v``; O(n log n).
    """
    if budget < 0.0:
        raise ValueError("budget must be >= 0")
    return _project(np.asarray(v, dtype=float), None, budget)


def _norm(x):
    """Euclidean norm of each row; the bits of ``np.linalg.norm`` per row."""
    return np.sqrt(np.vecdot(x, x))


class _SurrogateProblem(StreamGains):
    """Vectorized value/gradient of the concave surrogate objective, for one
    weight and anchor or for rows of them.

    Variables are packed as ``z = [p1 shared, p1 private1, p2 shared,
    p2 private2]``; the fixed-zero coordinates of the allocation never enter
    the solver. The coefficients are the link's :class:`StreamGains`, which
    every row shares. ``mu`` (shape ``rows``) and ``anchor`` (``rows +
    (shared,)``) set the rows; ``z`` then carries the same leading axes, and
    each row computes exactly as it would alone.
    """

    # The per-row state; take() selects rows of each.
    _ROW_FIELDS = ("mu", "mu2", "anchor", "anchored", "jac", "slope")

    def __init__(self, dec, cfg, mu, anchor):
        super().__init__(dec, cfg)
        d = self.dims
        self.m = d.shared
        self.n_p1 = self.m + d.private1
        self.size = self.n_p1 + self.m + d.private2
        self._anchor_rows(mu, anchor)

    @functools.cached_property
    def gain_powers(self):
        """The gains in the k-th derivatives (k = 1, 2) raised to the k-th
        power, computed once per link."""
        gains = (self.c1, self.c1_diag, self.w2, self.g1p, self.g2s, self.g2p)
        return {1: gains, 2: tuple(gain**2 for gain in gains)}

    def _anchor_rows(self, mu, anchor):
        m = self.m
        self.mu = np.asarray(mu, dtype=float)
        self.mu2 = 1.0 - self.mu  # user 2's weight
        self.anchor = np.asarray(anchor, dtype=float)
        if self.anchor.shape != self.mu.shape + (m,):
            raise ValueError("anchor length must equal the shared stream count")
        if (self.anchor < 0.0).any():
            raise ValueError("anchor powers must be >= 0")

        zeros = np.zeros_like(self.anchor)
        _, arg12_q, _, arg22_q = self.shared_args(zeros, self.anchor)
        self.anchored = np.log2(arg12_q) + np.log2(arg22_q)
        # Full anchored jacobian of the concave remainders: row l linearizes
        # stream l's bound; the summed objective and gradient need only its
        # column sums.
        self.jac = self.c1 / (LN2 * arg12_q[..., None])
        diag = np.arange(m)
        self.jac[..., diag, diag] += self.w2 / (LN2 * arg22_q)
        self.slope = self.jac.sum(axis=-2)

    def reanchored(self, mu, anchor):
        """The same link's surrogate at other weights and anchors, without
        rebuilding its gains."""
        new = copy.copy(self)
        new._anchor_rows(mu, anchor)
        return new

    def take(self, rows):
        """The surrogate of the rows at the indices ``rows`` (increasing)."""
        if len(rows) == len(self.mu):
            return self
        new = copy.copy(self)
        for name in self._ROW_FIELDS:
            setattr(new, name, getattr(self, name)[rows])
        return new

    def powers(self, z):
        """Solver vectors -> full-length ``(p1, p2)`` with the zero support
        restored."""
        d = self.dims
        m, n_p1 = self.m, self.n_p1
        p1 = np.zeros(z.shape[:-1] + (d.total,))
        p2 = np.zeros(z.shape[:-1] + (d.total,))
        p1[..., :n_p1] = z[..., :n_p1]
        p2[..., :m] = z[..., n_p1 : n_p1 + m]
        p2[..., m + d.private1 :] = z[..., n_p1 + m :]
        return p1, p2

    def unpack(self, z):
        """Solver vector -> PowerAllocation."""
        return PowerAllocation(*self.powers(z))

    def pack(self, alloc):
        d = self.dims
        m = self.m
        return np.concatenate(
            [
                alloc.p1[: self.n_p1],
                alloc.p2[:m],
                alloc.p2[m + d.private1 :],
            ]
        )

    def _parts(self, z):
        m = self.m
        p1s = z[..., :m]
        p1p = z[..., m : self.n_p1]
        p2s = z[..., self.n_p1 : self.n_p1 + m]
        p2p = z[..., self.n_p1 + m :]
        return p1s, p1p, p2s, p2p

    @staticmethod
    def _branches(arg11, arg12, arg21, arg22):
        return np.log2(arg11) + np.log2(arg22), np.log2(arg21) + np.log2(arg12)

    def branches(self, z):
        """The two concave min branches per shared stream."""
        p1s, _, p2s, _ = self._parts(z)
        return self._branches(*self.shared_args(p1s, p2s))

    def bounds(self, z):
        """Per-stream concave lower bounds on user 1's shared-stream rates:
        the exact minimum less the linearized remainder, row by row."""
        b1, b2 = self.branches(z)
        p2s = self._parts(z)[2]
        return np.minimum(b1, b2) - self.anchored - self.jac @ (p2s - self.anchor)

    @staticmethod
    def _branch_weights(b1, b2, tau):
        """Convex weight on the first branch: hard minimum for ``tau == 0``,
        softmin blend for ``tau > 0`` (stable via tanh)."""
        gap = b1 - b2
        if tau == 0.0:
            return (gap <= 0.0).astype(float)
        return 0.5 * (1.0 - np.tanh(gap / (2.0 * tau)))

    @staticmethod
    def _softmin(b1, b2, tau):
        hard = np.minimum(b1, b2)
        if tau == 0.0:
            return hard
        return hard - tau * np.log1p(np.exp(-np.abs(b1 - b2) / tau))

    def _sats(self, p1p, p2s, p2p):
        """The arguments ``1 + p * gain`` of the interference-free rates:
        user 1's private, user 2's shared and user 2's private streams."""
        return 1.0 + p1p * self.g1p, 1.0 + p2s * self.g2s, 1.0 + p2p * self.g2p

    def _total(self, b1, b2, p2s, sats, tau):
        """The objective from the branches: the weighted (soft) minima less
        the summed linearization, then the interference-free rates of user
        2's shared and both users' private streams."""
        mu, mu2 = self.mu, self.mu2
        sat1p, sat2s, sat2p = sats
        under = (
            self._softmin(b1, b2, tau)
            - self.anchored
            - self.slope * (p2s - self.anchor)
        )
        total = mu * np.add.reduce(under, axis=-1)
        total += mu2 * np.add.reduce(np.log2(sat2s), axis=-1)
        total += mu * np.add.reduce(np.log2(sat1p), axis=-1)
        total += mu2 * np.add.reduce(np.log2(sat2p), axis=-1)
        return total

    def evaluate(self, z, tau=0.0, branch_weights=None):
        """``(f, lam, args, sats)``: the surrogate objective at ``z`` and
        what its derivatives there read, the branch weights (``None``: those
        of the (soft) minimum itself) and the arguments."""
        p1s, p1p, p2s, p2p = self._parts(z)
        args = self.shared_args(p1s, p2s)
        b1, b2 = self._branches(*args)
        sats = self._sats(p1p, p2s, p2p)
        if branch_weights is None:
            lam = self._branch_weights(b1, b2, tau)
        else:
            lam = np.asarray(branch_weights, dtype=float)
        return self._total(b1, b2, p2s, sats, tau), lam, args, sats

    def value(self, z, tau=0.0):
        """Surrogate objective; ``tau > 0`` smooths the minimum from below
        (softmin), used by the continuation stages of the solver."""
        return self.evaluate(z, tau)[0]

    def value_and_grad(self, z, tau=0.0, branch_weights=None, with_hess=False):
        """Objective, (super)gradient, and optionally the diagonal Hessian
        magnitude, all in one pass.

        ``branch_weights`` overrides the per-stream convex weight on the
        first min branch; by default the weights come from the (soft)
        minimum itself: the active branch for ``tau == 0``, the softmin
        blend otherwise. Any weights in [0, 1] give a valid supergradient of
        the exact objective at kinks. Every term is a weighted log2 of an
        affine argument, so one rule (``_derivative``) gives the gradient
        (k = 1) and the Hessian diagonal magnitude (k = 2). The latter
        treats the branch weights as locally constant; it is a
        preconditioner, not an exact second derivative.
        """
        total, lam, args, sats = self.evaluate(z, tau, branch_weights)
        g = self._derivative(1, lam, args, sats)
        if with_hess:
            return total, g, self._derivative(2, lam, args, sats)
        return total, g

    def _derivative(self, k, lam, args, sats):
        """Magnitudes of the k-th derivatives of the objective along each
        coordinate (k = 1, 2), with branch weights ``lam``. A term
        ``weight * log2(arg)``, with ``arg`` affine in the coordinate at
        slope ``gain``, contributes ``weight * gain**k / (ln 2 * arg**k)``
        (``weight`` alone for the cross terms, whose gains ``c1`` enter
        through the matrix product); the linearized remainder adds
        ``-slope`` at k = 1 only."""
        # the identity at k = 1 keeps the gradient free of x**1 copies
        power = (lambda x: x) if k == 1 else (lambda x: x**k)
        c1, c1_diag, w2, g1p, g2s, g2p = self.gain_powers[k]
        den11, den12, den21, den22 = [LN2 * power(arg) for arg in args]
        den1p, den2s, den2p = [LN2 * power(sat) for sat in sats]
        mu, mu2 = self.mu[..., None], self.mu2[..., None]
        m, n_p1 = self.m, self.n_p1
        out = np.empty(den1p.shape[:-1] + (self.size,))
        if m:
            rest = 1.0 - lam
            # user 2's decoding point of stream l, in both p1s and p2s
            at2 = rest * w2 / den21
            # d/dp1s: branch 1 through arg11, branch 2 through arg21.
            out[..., :m] = mu * (lam * c1_diag / den11 + at2)
            # d/dp2s: cross terms through c1 rows, own terms through
            # arg22/arg21, minus the fixed linearization slope.
            back = lam / den11 + rest / den12
            cross = (c1.T @ back[..., None])[..., 0]
            shared = cross + (lam * w2 / den22 + at2)
            if k == 1:
                shared = shared - self.slope
            out[..., n_p1 : n_p1 + m] = mu * shared + mu2 * g2s / den2s
        out[..., m:n_p1] = mu * g1p / den1p
        out[..., n_p1 + m :] = mu2 * g2p / den2p
        return out

    def grad(self, z, branch_weights=None):
        return self.value_and_grad(z, branch_weights=branch_weights)[1]


def _residual(z, g, budget):
    """Norm of the projected-gradient step ``z - proj(z + g)``, per row."""
    return _norm(z - _project(z + g, None, budget))


def _ascent_stage(problem, z, budget, tau, iter_budget, rtol, gd_rtol):
    """Diagonally preconditioned projected-Newton ascent on the (smoothed)
    surrogate, every row of ``z`` in lockstep.

    The step target is the weighted projection of ``z + g/h``; the Armijo
    backtracking line search runs on the feasible segment toward it. Each
    iteration evaluates every running row, and a row stops only in an
    iteration that does not move it: its plain Euclidean projected-gradient
    residual is at most ``rtol * (1 + ||g||)`` (a hit), it has taken its
    ``iter_budget`` steps, its model ascent is below ``gd_rtol`` relative
    and the polish does not take it, or its line search fails. A stopped
    row drops out; every other row goes on exactly as it would alone.
    Updates ``z`` in place and returns per row the iterations used and the
    objective, residual and gradient norm of its last evaluation, which is
    at its returned point.
    """
    armijo_c = 1e-4
    used = np.zeros(len(z), dtype=int)
    last = np.empty((3, len(z)))  # objective, residual, gradient norm
    act = np.arange(len(z))
    sub, za, caps = problem, z.copy(), iter_budget
    # (record, g, residual) at za when the previous iteration computed them
    # there: every row took the same line-search step, or the polish.
    known = None
    it = 0
    while act.size:
        it += 1
        record, g, res = known or (sub.evaluate(za, tau), None, None)
        known = None
        f = record[0]
        if g is None:
            g = sub._derivative(1, *record[1:])
            res = _residual(za, g, budget)
        gnorm = _norm(g)
        stop = (res <= rtol * (1.0 + gnorm)) | (it > caps)
        if np.count_nonzero(stop) < act.size:
            # Guard tiny curvatures so the Newton target stays finite and a
            # zero-gradient coordinate never moves.
            h = sub._derivative(2, *record[1:])
            h = np.maximum(h, np.abs(g) / (100.0 * (budget + 1.0)))
            h = np.maximum(h, 1e-300)
            target = _project(za + g / h, h, budget)
            start, d = za, target - za
            gd = np.vecdot(g, d)
            scale = 1.0 + np.abs(f)
            flat = ~stop & (gd <= gd_rtol * scale)
            if np.count_nonzero(flat):
                # Objective-flat but possibly not stationary: the full step
                # can still shrink the gradient mapping, so polish on the
                # residual.
                polish = sub.evaluate(target, tau)
                gt = sub._derivative(1, *polish[1:])
                rt = _residual(target, gt, budget)
                moved = flat & (rt < res) & (polish[0] >= f - 1e-12 * scale)
                if np.count_nonzero(moved) == len(moved):
                    za, known = target, (polish, gt, rt)
                else:
                    za = np.where(moved[:, None], target, za)
                stop |= flat & ~moved
            # The objective is a short sum of logs, so its evaluation noise
            # sits around 1e-14 relative; without this allowance the line
            # search rejects genuine late-stage Newton steps.
            noise = 1e-13 * scale
            pending = ~(stop | flat)
            t = 1.0
            while np.count_nonzero(pending):
                if t < 1e-18:
                    stop |= pending
                    break
                zt = start + t * d  # feasible: segment between feasible points
                trial = sub.evaluate(zt, tau)
                ok = pending & (trial[0] >= f + armijo_c * t * gd - noise)
                if np.count_nonzero(ok) == len(ok):
                    za, known = zt, (trial, None, None)
                else:
                    za = np.where(ok[:, None], zt, za)
                pending ^= ok
                t *= 0.5
        if np.count_nonzero(stop):
            # a stopped row did not move: za, f, res and gnorm are one point
            done = act[stop]
            used[done] = np.minimum(it, caps[stop])
            for out, value in zip((z, *last), (za, f, res, gnorm)):
                out[done] = value[stop]
            if stop.all():
                break
            keep = np.flatnonzero(~stop)
            act, za, caps = act[keep], za[keep], caps[keep]
            sub = sub.take(keep)
    return used, *last


# Softmin smoothing levels; the solver walks them in order and finishes on
# the exact objective (0.0 disables the smoothing).
_TAU_STAGES = (1e-2, 1e-4, 1e-6, 1e-9, 0.0)


def _maximize(problem, z, budget, settings):
    """Every row of ``problem`` maximized from the feasible rows of ``z``
    (see :func:`maximize_surrogate`), in lockstep stage by stage. Returns
    the final rows and one :class:`InnerSolveResult` per row, read off the
    exact stage's last evaluation of that row."""
    z = z.copy()
    iterations = np.zeros(len(z), dtype=int)
    for tau in _TAU_STAGES if problem.m else (0.0,):
        stage_budget = settings.inner_max_iters - iterations
        if tau > 0.0:
            softmin_cap = max(50, settings.inner_max_iters // 20)
            stage_budget = np.minimum(stage_budget, softmin_cap)
        # Looser at coarse smoothing; exactly RESIDUAL_RTOL and 1e-15 at 0.
        stage_rtol = max(tau**0.25 * 1e-2, RESIDUAL_RTOL)
        gd_rtol = max(tau * 1e-3, 1e-15)
        used, f, res, gnorm = _ascent_stage(
            problem, z, budget, tau, stage_budget, stage_rtol, gd_rtol
        )
        iterations += used
    converged = res <= RESIDUAL_RTOL * (1.0 + gnorm)
    return z, [
        InnerSolveResult(
            value=float(f[b]),
            iterations=int(iterations[b]),
            converged=bool(converged[b]),
            residual=float(res[b]),
            grad_norm=float(gnorm[b]),
        )
        for b in range(len(z))
    ]


def maximize_surrogate(anchor, dec, cfg, mu, settings=None, warm_start=None):
    """Solve the concave surrogate problem for a fixed anchor.

    Projected gradient ascent with backtracking (Armijo, halving steps), a
    diagonal curvature preconditioner (water-filling-type objectives
    condition far too badly for unit-metric steps) and the exact
    sorting-based projection onto the power budget in that metric. The
    minimum over decoding points is nonsmooth, so the solver runs a softmin
    continuation (decreasing smoothing levels) before finishing on the exact
    objective. A stage stops only in an iteration that leaves the point
    where it is, so the result is the exact stage's last evaluation, and
    optimality is certified by the test it stops on: the projected-gradient
    residual of the active-branch supergradient at the returned point, at
    most ``RESIDUAL_RTOL * (1 + ||g||)``. This is the one-row case of the
    lockstep solve :func:`ccp_allocate_weights` runs.

    Returns
    -------
    (PowerAllocation, InnerSolveResult)
        Best allocation found; the result flags non-convergence if the
        iteration cap was exhausted before the residual certificate held.
    """
    if settings is None:
        settings = SolverSettings()
    problem = _SurrogateProblem(dec, cfg, [mu], [anchor])
    if warm_start is None:
        z = np.zeros((1, problem.size))
    else:
        z = project_power_budget(problem.pack(warm_start)[None], cfg.power_budget)
    z, (result,) = _maximize(problem, z, cfg.power_budget, settings)
    return problem.unpack(z[0]), result


def _constraint_forms_agree(dec, alloc):
    """The trace form of the power constraint coincides with the plain power
    sum because the precoder columns are unit norm; checked once per
    returned allocation, to 1e-9 relative."""
    per_stream = alloc.p1 + alloc.p2
    col_energy = np.sum(np.abs(dec.x_mat) ** 2, axis=0)
    trace_form = float(col_energy @ per_stream)
    plain = float(per_stream.sum())
    return abs(trace_form - plain) <= 1e-9 * max(1.0, plain)


def ccp_allocate_weights(dec, cfg, mus, settings=None):
    """Run the CCP outer loop for every rate weight in ``mus`` on one
    decomposition, all weights in lockstep.

    Each weight's run starts from a zero anchor, repeatedly maximizes the
    surrogate, and re-anchors at the new user-2 shared powers until no
    power moves by more than ``ccp_tol`` watts or the iteration cap is
    reached. The recorded objective trace holds the true weighted sum rate,
    not the surrogate. The weights share the link's gains and every numpy
    call of an outer iteration and of a solver stage; a weight whose run
    stops drops out, and every row is bit for bit the run it would be
    alone (:func:`ccp_allocate`).

    Returns
    -------
    list of (PowerAllocation, CcpState)
        One per weight, in the order of ``mus``.
    """
    if settings is None:
        settings = SolverSettings()
    mus = np.asarray(mus, dtype=float)
    if not np.all((mus >= 0.0) & (mus <= 1.0)):
        raise ValueError("mu must lie in [0, 1]")
    rows = len(mus)
    budget = cfg.power_budget
    problem = _SurrogateProblem(dec, cfg, mus, np.zeros((rows, dec.dims.shared)))
    m, n_p1 = problem.m, problem.n_p1
    # Each row's previous allocation: the warm start and the stopping
    # reference (zeros before the first solve, which cannot stop the loop).
    z = np.zeros((rows, problem.size))
    iterations = np.zeros(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    traces = [[] for _ in range(rows)]
    inner_results = [[] for _ in range(rows)]
    act = np.arange(rows)
    for it in range(1, settings.ccp_max_iters + 1):
        prev = z[act]
        new, inner = _maximize(
            problem, project_power_budget(prev, budget), budget, settings
        )
        rates = problem.weighted_sum_rate(*problem.powers(new), problem.mu)
        for b, result, rate in zip(act, inner, rates):
            inner_results[b].append(result)
            traces[b].append(float(rate))
        z[act] = new
        iterations[act] = it
        done = np.max(np.abs(new - prev), axis=1, initial=0.0) < settings.ccp_tol
        if it == 1:
            done[:] = False
        converged[act[done]] = True
        keep = np.flatnonzero(~done)
        act = act[keep]
        if not act.size or it == settings.ccp_max_iters:
            break
        problem = problem.reanchored(problem.mu[keep], new[keep, n_p1 : n_p1 + m])

    out = []
    for b in range(rows):
        alloc = problem.unpack(z[b])
        if not _constraint_forms_agree(dec, alloc):
            raise AssertionError(
                "trace and sum forms of the power constraint disagree; "
                "precoder columns are not unit norm"
            )
        state = CcpState(
            q=alloc.p2[:m].copy(),
            allocation=alloc,
            iterations=int(iterations[b]),
            objective_trace=np.array(traces[b]),
            converged=bool(converged[b]),
            inner_results=tuple(inner_results[b]),
        )
        out.append((alloc, state))
    return out


def ccp_allocate(dec, cfg, mu, settings=None):
    """Run the full CCP outer loop on one decomposition: the one-weight case
    of :func:`ccp_allocate_weights`.

    Returns
    -------
    (PowerAllocation, CcpState)
    """
    return ccp_allocate_weights(dec, cfg, [mu], settings)[0]

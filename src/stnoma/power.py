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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .rates import StreamGains, weighted_sum_rate
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
        if self.ccp_max_iters <= 0 or self.ccp_tol <= 0.0 or self.inner_max_iters <= 0:
            raise ValueError("all solver settings must be positive")


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


def _project(v, weights, budget):
    """Projection onto ``{x >= 0, sum(x) <= budget}`` in the diagonal metric
    ``weights``: minimizes ``sum(weights * (x - v)**2)``.

    The solution is ``max(0, v - theta / weights)`` for a multiplier
    ``theta >= 0``; coordinate i turns off at the breakpoint
    ``v_i * weights_i``. Sorting the breakpoints gives every candidate
    threshold at once (Duchi et al. 2008, in a diagonal metric); O(n log n).
    """
    x = np.maximum(v, 0.0)
    if x.sum() <= budget:
        return x
    breakpoints = v * weights
    order = np.argsort(breakpoints)[::-1]
    theta = (np.cumsum(v[order]) - budget) / np.cumsum(1.0 / weights[order])
    hits = np.nonzero(breakpoints[order] > theta)[0]
    # rounding can empty the set for budgets at the float resolution of the
    # entries; the single-coordinate threshold is then the right answer
    rho = hits[-1] if hits.size else 0
    return np.maximum(v - theta[rho] / weights, 0.0)


def project_power_budget(v, budget):
    """Euclidean projection onto ``{x >= 0, sum(x) <= budget}``: the
    solver's sorting-based projection at unit weights; O(n log n).
    """
    if budget < 0.0:
        raise ValueError("budget must be >= 0")
    v = np.asarray(v, dtype=float)
    return _project(v, np.ones_like(v), budget)


class _SurrogateProblem(StreamGains):
    """Vectorized value/gradient of the concave surrogate objective.

    Variables are packed as ``z = [p1 shared, p1 private1, p2 shared,
    p2 private2]``; the fixed-zero coordinates of the allocation never enter
    the solver. The coefficients are the link's :class:`StreamGains`.
    """

    def __init__(self, dec, cfg, mu, anchor):
        super().__init__(dec, cfg)
        d = self.dims
        self.mu = float(mu)
        m = d.shared
        self.m = m
        self.anchor = np.asarray(anchor, dtype=float)
        if self.anchor.shape != (m,):
            raise ValueError("anchor length must equal the shared stream count")
        if (self.anchor < 0.0).any():
            raise ValueError("anchor powers must be >= 0")

        _, arg12_q, _, arg22_q = self.shared_args(np.zeros(m), self.anchor)
        self.anchored = np.log2(arg12_q) + np.log2(arg22_q)
        # Full anchored jacobian of the concave remainders: row l linearizes
        # stream l's bound; the summed objective and gradient need only its
        # column sums.
        self.jac = self.c1 / (LN2 * arg12_q[:, None])
        self.jac[np.diag_indices(m)] += self.w2 / (LN2 * arg22_q)
        self.slope = self.jac.sum(axis=0)

        self.n_p1 = m + d.private1
        self.size = self.n_p1 + m + d.private2

    def unpack(self, z):
        """Solver vector -> PowerAllocation with the zero support restored."""
        d = self.dims
        m = self.m
        p1 = np.zeros(d.total)
        p2 = np.zeros(d.total)
        p1[: self.n_p1] = z[: self.n_p1]
        p2[:m] = z[self.n_p1 : self.n_p1 + m]
        p2[m + d.private1 :] = z[self.n_p1 + m :]
        return PowerAllocation(p1, p2)

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
        p1s = z[:m]
        p1p = z[m : self.n_p1]
        p2s = z[self.n_p1 : self.n_p1 + m]
        p2p = z[self.n_p1 + m :]
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

    def _total(self, p1p, p2s, p2p, b1, b2, tau):
        """The objective from the branches: the weighted (soft) minima less
        the summed linearization, then the interference-free rates of user
        2's shared and both users' private streams."""
        under = (
            self._softmin(b1, b2, tau)
            - self.anchored
            - self.slope * (p2s - self.anchor)
        )
        total = self.mu * under.sum()
        total += (1.0 - self.mu) * np.log2(1.0 + p2s * self.g2s).sum()
        total += self.mu * np.log2(1.0 + p1p * self.g1p).sum()
        total += (1.0 - self.mu) * np.log2(1.0 + p2p * self.g2p).sum()
        return float(total)

    def value(self, z, tau=0.0):
        """Surrogate objective; ``tau > 0`` smooths the minimum from below
        (softmin), used by the continuation stages of the solver."""
        p1s, p1p, p2s, p2p = self._parts(z)
        b1, b2 = self._branches(*self.shared_args(p1s, p2s))
        return self._total(p1p, p2s, p2p, b1, b2, tau)

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
        p1s, p1p, p2s, p2p = self._parts(z)
        args = self.shared_args(p1s, p2s)
        b1, b2 = self._branches(*args)
        total = self._total(p1p, p2s, p2p, b1, b2, tau)
        if branch_weights is None:
            lam = self._branch_weights(b1, b2, tau)
        else:
            lam = np.asarray(branch_weights, dtype=float)
        sats = (1.0 + p1p * self.g1p, 1.0 + p2s * self.g2s, 1.0 + p2p * self.g2p)
        g = self._derivative(1, lam, args, sats)
        if with_hess:
            return total, g, self._derivative(2, lam, args, sats)
        return total, g

    def _derivative(self, k, lam, args, sats):
        """Magnitudes of the k-th derivatives of the objective along each
        coordinate (k = 1, 2), with branch weights ``lam``. A term
        ``weight * log2(arg)``, with ``arg`` affine in the coordinate at
        slope ``gain``, contributes ``weight * gain**k / (ln 2 * arg**k)``;
        the linearized remainder adds ``-slope`` at k = 1 only."""
        # the identity at k = 1 keeps the gradient free of x**1 copies
        power = (lambda x: x) if k == 1 else (lambda x: x**k)

        def term(weight, arg, gain=None):
            num = weight if gain is None else weight * power(gain)
            return num / (LN2 * power(arg))

        arg11, arg12, arg21, arg22 = args
        sat1p, sat2s, sat2p = sats
        mu, m, n_p1 = self.mu, self.m, self.n_p1
        out = np.empty(self.size)
        if m:
            rest = 1.0 - lam
            # d/dp1s: branch 1 through arg11, branch 2 through arg21.
            out[:m] = mu * (term(lam, arg11, self.c1_diag) + term(rest, arg21, self.w2))
            # d/dp2s: cross terms through c1 rows, own terms through
            # arg22/arg21, minus the fixed linearization slope.
            cross = power(self.c1).T @ (term(lam, arg11) + term(rest, arg12))
            shared = cross + (term(lam, arg22, self.w2) + term(rest, arg21, self.w2))
            if k == 1:
                shared = shared - self.slope
            out[n_p1 : n_p1 + m] = mu * shared + term(1.0 - mu, sat2s, self.g2s)
        out[m:n_p1] = term(mu, sat1p, self.g1p)
        out[n_p1 + m :] = term(1.0 - mu, sat2p, self.g2p)
        return out

    def grad(self, z, branch_weights=None):
        return self.value_and_grad(z, branch_weights=branch_weights)[1]


def _residual(z, g, budget):
    return float(np.linalg.norm(z - project_power_budget(z + g, budget)))


def _ascent_stage(problem, z, budget, tau, iter_budget, rtol, gd_rtol):
    """Diagonally preconditioned projected-Newton ascent on the (smoothed)
    surrogate.

    The step target is the weighted projection of ``z + g/h``; the Armijo
    backtracking line search runs on the feasible segment toward it. The
    stage stops once the plain Euclidean projected-gradient residual is at
    most ``rtol * (1 + ||g||)``; ``gd_rtol`` bounds the relative model
    ascent below which it gives up instead. Returns ``(z, iterations_used)``.
    """
    armijo_c = 1e-4
    it = 0
    while it < iter_budget:
        it += 1
        f, g, h = problem.value_and_grad(z, tau, with_hess=True)
        res = _residual(z, g, budget)
        if res <= rtol * (1.0 + float(np.linalg.norm(g))):
            return z, it
        # Guard tiny curvatures so the Newton target stays finite and a
        # zero-gradient coordinate never moves.
        h = np.maximum(h, np.abs(g) / (100.0 * (budget + 1.0)))
        h = np.maximum(h, 1e-300)
        target = _project(z + g / h, h, budget)
        d = target - z
        gd = float(g @ d)
        if gd <= gd_rtol * (1.0 + abs(f)):
            # Objective-flat but possibly not stationary: the full step can
            # still shrink the gradient mapping, so polish on the residual.
            ft, gt = problem.value_and_grad(target, tau)
            if (
                _residual(target, gt, budget) < res
                and ft >= f - 1e-12 * (1.0 + abs(f))
            ):
                z = target
                continue
            return z, it
        t = 1.0
        # The objective is a short sum of logs, so its evaluation noise sits
        # around 1e-14 relative; without this allowance the line search
        # rejects genuine late-stage Newton steps.
        noise = 1e-13 * (1.0 + abs(f))
        while t >= 1e-18:
            zt = z + t * d  # feasible: segment between feasible points
            if problem.value(zt, tau) >= f + armijo_c * t * gd - noise:
                break
            t *= 0.5
        else:
            return z, it
        z = zt
    return z, it


# Softmin smoothing levels; the solver walks them in order and finishes on
# the exact objective (0.0 disables the smoothing).
_TAU_STAGES = (1e-2, 1e-4, 1e-6, 1e-9, 0.0)


def maximize_surrogate(anchor, dec, cfg, mu, settings=None, warm_start=None):
    """Solve the concave surrogate problem for a fixed anchor.

    Projected gradient ascent with backtracking (Armijo, halving steps), a
    diagonal curvature preconditioner (water-filling-type objectives
    condition far too badly for unit-metric steps) and the exact
    sorting-based projection onto the power budget in that metric. The
    minimum over decoding points is nonsmooth, so the solver runs a softmin
    continuation (decreasing smoothing levels) before finishing on the exact
    objective. Optimality is certified by the test the exact stage stops on:
    the projected-gradient residual of the active-branch supergradient at
    the returned point, at most ``RESIDUAL_RTOL * (1 + ||g||)``.

    Returns
    -------
    (PowerAllocation, InnerSolveResult)
        Best allocation found; the result flags non-convergence if the
        iteration cap was exhausted before the residual certificate held.
    """
    if settings is None:
        settings = SolverSettings()
    problem = _SurrogateProblem(dec, cfg, mu, anchor)
    budget = cfg.power_budget

    if warm_start is None:
        z = np.zeros(problem.size)
    else:
        z = project_power_budget(problem.pack(warm_start), budget)

    total_iters = 0
    remaining = settings.inner_max_iters
    stages = _TAU_STAGES if problem.m else (0.0,)
    for tau in stages:
        if remaining <= 0:
            break
        stage_budget = remaining
        if tau > 0.0:
            stage_budget = min(remaining, max(50, settings.inner_max_iters // 20))
        # Looser at coarse smoothing; exactly RESIDUAL_RTOL and 1e-15 at 0.
        stage_rtol = max(tau**0.25 * 1e-2, RESIDUAL_RTOL)
        gd_rtol = max(tau * 1e-3, 1e-15)
        z, used = _ascent_stage(
            problem, z, budget, tau, stage_budget, stage_rtol, gd_rtol
        )
        total_iters += used
        remaining -= used

    # The exact stage's own stopping test, at the returned point.
    f, g = problem.value_and_grad(z)
    res = _residual(z, g, budget)
    gnorm = float(np.linalg.norm(g))
    converged = res <= RESIDUAL_RTOL * (1.0 + gnorm)

    alloc = problem.unpack(z)
    return alloc, InnerSolveResult(
        value=f,
        iterations=total_iters,
        converged=converged,
        residual=res,
        grad_norm=gnorm,
    )


def _constraint_forms_agree(dec, alloc, rtol=1e-9):
    """The trace form of the power constraint coincides with the plain power
    sum because the precoder columns are unit norm; checked once per
    returned allocation."""
    per_stream = alloc.p1 + alloc.p2
    col_energy = np.sum(np.abs(dec.x_mat) ** 2, axis=0)
    trace_form = float(col_energy @ per_stream)
    plain = float(per_stream.sum())
    return abs(trace_form - plain) <= rtol * max(1.0, plain)


def ccp_allocate(dec, cfg, mu, settings=None):
    """Run the full CCP outer loop on one decomposition.

    Starts from a zero anchor, repeatedly maximizes the surrogate, and
    re-anchors at the new user-2 shared powers until no power moves by more
    than ``ccp_tol`` watts or the iteration cap is reached. The recorded
    objective trace holds the true weighted sum rate, not the surrogate.

    Returns
    -------
    (PowerAllocation, CcpState)
    """
    if settings is None:
        settings = SolverSettings()
    d = dec.dims
    q = np.zeros(d.shared)
    # The previous allocation: the warm start and the stopping reference.
    # None at the start: the first solve starts cold and cannot stop the loop.
    prev = None
    trace = []
    inner_results = []
    converged = False
    iterations = 0
    alloc = PowerAllocation.zeros(d)
    for iterations in range(1, settings.ccp_max_iters + 1):
        alloc, inner = maximize_surrogate(
            q, dec, cfg, mu, settings=settings, warm_start=prev
        )
        inner_results.append(inner)
        trace.append(weighted_sum_rate(alloc, dec, cfg, mu))
        q = alloc.p2[: d.shared].copy()
        if prev is not None:
            delta = max(
                np.max(np.abs(alloc.p1 - prev.p1), initial=0.0),
                np.max(np.abs(alloc.p2 - prev.p2), initial=0.0),
            )
            if delta < settings.ccp_tol:
                converged = True
                break
        prev = alloc

    if not _constraint_forms_agree(dec, alloc):
        raise AssertionError(
            "trace and sum forms of the power constraint disagree; "
            "precoder columns are not unit norm"
        )
    state = CcpState(
        q=q,
        allocation=alloc,
        iterations=iterations,
        objective_trace=np.array(trace),
        converged=converged,
        inner_results=tuple(inner_results),
    )
    return alloc, state

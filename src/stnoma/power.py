"""Power allocation by the convex-concave procedure (CCP).

The weighted-sum-rate problem is nonconvex only through the shared-stream
rates of user 1. Each of those is a difference of concave terms, so the
min-of-differences is shifted into a concave minimum plus a concave
remainder, and the remainder is linearized around an anchor point ``q`` (the
previous iterate's user-2 shared powers). The resulting surrogate is concave
and is maximized over the power budget by projected gradient ascent with an
Armijo line search and an exact sorting-based projection onto the capped
simplex. The outer loop re-anchors until the allocation stops moving.

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

from .rates import weighted_sum_rate
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


def dc_components(alloc, dec, cfg, l):
    """The four concave pieces of user 1's shared-stream rate ``l``.

    Returns ``(c11, c12, c21, c22)`` with the rate at user 1 equal to
    ``c11 - c12`` and the rate at user 2 equal to ``c21 - c22``.
    """
    d = dec.dims
    if not 0 <= l < d.shared:
        raise ValueError(f"stream {l} is not shared")
    sigma2 = cfg.noise_power
    c1row = np.abs(dec.r1[l, l : d.shared]) ** 2 / cfg.pathloss1
    i1 = float(alloc.p2[l : d.shared] @ c1row)
    s1 = alloc.p1[l] * c1row[0]
    w2 = abs(dec.r2[l, l]) ** 2 / cfg.pathloss2
    c11 = math.log2(sigma2 + i1 + s1)
    c12 = math.log2(sigma2 + i1)
    c21 = math.log2(sigma2 + alloc.p2[l] * w2 + alloc.p1[l] * w2)
    c22 = math.log2(sigma2 + alloc.p2[l] * w2)
    return c11, c12, c21, c22


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
    true rate.

    Parameters
    ----------
    alloc : PowerAllocation
        Evaluation point.
    anchor : (shared,) array_like
        Nonnegative anchor powers for user 2's shared streams.
    """
    d = dec.dims
    c11, c12, c21, c22 = dc_components(alloc, dec, cfg, l)
    sigma2 = cfg.noise_power
    anchor = np.asarray(anchor, dtype=float)
    c1row = np.abs(dec.r1[l, l : d.shared]) ** 2 / cfg.pathloss1
    w2 = abs(dec.r2[l, l]) ** 2 / cfg.pathloss2
    arg12_q = sigma2 + float(anchor[l:] @ c1row)
    arg22_q = sigma2 + anchor[l] * w2
    anchored = math.log2(arg12_q) + math.log2(arg22_q)
    delta = alloc.p2[l : d.shared] - anchor[l:]
    shift = float(c1row @ delta) / (LN2 * arg12_q)
    shift += w2 * (alloc.p2[l] - anchor[l]) / (LN2 * arg22_q)
    return min(c11 + c22, c21 + c12) - anchored - shift


def project_power_budget(v, budget):
    """Euclidean projection onto ``{x >= 0, sum(x) <= budget}``.

    Uses the sorting-based simplex projection when the budget constraint is
    active; O(n log n).
    """
    if budget < 0.0:
        raise ValueError("budget must be >= 0")
    v = np.asarray(v, dtype=float)
    if budget == 0.0:
        return np.zeros_like(v)
    y = np.maximum(v, 0.0)
    if y.sum() <= budget:
        return y
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - budget
    j = np.arange(1, v.size + 1)
    hits = np.nonzero(u - excess / j > 0.0)[0]
    # rounding can empty the set for budgets at the float resolution of the
    # entries; the single-coordinate threshold is then the right answer
    rho = hits[-1] if hits.size else 0
    theta = excess[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


class _SurrogateProblem:
    """Vectorized value/gradient of the concave surrogate objective.

    Variables are packed as ``z = [p1 shared, p1 private1, p2 shared,
    p2 private2]``; the fixed-zero coordinates of the allocation never enter
    the solver.
    """

    def __init__(self, dec, cfg, mu, anchor):
        d = dec.dims
        self.dims = d
        self.mu = float(mu)
        self.sigma2 = cfg.noise_power
        m = d.shared
        self.m = m
        self.anchor = np.asarray(anchor, dtype=float)
        if self.anchor.shape != (m,):
            raise ValueError("anchor length must equal the shared stream count")
        if (self.anchor < 0.0).any():
            raise ValueError("anchor powers must be >= 0")

        # Interference coefficients of user 1's shared block (upper
        # triangular incl. diagonal; zeros elsewhere).
        self.c1 = np.zeros((m, m))
        for l in range(m):
            self.c1[l, l:] = np.abs(dec.r1[l, l:m]) ** 2 / cfg.pathloss1
        self.w2 = np.abs(np.diagonal(dec.r2)[:m]) ** 2 / cfg.pathloss2
        # Interference-free per-watt gains of the remaining streams.
        d1 = dec.diag1
        d2 = dec.diag2
        self.g1p = np.array(
            [d1[l] ** 2 / (cfg.pathloss1 * self.sigma2) for l in d.private1_indices()]
        )
        self.g2s = self.w2 / self.sigma2
        self.g2p = np.array(
            [
                d2[l - d.private1] ** 2 / (cfg.pathloss2 * self.sigma2)
                for l in d.private2_indices()
            ]
        )

        arg12_q = self.sigma2 + self.c1 @ self.anchor
        arg22_q = self.sigma2 + self.anchor * self.w2
        self.anchored = np.log2(arg12_q) + np.log2(arg22_q)
        # Full anchored jacobian of the concave remainders; only its column
        # sums enter the (summed) objective and gradient.
        jac = self.c1 / (LN2 * arg12_q[:, None]) if m else np.zeros((0, 0))
        if m:
            jac[np.arange(m), np.arange(m)] += self.w2 / (LN2 * arg22_q)
        self.slope = jac.sum(axis=0)

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

    def _branch_args(self, p1s, p2s):
        i1 = self.c1 @ p2s
        arg11 = self.sigma2 + i1 + p1s * np.diagonal(self.c1)
        arg12 = self.sigma2 + i1
        arg21 = self.sigma2 + (p1s + p2s) * self.w2
        arg22 = self.sigma2 + p2s * self.w2
        return arg11, arg12, arg21, arg22

    def branches(self, z):
        """The two concave min branches per shared stream."""
        p1s, _, p2s, _ = self._parts(z)
        arg11, arg12, arg21, arg22 = self._branch_args(p1s, p2s)
        b1 = np.log2(arg11) + np.log2(arg22)
        b2 = np.log2(arg21) + np.log2(arg12)
        return b1, b2

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

    def value(self, z, tau=0.0):
        """Surrogate objective; ``tau > 0`` smooths the minimum from below
        (softmin), used by the continuation stages of the solver."""
        p1s, p1p, p2s, p2p = self._parts(z)
        total = 0.0
        if self.m:
            b1, b2 = self.branches(z)
            under = (
                self._softmin(b1, b2, tau)
                - self.anchored
                - self.slope * (p2s - self.anchor)
            )
            total += self.mu * under.sum()
            total += (1.0 - self.mu) * np.log2(1.0 + p2s * self.g2s).sum()
        total += self.mu * np.log2(1.0 + p1p * self.g1p).sum()
        total += (1.0 - self.mu) * np.log2(1.0 + p2p * self.g2p).sum()
        return float(total)

    def value_and_grad(self, z, tau=0.0, branch_weights=None, with_hess=False):
        """Objective, (super)gradient, and optionally the diagonal Hessian
        magnitude, all in one pass.

        ``branch_weights`` overrides the per-stream convex weight on the
        first min branch; by default the weights come from the (soft)
        minimum itself: the active branch for ``tau == 0``, the softmin
        blend otherwise. Any weights in [0, 1] give a valid supergradient of
        the exact objective at kinks. The Hessian diagonal treats the branch
        weights as locally constant; it is a preconditioner, not an exact
        second derivative.
        """
        p1s, p1p, p2s, p2p = self._parts(z)
        g = np.empty_like(z)
        h = np.empty_like(z) if with_hess else None
        m = self.m
        total = 0.0
        if m:
            arg11, arg12, arg21, arg22 = self._branch_args(p1s, p2s)
            b1 = np.log2(arg11) + np.log2(arg22)
            b2 = np.log2(arg21) + np.log2(arg12)
            if branch_weights is None:
                lam = self._branch_weights(b1, b2, tau)
            else:
                lam = np.asarray(branch_weights, dtype=float)
            under = (
                self._softmin(b1, b2, tau)
                - self.anchored
                - self.slope * (p2s - self.anchor)
            )
            total += self.mu * under.sum()
            total += (1.0 - self.mu) * np.log2(1.0 + p2s * self.g2s).sum()

            diag_c1 = np.diagonal(self.c1)
            # d/dp1s: branch 1 through arg11, branch 2 through arg21.
            g[:m] = self.mu * (
                lam * diag_c1 / (LN2 * arg11) + (1.0 - lam) * self.w2 / (LN2 * arg21)
            )
            # d/dp2s: cross terms through c1 rows, own terms through
            # arg22/arg21, minus the fixed linearization slope.
            row_w = lam / (LN2 * arg11) + (1.0 - lam) / (LN2 * arg12)
            cross = self.c1.T @ row_w
            own = lam * self.w2 / (LN2 * arg22) + (1.0 - lam) * self.w2 / (LN2 * arg21)
            g2s = self.mu * (cross + own - self.slope)
            sat2s = 1.0 + p2s * self.g2s
            g2s += (1.0 - self.mu) * self.g2s / (LN2 * sat2s)
            g[self.n_p1 : self.n_p1 + m] = g2s
            if with_hess:
                h[:m] = self.mu * (
                    lam * diag_c1**2 / (LN2 * arg11**2)
                    + (1.0 - lam) * self.w2**2 / (LN2 * arg21**2)
                )
                row_h = lam / (LN2 * arg11**2) + (1.0 - lam) / (LN2 * arg12**2)
                cross_h = (self.c1**2).T @ row_h
                own_h = (
                    lam * self.w2**2 / (LN2 * arg22**2)
                    + (1.0 - lam) * self.w2**2 / (LN2 * arg21**2)
                )
                h[self.n_p1 : self.n_p1 + m] = self.mu * (cross_h + own_h) + (
                    1.0 - self.mu
                ) * self.g2s**2 / (LN2 * sat2s**2)
        sat1p = 1.0 + p1p * self.g1p
        sat2p = 1.0 + p2p * self.g2p
        total += self.mu * np.log2(sat1p).sum()
        total += (1.0 - self.mu) * np.log2(sat2p).sum()
        g[m : self.n_p1] = self.mu * self.g1p / (LN2 * sat1p)
        g[self.n_p1 + m :] = (1.0 - self.mu) * self.g2p / (LN2 * sat2p)
        if with_hess:
            h[m : self.n_p1] = self.mu * self.g1p**2 / (LN2 * sat1p**2)
            h[self.n_p1 + m :] = (1.0 - self.mu) * self.g2p**2 / (LN2 * sat2p**2)
            return float(total), g, h
        return float(total), g

    def grad(self, z, branch_weights=None):
        return self.value_and_grad(z, branch_weights=branch_weights)[1]


def _residual(z, g, budget):
    return float(np.linalg.norm(z - project_power_budget(z + g, budget)))


def _certificate(problem, z, budget, kink_rtol=1e-7):
    """Projected-gradient residual of a supergradient at ``z``.

    Off a kink the active branch gives the only supergradient. At a kink
    (both decoding branches of a shared stream tie) any branch weight in
    [0, 1] is valid; the branch with the smaller slope in that stream's
    user-1 power is taken. At zero user-1 power the weight moves only that
    slope, so this choice minimizes the residual exactly; at positive power
    the residual can only come out conservative. Returns ``(residual, grad)``.
    """
    lam = None
    if problem.m:
        b1, b2 = problem.branches(z)
        lam = problem._branch_weights(b1, b2, 0.0)
        kink = np.abs(b1 - b2) <= kink_rtol * (1.0 + np.abs(b1) + np.abs(b2))
        if kink.any():
            p1s, _, p2s, _ = problem._parts(z)
            arg11, _, arg21, _ = problem._branch_args(p1s, p2s)
            flatter1 = np.diagonal(problem.c1) / arg11 <= problem.w2 / arg21
            lam = np.where(kink, flatter1.astype(float), lam)
    g = problem.grad(z, lam)
    return _residual(z, g, budget), g


def _project_weighted(v, weights, budget):
    """Projection onto ``{x >= 0, sum(x) <= budget}`` in the diagonal metric
    ``weights``: minimizes ``sum(weights * (x - v)**2)``. Exact via a walk
    over the sorted multiplier breakpoints."""
    x = np.maximum(v, 0.0)
    if x.sum() <= budget:
        return x
    # x_i(theta) = max(0, v_i - theta / w_i); coordinate i turns off at
    # theta = v_i * w_i. Between breakpoints the active sum is linear.
    pos = v > 0.0
    bp = v[pos] * weights[pos]
    order = np.argsort(bp)[::-1]
    v_sorted = v[pos][order]
    inv_w = 1.0 / weights[pos][order]
    bp = bp[order]
    sum_v = np.cumsum(v_sorted)
    sum_inv = np.cumsum(inv_w)
    k = len(bp)
    for i in range(k):
        theta = (sum_v[i] - budget) / sum_inv[i]
        lower = bp[i + 1] if i + 1 < k else 0.0
        if lower <= theta <= bp[i]:
            return np.maximum(v - theta / weights, 0.0)
    theta = max((sum_v[-1] - budget) / sum_inv[-1], 0.0)
    return np.maximum(v - theta / weights, 0.0)


def _ascent_stage(problem, z, budget, tau, iter_budget, rtol, gd_rtol):
    """Diagonally preconditioned projected-Newton ascent on the (smoothed)
    surrogate.

    The step target is the weighted projection of ``z + g/h``; the Armijo
    backtracking line search runs on the feasible segment toward it. The
    convergence check stays the plain Euclidean projected-gradient residual;
    ``gd_rtol`` bounds the relative model ascent below which the stage gives
    up instead. Returns ``(z, f, iterations_used, hit)``.
    """
    armijo_c = 1e-4
    it = 0
    f = problem.value(z, tau)
    while it < iter_budget:
        it += 1
        f, g, h = problem.value_and_grad(z, tau, with_hess=True)
        res = _residual(z, g, budget)
        if res <= rtol * (1.0 + float(np.linalg.norm(g))):
            return z, f, it, True
        # Guard tiny curvatures so the Newton target stays finite and a
        # zero-gradient coordinate never moves.
        h = np.maximum(h, np.abs(g) / (100.0 * (budget + 1.0)))
        h = np.maximum(h, 1e-300)
        target = _project_weighted(z + g / h, h, budget)
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
                z, f = target, ft
                continue
            return z, f, it, False
        t = 1.0
        accepted = False
        ft = f
        # The objective is a short sum of logs, so its evaluation noise sits
        # around 1e-14 relative; without this allowance the line search
        # rejects genuine late-stage Newton steps.
        noise = 1e-13 * (1.0 + abs(f))
        while t >= 1e-18:
            zt = z + t * d  # feasible: segment between feasible points
            ft = problem.value(zt, tau)
            if ft >= f + armijo_c * t * gd - noise:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return z, f, it, False
        z, f = zt, ft
    return z, f, it, False


# Softmin smoothing levels; the solver walks them in order and finishes on
# the exact objective (0.0 disables the smoothing).
_TAU_STAGES = (1e-2, 1e-4, 1e-6, 1e-9, 0.0)


def maximize_surrogate(anchor, dec, cfg, mu, settings=None, warm_start=None):
    """Solve the concave surrogate problem for a fixed anchor.

    Projected gradient ascent with backtracking (Armijo, halving steps),
    exact sorting-based projection onto the power budget, and a diagonal
    curvature preconditioner (water-filling-type objectives condition far
    too badly for unit-metric steps). The minimum over decoding points is
    nonsmooth, so the solver runs a softmin continuation (decreasing
    smoothing levels) before finishing on the exact objective. Optimality is
    certified by the projected-gradient residual of one supergradient at the
    returned point; at a kink it takes the branch with the smaller slope in
    that stream's user-1 power (see ``_certificate``).

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
        if tau > 0.0:
            stage_budget = min(remaining, max(50, settings.inner_max_iters // 20))
            stage_rtol = max(tau**0.25 * 1e-2, RESIDUAL_RTOL)
            gd_rtol = max(tau * 1e-3, 1e-15)
        else:
            stage_budget = remaining
            stage_rtol = RESIDUAL_RTOL
            gd_rtol = 1e-15
        z, _, used, hit = _ascent_stage(
            problem, z, budget, tau, stage_budget, stage_rtol, gd_rtol
        )
        total_iters += used
        remaining -= used
        if tau == 0.0 and hit:
            break

    f = problem.value(z)
    res, g = _certificate(problem, z, budget)
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
    prev = None  # sentinel start: forces at least one iteration
    warm = None
    trace = []
    inner_results = []
    converged = False
    iterations = 0
    alloc = PowerAllocation.zeros(d)
    for iterations in range(1, settings.ccp_max_iters + 1):
        alloc, inner = maximize_surrogate(
            q, dec, cfg, mu, settings=settings, warm_start=warm
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
                prev = alloc
                converged = True
                break
        prev = alloc
        warm = alloc

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

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

Every routine works on rows. ``ccp_allocate_draws`` runs every rate weight
on every channel draw in lockstep, one row per (draw, weight) pair: each row
carries its own draw's gains, the rows share each numpy call of a step, and
every row is bit for bit the run it would be alone; it returns one
:class:`CcpRecord` of arrays. A row whose outer loop stops drops out at
once. A row that stops within a solver stage is recorded at once but parked
in the stage's arrays, at its own point, until a few dozen have stopped
(``_PARK_ROWS``), so that the stage takes its running rows out of every
array once, not at every stop. ``ccp_allocate`` (one row) and
``maximize_surrogate`` (one surrogate) are its special cases. The solvers
work in units of the power budget (:func:`_per_budget`), so their
tolerances mean the same at any budget.

On these problem sizes a solver step costs what its numpy calls cost, so an
evaluation packs every log2 argument of the objective into one array
(:meth:`_SurrogateProblem.point`, over the one array of interference-free
gains of :class:`StreamGains`) and takes one ``log2`` of it, and a
derivative one power of it; the value is two row dot products, with the
linearization's constant kept per row, and the projection's threshold one
maximum over the sorted prefixes. The surrogate's per-row arrays (the gains
and their squares, the weights and the interference-free numerators, the
anchor terms) are one table, formed once and taken by rows together. One
evaluation serves a step's polish and its full line-search step. A row
carries the evaluation of the line-search trial or polish step it accepted
into its next iteration, so rows that took different step sizes are not
evaluated again; when every row that goes on was polished or took the full
step, the polish's gradient and residual are carried too.

A solve of one row (every solve of ``ccp_allocate`` and
``maximize_surrogate``, and of a lockstep run's outer iterations once one
row is left) takes a path of its own, chosen by the row count alone:
:func:`_maximize_row` runs its whole softmin ladder in one routine, with the
same numpy calls on its ``(1, n)`` arrays, the row's decisions taken as
float comparisons, and none of the lockstep's row masks, merges and drops.
Each stage hands the next, in local variables, its last point, branches
and derivation. The next stage starts at the same point and reuses the
gradient, its norm and the residual when its branch weights come out the
same bit for bit; otherwise it derives them from the weights it just
computed. Its value at its own smoothing level, taken from those branches,
is lazy: only a step reads it, and only the exact stage returns it, so a
stage that stops on its first test never takes it. A lockstep stage of
several rows carries nothing to the next.

The outer loop's true-rate pass at the new powers forms the
noise-plus-interference sums of the shared streams
(:meth:`StreamGains.shared_args`); at user 2's shared powers, the next
anchor, they are the sums the re-anchored surrogate needs, so it takes them
from there. Row drops are booked only when a row stopped and another
iteration follows.
"""

import copy
import functools
import math
import numbers

import numpy as np

from .rates import StreamGains
from .rates import weighted_sum_rate  # noqa: F401  bench/tracing.py patches it here
from .system import Record, SystemConfig
from .transceiver import PowerAllocation

__all__ = [
    "SolverSettings",
    "CcpState",
    "CcpRecord",
    "InnerSolveResult",
    "rate_underestimator",
    "rates_and_underestimators",
    "project_power_budget",
    "maximize_surrogate",
    "ccp_allocate",
    "ccp_allocate_draws",
]

LN2 = math.log(2.0)

# The scalars of a solver step's array arithmetic, as 0-d arrays: numpy
# converts a Python float operand on every call, which on these short rows
# costs about half as much again as the operation. The bits are the same.
_ZERO, _ONE, _LN2 = np.array(0.0), np.array(1.0), np.array(LN2)

# Projected-gradient residual certificate: ||z - proj(z + g)|| must not
# exceed RESIDUAL_RTOL * (1 + ||g||) at return.
RESIDUAL_RTOL = 1e-6


class SolverSettings(Record):
    """Tolerances and iteration caps of both optimization loops. The outer
    loop stops once no power moves by ``ccp_tol`` of the budget or more."""

    __slots__ = ("ccp_max_iters", "ccp_tol", "inner_max_iters")
    _defaults = {"ccp_max_iters": 10, "ccp_tol": 1e-4, "inner_max_iters": 10000}

    def __post_init__(self):
        caps = (self.ccp_max_iters, self.inner_max_iters)
        if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in caps):
            raise ValueError("iteration caps must be integers")
        # written so that a NaN tolerance fails
        if not (min(caps) > 0 and 0.0 < self.ccp_tol < math.inf):
            raise ValueError("all solver settings must be positive and finite")


class InnerSolveResult(Record):
    """Outcome of one surrogate maximization, or of rows of them with an
    array in each field. The residual and the gradient norm are in units of
    the power budget."""

    __slots__ = ("value", "iterations", "converged", "residual", "grad_norm")
    TYPES = (float, int, bool, float, float)  # of each field, in order


class CcpState(Record, frozen=False):
    """Trajectory of the outer loop; ``inner_results`` holds one
    :class:`InnerSolveResult` per outer iteration."""

    __slots__ = ("q", "allocation", "iterations", "objective_trace", "converged",
                 "inner_results")
    _defaults = {"inner_results": ()}

    def __post_init__(self):
        q = np.asarray(self.q)
        # written so that NaN fails
        if not ((q >= 0.0) & (q < math.inf)).all():
            raise ValueError("anchor powers must be finite and >= 0")
        if len(self.objective_trace) != self.iterations:
            raise ValueError("trace length must equal the iteration count")


class CcpRecord(Record):
    """Every row of one lockstep CCP run (:func:`ccp_allocate_draws`), as
    arrays whose leading axes are (draws, weights).

    ``p1`` and ``p2`` are the final powers, ``rates`` each user's rate sum
    at them (last axis: user 1, user 2), and ``iterations`` and
    ``converged`` the outer loop's. ``trace`` (the true weighted sum rate)
    and the arrays of ``inner`` have one entry per outer iteration, padded
    with zeros to ``ccp_max_iters`` past ``iterations``.
    """

    __slots__ = ("dims", "p1", "p2", "rates", "iterations", "converged", "trace", "inner")

    def allocation(self, d, i):
        """The final :class:`PowerAllocation` of weight ``i`` on draw ``d``."""
        return PowerAllocation(self.p1[d, i].copy(), self.p2[d, i].copy())

    def state(self, d, i):
        """The :class:`CcpState` of weight ``i`` on draw ``d``."""
        alloc = self.allocation(d, i)
        n = int(self.iterations[d, i])
        return CcpState(
            q=alloc.p2[: self.dims.shared].copy(),
            allocation=alloc,
            iterations=n,
            objective_trace=self.trace[d, i, :n].copy(),
            converged=bool(self.converged[d, i]),
            inner_results=tuple(InnerSolveResult(*r) for r in zip(
                *(a[d, i, :n].tolist() for a in self.inner.astuple()))),
        )


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
    if not 0 <= l < dec.dims.shared:
        raise ValueError(f"stream {l} is not shared")
    problem = _SurrogateProblem.over_draws([dec], cfg, 0, 1.0, anchor)
    return float(problem.bounds(dec.dims.pack(alloc.p1, alloc.p2))[l])


def rates_and_underestimators(allocs, anchors, decs, cfg):
    """User 1's per-stream rates and every shared-stream underestimator of
    rows of allocations: row ``i`` holds those of ``allocs[i]`` at the
    anchor ``anchors[i]`` on ``decs[i]``, bit for bit what
    :func:`~stnoma.rates.rate_user1` and :func:`rate_underestimator` give
    for it alone. The decompositions must share one stream layout.

    Returns
    -------
    (r1, bounds) : (rows, L) and (rows, shared) ndarrays
    """
    rows = np.arange(len(decs))
    problem = _SurrogateProblem.over_draws(decs, cfg, rows, np.ones(len(decs)), np.stack(anchors))
    z = problem.dims.pack(np.stack([a.p1 for a in allocs]), np.stack([a.p2 for a in allocs]))
    return problem.breakdown(z).r1, problem.bounds(z)


@functools.lru_cache(maxsize=64)
def _grid(rows, n):
    """Flat offsets of the rows of a (rows, n) array and the counts 1..n;
    read-only, as every caller shares them."""
    grid = n * np.arange(rows), np.arange(1.0, n + 1.0)
    for a in grid:
        a.flags.writeable = False
    return grid


def _project(v, weights, budget):
    """Projection onto ``{x >= 0, sum(x) <= budget}`` in the diagonal metric
    ``weights`` (``None``: unit weights): minimizes
    ``sum(weights * (x - v)**2)``, row by row for a 2-D ``v``.

    The solution is ``max(0, v - theta / weights)`` for a multiplier
    ``theta >= 0``; coordinate i turns off at the breakpoint
    ``v_i * weights_i``. Sorting the breakpoints in decreasing order gives
    every prefix threshold at once (Duchi et al. 2008, in a diagonal metric),
    and the threshold is the largest of them (Condat 2016); O(n log n). Rows
    already inside the budget are clipped, not projected: their threshold is
    0, and the clip keeps the bits of a row that sits on the budget boundary,
    which the prefix threshold can move by one rounding.
    """
    if v.ndim == 1:
        rows = None if weights is None else weights[None]
        return _project(v[None], rows, budget)[0]
    x = np.maximum(v, _ZERO)
    inside = np.add.reduce(x, axis=1) <= budget
    n_inside = np.count_nonzero(inside)
    if n_inside == len(v):
        return x
    starts, counts = _grid(*v.shape)
    # flat indices of each row's breakpoints (v * weights) in decreasing order
    order = (v if weights is None else v * weights).argsort(axis=1)[:, ::-1] + starts[:, None]
    theta = v.take(order).cumsum(axis=1) - budget
    # unit weights sum to the exact counts
    theta /= counts if weights is None else (1.0 / weights.take(order)).cumsum(axis=1)
    theta = np.maximum.reduce(theta, axis=1, keepdims=True)
    proj = np.maximum(v - (theta if weights is None else theta / weights), _ZERO)
    return np.where(inside[:, None], x, proj) if n_inside else proj


def project_power_budget(v, budget):
    """Euclidean projection onto ``{x >= 0, sum(x) <= budget}``: the
    solver's sorting-based projection at unit weights, row by row for a 2-D
    ``v``; O(n log n).
    """
    v = np.asarray(v, dtype=float)
    # written so that a NaN budget fails
    if not budget >= 0.0:
        raise ValueError("budget must be >= 0")
    if not np.isfinite(v).all():
        raise ValueError("entries must be finite")
    return _project(v, None, budget)


def _norm(x):
    """Euclidean norm of each row; the bits of ``np.linalg.norm`` per row."""
    return np.sqrt(np.vecdot(x, x))


class _SurrogateProblem(StreamGains):
    """Vectorized value and derivatives of the concave surrogate objective,
    one link, weight and anchor per row.

    Variables are packed by :meth:`StreamDims.pack`, ``z = [p1 shared, p1
    private1, p2 shared, p2 private2]``, so the allocation's fixed zeros
    never enter the solver. It is built one way, :meth:`over_draws`: row
    ``i`` carries the :class:`StreamGains` of ``decs[draw[i]]`` and its own
    ``mu`` and ``anchor`` (shapes ``rows`` and ``rows + (shared,)``); ``z``
    then carries the same leading axes, and each row computes exactly as it
    would alone. A scalar ``draw`` and ``mu`` give one row without a row
    axis. All per-row state is one table, ``_ROW_FIELDS``, formed once;
    :meth:`take` takes every entry.
    """

    # The per-row state, all of it, as one table; take() selects rows of each.
    _ROW_FIELDS = (*StreamGains.GAINS, "c1_sq", "c1_diag_sq", "w2_sq", "mu", "mu2", "free_mu",
                   "free_num", "free_num_sq", "anchor", "anchored", "jac", "slope", "offset")

    @classmethod
    def over_draws(cls, decs, cfg, draw, mu, anchor):
        """The surrogate whose row ``i`` lies on the link of
        ``decs[draw[i]]``, at weight ``mu[i]`` and anchor ``anchor[i]``."""
        self = cls(decs, cfg, draw)
        d = self.dims
        self.m, self.n_p1, self.size = d.shared, d.user1_streams, d.total + d.shared
        # the gains of the shared-stream terms of the second derivatives
        self.c1_sq, self.c1_diag_sq, self.w2_sq = self.c1**2, self.c1_diag**2, self.w2**2
        self.mu = np.asarray(mu, dtype=float)
        self.mu2 = 1.0 - self.mu  # user 2's weight
        # the weight of each interference-free stream, in the order of
        # ``free``, and its numerators in the first and second derivatives
        counts = [d.private1, self.m, d.private2]
        self.free_mu = np.repeat(np.stack([self.mu, self.mu2, self.mu2], -1), counts, -1)
        self.free_num = self.free_mu * self.free
        self.free_num_sq = self.free_mu * self.free**2
        self._anchor_rows(anchor)
        return self

    def _anchor_rows(self, anchor, sums=None):
        """Anchor every row at ``anchor``; ``sums`` are the ``arg12`` and
        ``arg22`` of :meth:`shared_args` at it, when the caller has them."""
        m = self.m
        self.anchor = np.asarray(anchor, dtype=float)
        if self.anchor.shape != self.mu.shape + (m,):
            raise ValueError("anchor length must equal the shared stream count")
        # one reduction, written so that NaN fails
        if not ((self.anchor >= 0.0) & (self.anchor < math.inf)).all():
            raise ValueError("anchor powers must be finite and >= 0")
        # neither sum reads p1s
        arg12_q, arg22_q = sums or self.shared_args(self.anchor, self.anchor)[1::2]
        self.anchored = np.log2(arg12_q) + np.log2(arg22_q)
        # Full anchored jacobian of the concave remainders: row l linearizes
        # stream l's bound; the summed objective and gradient need only its
        # column sums.
        self.jac = self.c1 / (LN2 * arg12_q[..., None])
        diag = np.arange(m)
        self.jac[..., diag, diag] += self.w2 / (LN2 * arg22_q)
        self.slope = self.jac.sum(axis=-2)
        # the constant of the summed linearization: sum(anchored - slope * anchor)
        self.offset = np.add.reduce(self.anchored, axis=-1) - np.vecdot(self.slope, self.anchor)

    def __copy__(self):
        # the attributes alone; copy.copy's generic reduce path costs more
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        return new

    def reanchored(self, anchor, sums=None):
        """The same rows' surrogate at other anchors, without rebuilding
        their gains; ``sums`` as for :meth:`_anchor_rows`."""
        new = copy.copy(self)
        new._anchor_rows(anchor, sums)
        return new

    def take(self, rows):
        """The surrogate of the rows at the indices ``rows`` (increasing)."""
        new = copy.copy(self)
        for name in self._ROW_FIELDS:
            setattr(new, name, getattr(self, name).take(rows, axis=0))
        return new

    def point(self, z):
        """The arguments of every log2 of the objective at ``z``, in one
        array: ``[arg11 | arg12 | arg21 | arg22 | free]``, the
        :meth:`StreamGains.shared_args`, then ``1 + p * free`` of the
        interference-free streams, whose powers are ``z[..., m:]``."""
        m, n_p1 = self.m, self.n_p1
        args = self.shared_args(z[..., :m], z[..., n_p1 : n_p1 + m])
        return np.concatenate([*args, _ONE + z[..., m:] * self.free], axis=-1)

    def bounds(self, z):
        """Per-stream concave lower bounds on user 1's shared-stream rates:
        the exact minimum less the linearized remainder, row by row."""
        _, b1, b2, _ = self.evaluate(z)
        p2s = z[..., self.n_p1 : self.n_p1 + self.m]
        linear = (self.jac @ (p2s - self.anchor)[..., None])[..., 0]
        return np.minimum(b1, b2) - self.anchored - linear

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

    def evaluate(self, z, tau=0.0):
        """``(f, b1, b2, point)``: the surrogate objective at ``z``, its two
        min branches, from which :meth:`_branch_weights` gives the weights
        its derivatives read, and the :meth:`point` those read. ``f`` is two
        row dot products: the interference-free rates (user 2's shared and
        both users' private streams) with their weights ``free_mu``, plus
        ``mu`` times the summed (soft) minima less the linearization
        (``slope`` dotted with user 2's shared powers, plus ``offset``).
        ``f`` is the only output whose rounding depends on that grouping;
        the branches and the point, which set the derivatives and so the
        iterates, keep their bits. Only the minima depend on ``tau``."""
        m = self.m
        point = self.point(z)
        logs = np.log2(point)
        b1 = logs[..., :m] + logs[..., 3 * m : 4 * m]
        b2 = logs[..., 2 * m : 3 * m] + logs[..., m : 2 * m]
        return self._value(z, logs, b1, b2, tau), b1, b2, point

    def _value(self, z, logs, b1, b2, tau):
        """The value :meth:`evaluate` gives at ``z`` from the ``log2`` of its
        point and its branches there; a stage that starts where the last one
        stopped takes its value at its own ``tau`` this way."""
        m = self.m
        p2s = z[..., self.n_p1 : self.n_p1 + m]
        under = np.add.reduce(self._softmin(b1, b2, tau), axis=-1)
        under -= np.vecdot(self.slope, p2s) + self.offset
        return np.vecdot(logs[..., 4 * m :], self.free_mu) + self.mu * under

    def _derivative(self, k, lam, point):
        """Magnitudes of the k-th derivatives of the objective along each
        coordinate (k = 1, 2), with branch weights ``lam`` on the first min
        branch, from the packed :meth:`point`. A term ``weight * log2(arg)``,
        with ``arg`` affine in the coordinate at slope ``gain``, contributes
        ``weight * gain**k / (ln 2 * arg**k)`` (``weight`` alone for the
        cross terms, whose gains ``c1`` enter through the matrix product);
        the linearized remainder adds ``-slope`` at k = 1 only.

        At k = 1 this is a supergradient of the exact objective for any
        weights in [0, 1], so also at a kink, where the branches tie. At
        k = 2 it treats the weights as constant, so it is a preconditioner,
        not an exact second derivative."""
        if k == 1:
            c1, c1_diag, w2, free_num = self.c1, self.c1_diag, self.w2, self.free_num
        else:
            c1, c1_diag, w2, free_num = self.c1_sq, self.c1_diag_sq, self.w2_sq, self.free_num_sq
        # the identity at k = 1 keeps the gradient free of x**1 copies
        den = _LN2 * (point if k == 1 else point**k)
        m, n_p1 = self.m, self.n_p1
        den11, den12 = den[..., :m], den[..., m : 2 * m]
        den21, den22 = den[..., 2 * m : 3 * m], den[..., 3 * m : 4 * m]
        out = np.empty(den.shape[:-1] + (self.size,))
        out[..., m:] = free_num / den[..., 4 * m :]
        if m:
            mu = self.mu[..., None]
            rest = _ONE - lam
            # user 2's decoding point of stream l, in both p1s and p2s
            at2 = rest * w2 / den21
            # d/dp1s: branch 1 through arg11, branch 2 through arg21.
            out[..., :m] = mu * (lam * c1_diag / den11 + at2)
            # d/dp2s: cross terms through c1 rows, own terms through
            # arg22/arg21, minus the fixed linearization slope, on top of
            # the interference-free term.
            back = lam / den11 + rest / den12
            cross = (c1.mT @ back[..., None])[..., 0]
            shared = cross + (lam * w2 / den22 + at2)
            if k == 1:
                shared -= self.slope
            out[..., n_p1 : n_p1 + m] += mu * shared
        return out


def _residual(z, g):
    """Norm of the projected-gradient step ``z - proj(z + g)`` onto the unit
    budget, per row."""
    return _norm(z - _project(z + g, None, _ONE))


def _carry(into, evaluation, rows):
    """``into`` with the rows ``rows`` (a mask) of ``evaluation`` copied in;
    ``evaluation`` itself when there is nothing yet to copy into."""
    if into is None:
        return evaluation
    for a, b in zip(into, evaluation):
        np.copyto(a, b, where=rows.reshape((-1,) + (1,) * (a.ndim - 1)))
    return into


def _derive(problem, z, b1, b2, point, tau):
    """``(lam, g, res)`` at ``z``, from the branches and point of its
    evaluation: the branch weights, the supergradient and the
    projected-gradient residual."""
    lam = problem._branch_weights(b1, b2, tau)
    g = problem._derivative(1, lam, point)
    return lam, g, _residual(z, g)


# The curvature guards of the Newton step, as 0-d arrays, as _ONE
_H_DIV, _H_MIN = np.array(200.0), np.array(1e-300)

# The line search: the Armijo constant, the allowance for evaluation noise
# and the polish's allowed drop in the objective (both relative to
# 1 + |f|), and the smallest step it tries.
_ARMIJO_C, _NOISE_RTOL, _POLISH_SLACK, _T_MIN = 1e-4, 1e-13, 1e-12, 1e-18

# A lockstep stage takes its running rows out of its arrays once this many
# of its rows have stopped: on a few dozen rows a numpy call costs about the
# same whatever its row count, and a take costs some twenty numpy calls.
_PARK_ROWS = 32


def _newton_step(problem, z, lam, g, point):
    """``(target, d, gd)``: the Newton target, the weighted projection of
    ``z + g/h`` in the curvature metric ``h``, the step ``d`` to it and the
    model ascent ``g . d``, per row."""
    # Guard tiny curvatures so the Newton target stays finite and a
    # zero-gradient coordinate never moves.
    h = problem._derivative(2, lam, point)
    h = np.maximum(h, np.abs(g) / _H_DIV)  # 100 * (budget + 1)
    h = np.maximum(h, _H_MIN)
    target = _project(z + g / h, h, _ONE)
    d = target - z
    return target, d, np.vecdot(g, d)


def _accepted(pending, stop, f, trial_f, bound, zt, start):
    """The rows of ``pending`` that pass the Armijo test ``trial_f >= bound``,
    taken out of ``pending``. A row whose trial point rounded back to its
    ``start`` passes only through the noise allowance: that null step fails
    its search instead, and the row joins ``stop``."""
    ok = pending & (trial_f >= bound)
    pending ^= ok
    same = ok & (trial_f == f)
    if np.count_nonzero(same):
        null = same & (zt == start).all(axis=1)
        ok ^= null
        stop |= null
    return ok


def _ascent_stage(problem, z, tau, iter_budget, rtol, gd_rtol):
    """Diagonally preconditioned projected-Newton ascent on the (smoothed)
    surrogate over the unit budget, every row of ``z`` in lockstep.

    The step target is the weighted projection of ``z + g/h``; the Armijo
    backtracking line search runs on the feasible segment toward it. A row
    whose model ascent is below ``gd_rtol`` relative is objective-flat and
    polishes: it moves to the target if that lowers its residual. One
    evaluation serves the polish and the full step t = 1, flat rows at the
    target and the others at the full step; backtracking from t = 1/2
    evaluates again. Each iteration evaluates every running row, and a row
    stops only in an iteration that does not move it: its plain Euclidean
    projected-gradient residual is at most ``rtol * (1 + ||g||)`` (a hit),
    it has taken its ``iter_budget`` steps, it is flat and the polish does
    not take it, or its line search fails (no trial passes, or one passes only
    by a null step, :func:`_accepted`). A stopped row goes into the results
    at once; every other row goes on exactly as it would alone. Updates
    ``z`` in place and returns per row the iterations used and the
    objective, residual and gradient norm of its last evaluation, which is
    at its returned point.

    A stopped row stays in the stage's arrays, parked, until ``_PARK_ROWS``
    of them have stopped; then one take drops them all. A parked row counts
    as stopped, and its step is zeroed and counted as taken, so it never
    moves, is never recorded again, and each iteration evaluates it at its
    own point (its first parked iteration may read the evaluation of a
    trial point, which only that zeroed step uses); the full step still
    rebinds ``za`` whole when every running row takes it.

    Every row count takes this path, one row too; :func:`_maximize` sends a
    one-row solve to :func:`_maximize_row` instead, which runs every stage
    with the same numpy calls and so gives the same bits.
    """
    used = np.zeros(len(z), dtype=int)
    last = np.empty((3, len(z)))  # objective, residual, gradient norm
    if not len(z):
        return used, *last
    # the stage's scalars as 0-d arrays, as _ONE: the two tolerances and the
    # line search's allowance for evaluation noise
    rtol, gd_rtol, noise_rtol = np.array(rtol), np.array(gd_rtol), np.array(_NOISE_RTOL)
    # the original index of each running row; za is only ever rebound, never
    # written, so it starts as z itself
    act = np.arange(len(z))
    sub, za, caps = problem, z, iter_budget
    # The evaluation at za when the previous iteration computed it there,
    # carried row by row from the line-search trial or the polish that moved
    # each row; and the polish's (branch weights, g, residual) when every row
    # that goes on sits where the polish evaluated it. And the rows parked in
    # the arrays since the last take, read only while n_parked counts them.
    ev = derived = parked = None
    n_parked = it = 0
    while True:
        it += 1
        f, b1, b2, point = ev or sub.evaluate(za, tau)
        lam, g, res = derived or _derive(sub, za, b1, b2, point, tau)
        ev = derived = None
        gnorm = _norm(g)
        stop = (res <= rtol * (_ONE + gnorm)) | (it > caps)
        if n_parked:
            stop |= parked
        if np.count_nonzero(stop) < len(stop):
            target, d, gd = _newton_step(sub, za, lam, g, point)
            if n_parked:
                d[parked] = 0.0  # a parked row takes a null step
            start = za
            scale = _ONE + np.abs(f)
            flat = ~stop & (gd <= gd_rtol * scale)
            # The objective is a short sum of logs, so its evaluation noise
            # sits around 1e-14 relative; without this allowance the line
            # search rejects genuine late-stage Newton steps.
            noise = noise_rtol * scale
            pending = ~(stop | flat)
            # One evaluation serves the polish and the full step t = 1:
            # objective-flat rows sit at the target, the others at start + d
            # (feasible: the segment between feasible points).
            t = 1.0
            zt = start + d
            n_flat = np.count_nonzero(flat)
            if n_flat:
                np.copyto(zt, target, where=flat[:, None])
            trial = sub.evaluate(zt, tau)
            ok = _accepted(pending, stop, f, trial[0], f + _ARMIJO_C * t * gd - noise, zt, start)
            if n_parked:
                ok |= parked
            if n_flat:
                # Objective-flat but possibly not stationary: the full step
                # can still shrink the gradient mapping, so polish on the
                # residual. Its derivation is the next iteration's when
                # every row that goes on sits at zt.
                derived = _derive(sub, zt, *trial[1:], tau)
                moved = flat & (derived[2] < res) & (trial[0] >= f - _POLISH_SLACK * scale)
                stop |= flat & ~moved
                ok |= moved
            while True:
                n_ok = np.count_nonzero(ok)
                if n_ok:
                    za = zt if n_ok == len(ok) else np.where(ok[:, None], zt, za)
                    ev = _carry(ev, trial, ok)
                    if t < 1.0:
                        derived = None
                if not np.count_nonzero(pending):
                    break
                t *= 0.5
                if t < _T_MIN:
                    stop |= pending
                    break
                zt = start + t * d
                trial = sub.evaluate(zt, tau)
                ok = _accepted(pending, stop, f, trial[0], f + _ARMIJO_C * t * gd - noise, zt,
                               start)
        n_stop = np.count_nonzero(stop)
        if n_stop == n_parked:
            continue
        # a row that stopped now did not move: za, f, res and gnorm are one
        # point
        new = stop ^ parked if n_parked else stop
        done = act[new]
        used[done] = np.minimum(it, caps[new])
        for out, value in zip((z, *last), (za, f, res, gnorm)):
            out[done] = value[new]
        if n_stop == len(stop):
            return used, *last
        if n_stop < _PARK_ROWS:
            parked, n_parked = stop, n_stop
            continue
        n_parked = 0
        keep = (~stop).nonzero()[0]
        act, za, caps = act[keep], za[keep], caps[keep]
        sub = sub.take(keep)
        # every row that goes on moved, so ev holds its evaluation, and
        # derived, when set, its derivation
        ev = ev and tuple(a[keep] for a in ev)
        derived = derived and tuple(a[keep] for a in derived)


# The solver's stages: softmin smoothing levels, walked in order to the
# exact objective (0.0 disables the smoothing), each with its residual and
# flatness tolerances, looser at coarse smoothing and exactly RESIDUAL_RTOL
# and 1e-15 at 0. A problem without shared streams has no minimum to smooth
# and runs the exact stage alone.
_STAGES = tuple((tau, max(tau**0.25 * 1e-2, RESIDUAL_RTOL), max(tau * 1e-3, 1e-15))
                for tau in (1e-2, 1e-4, 1e-6, 1e-9, 0.0))


def _maximize(problem, z, settings):
    """Every row of ``problem`` maximized over the unit budget from the
    feasible rows of ``z`` (see :func:`maximize_surrogate`), stage by stage;
    a softmin stage takes at most ``max(50, inner_max_iters // 20)``
    iterations, and all stages together ``inner_max_iters``. Returns the
    final rows and ``(value, iterations, converged, residual, grad_norm)``,
    arrays over the rows read off the exact stage's last evaluation of each
    row.

    The row count picks the path, once per solve: one row runs
    :func:`_maximize_row`, any other count runs each stage in lockstep
    (:func:`_ascent_stage`); both give the same bits."""
    if len(z) == 1:
        return _maximize_row(problem, z, settings)
    z = z.copy()
    iterations = np.zeros(len(z), dtype=int)
    softmin_cap = max(50, settings.inner_max_iters // 20)
    for tau, rtol, gd_rtol in _STAGES if problem.m else _STAGES[-1:]:
        budget = settings.inner_max_iters - iterations
        if tau:
            budget = np.minimum(budget, softmin_cap)
        used, f, res, gnorm = _ascent_stage(problem, z, tau, budget, rtol, gd_rtol)
        iterations += used
    return z, (f, iterations, res <= RESIDUAL_RTOL * (1.0 + gnorm), res, gnorm)


def _maximize_row(problem, z, settings):
    """:func:`_maximize` on one row: every stage of :func:`_ascent_stage`
    with the numpy calls the lockstep makes on the same ``(1, n)`` arrays,
    in the same order, and the row's stop, flatness, polish, Armijo and
    line-search decisions taken as float comparisons in the same
    association, so every output has the lockstep's bits. Nothing is
    masked, merged or dropped, and ``z`` is not written.

    Each stage after the first starts where the last one stopped, from the
    last one's final point, branches and derivation. It reuses the
    gradient, residual and gradient norm when its branch weights equal the
    last ones bit for bit (a signed zero does not pass), and otherwise
    derives them again from the weights it just computed, which gives the
    bits of a fresh start. Its value at its own ``tau``
    (:meth:`_SurrogateProblem._value`, from the same point and branches) is
    lazy: a stage takes it only when it takes a step, or when it is the
    exact stage whose value is returned, so a stage that stops on its first
    test takes none.
    """
    za, total = z, settings.inner_max_iters
    softmin_cap = max(50, total // 20)
    iterations = 0
    lam = None
    for tau, rtol, gd_rtol in _STAGES if problem.m else _STAGES[-1:]:
        cap = min(total - iterations, softmin_cap) if tau else total - iterations
        # the first stage evaluates; a later one takes its value when read
        f, b1, b2, point = problem.evaluate(za, tau) if lam is None else (None, b1, b2, point)
        weights = problem._branch_weights(b1, b2, tau)
        if lam is None or weights.tobytes() != lam.tobytes():
            lam, g = weights, problem._derivative(1, weights, point)
            res, gnorm = _residual(za, g), _norm(g)
        it = 0
        while True:
            it += 1
            rs = res.item()
            stop = rs <= rtol * (1.0 + gnorm.item()) or it > cap
            if f is None and not (stop and tau):  # read by a step, or returned
                f = problem._value(za, np.log2(point), b1, b2, tau)
            if stop:
                break
            fs = f.item()
            target, d, gd = _newton_step(problem, za, lam, g, point)
            gd, scale = gd.item(), 1.0 + abs(fs)
            if gd <= gd_rtol * scale:
                # objective-flat: the polish takes the target when that
                # lowers the residual, and its derivation is the next
                # iteration's
                ev = problem.evaluate(target, tau)
                derived = _derive(problem, target, *ev[1:], tau)
                if not (derived[2].item() < rs and ev[0].item() >= fs - _POLISH_SLACK * scale):
                    break
                za = target
            else:
                noise = _NOISE_RTOL * scale
                t, zt = 1.0, za + d
                while True:
                    ev = problem.evaluate(zt, tau)
                    ft = ev[0].item()
                    if ft >= fs + _ARMIJO_C * t * gd - noise:
                        if ft == fs and (zt == za).all():
                            t = 0.0  # a null step (see _accepted) fails the search
                        break
                    t *= 0.5
                    if t < _T_MIN:
                        break
                    zt = za + t * d
                if t < _T_MIN:  # the line search failed: the row stops where it is
                    break
                za, derived = zt, _derive(problem, zt, *ev[1:], tau)
            (f, b1, b2, point), (lam, g, res) = ev, derived
            gnorm = _norm(g)
        iterations += min(it, cap)
    return za, (f, np.array([iterations]), res <= RESIDUAL_RTOL * (1.0 + gnorm), res, gnorm)


def _per_budget(cfg):
    """``cfg`` with powers in units of its budget: a budget of 1 and the
    noise divided by the budget. Every rate is unchanged, and at a 1 W
    budget this is ``cfg`` to the bit."""
    return SystemConfig(cfg.n_bs, cfg.m1, cfg.m2, cfg.pathloss1, cfg.pathloss2, 1.0,
                        cfg.noise_power / cfg.power_budget)


def maximize_surrogate(anchor, dec, cfg, mu, settings=None):
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
    most ``RESIDUAL_RTOL * (1 + ||g||)`` in units of the budget. This is the
    one-row case of the lockstep solve :func:`ccp_allocate_draws` runs.

    Returns
    -------
    (PowerAllocation, InnerSolveResult)
        Best allocation found; the result flags non-convergence if the
        iteration cap was exhausted before the residual certificate held.
    """
    # written so that NaN fails
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    if settings is None:
        settings = SolverSettings()
    budget = cfg.power_budget
    anchor = [np.divide(anchor, budget)]
    problem = _SurrogateProblem.over_draws([dec], _per_budget(cfg), [0], [mu], anchor)
    z, result = _maximize(problem, np.zeros((1, problem.size)), settings)
    p1, p2 = problem.dims.unpack(z[0])
    return PowerAllocation(p1 * budget, p2 * budget), InnerSolveResult(*(a.item() for a in result))


def ccp_allocate_draws(decs, cfg, mus, settings=None):
    """Run the CCP outer loop for every rate weight in ``mus`` on every
    decomposition in ``decs``, all (draw, weight) rows in lockstep.

    Each row's run starts from a zero anchor, repeatedly maximizes the
    surrogate, and re-anchors at the new user-2 shared powers until no
    power moves by ``ccp_tol`` of the budget or more, or the iteration cap
    is reached. The surrogate is tight at the warm start and below the true
    objective, so the true objective can fall only when an inner solve,
    certified to its residual alone, ends below its start (at objectives
    near zero that can exceed 1e-9 of the objective); a row whose true
    objective falls by more than evaluation noise stops, converged, at its
    previous iterate, and the solve that fell is not recorded. The recorded
    objective trace holds the true weighted sum rate, not the surrogate,
    from the same rate sums the record's ``rates`` keep for the last
    iteration. Every row carries its own draw's gains and
    shares each numpy call of an outer iteration and of a solver stage; a
    row whose run stops drops out, and every row is bit for bit the run it
    would be alone (:func:`ccp_allocate`). The decompositions must share
    one stream layout.

    Returns
    -------
    CcpRecord
        Leading axes (draws, weights), in the order of ``decs`` and ``mus``.
    """
    if settings is None:
        settings = SolverSettings()
    mus = np.asarray(mus, dtype=float)
    if not np.all((mus >= 0.0) & (mus <= 1.0)):
        raise ValueError("mu must lie in [0, 1]")
    dims = decs[0].dims if decs else cfg.dims
    rows = len(decs) * len(mus)
    draw = np.repeat(np.arange(len(decs)), len(mus))
    padded = (rows, settings.ccp_max_iters)
    iterations = np.zeros(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    rates = np.zeros((rows, 2))
    trace = np.zeros(padded)
    inner = InnerSolveResult(*(np.zeros(padded, t) for t in InnerSolveResult.TYPES))
    p1 = p2 = np.zeros((rows, dims.total))
    if decs:
        problem = _SurrogateProblem.over_draws(
            decs, _per_budget(cfg), draw, np.tile(mus, len(decs)),
            np.zeros((rows, dims.shared)),
        )
        # z holds each row's last allocation, and prev each running row's
        # previous one: the warm start and the stopping reference (zeros
        # before the first solve, which cannot stop the loop).
        z = np.zeros((rows, problem.size))
        # the running rows: every row (a slice, which numpy reads and writes
        # faster) until one stops
        act, prev = slice(None), np.zeros_like(z)
        m, n_p1 = problem.m, problem.n_p1
        for it in range(1, settings.ccp_max_iters + 1):
            new, result = _maximize(problem, _project(prev, None, _ONE), settings)
            # the true rates; the noise-plus-interference sums of their
            # shared streams are the next anchor's
            args = problem.shared_args(new[:, :m], new[:, n_p1 : n_p1 + m])
            br = problem.breakdown(new, args)
            r1, r2 = br.r1.sum(axis=-1), br.r2.sum(axis=-1)
            f = problem.mu * r1 + problem.mu2 * r2
            if it > 1:
                # a row whose solve ended below its start stops at its last
                # iterate, before this one is recorded
                last = trace[act, it - 2]
                worse = f < last - _NOISE_RTOL * (_ONE + np.abs(last))
                if np.count_nonzero(worse):
                    act = np.arange(rows)[act]
                    converged[act[worse]] = True
                    keep = (~worse).nonzero()[0]
                    if not len(keep):
                        break
                    act, new, prev, problem = act[keep], new[keep], prev[keep], problem.take(keep)
                    f, r1, r2 = f[keep], r1[keep], r2[keep]
                    result, args = [a[keep] for a in result], [a[keep] for a in args]
            for a, value in zip(inner.astuple(), result):
                a[act, it - 1] = value
            rates[act, 0], rates[act, 1] = r1, r2
            trace[act, it - 1] = f
            z[act] = new
            iterations[act] = it
            done = np.maximum.reduce(np.abs(new - prev), axis=1, initial=0.0) < settings.ccp_tol
            n_done = np.count_nonzero(done) if it > 1 else 0
            if n_done:
                act = np.arange(rows)[act]
                converged[act[done]] = True
            if n_done == len(done) or it == settings.ccp_max_iters:
                break
            if n_done:
                keep = (~done).nonzero()[0]
                act, new, problem = act[keep], new[keep], problem.take(keep)
                args = [a[keep] for a in args]
            prev, problem = new, problem.reanchored(new[:, n_p1 : n_p1 + m].copy(), args[1::2])
        p1, p2 = dims.unpack(z)
        # The trace form of the power constraint is the plain power sum
        # because the precoder columns are unit norm; checked on every row,
        # to 1e-9 of its total power.
        per_stream = p1 + p2
        energy = np.stack([np.sum(np.abs(dec.x_mat) ** 2, axis=0) for dec in decs])
        plain = np.add.reduce(per_stream, axis=-1)
        trace_form = np.vecdot(per_stream, energy[draw])
        if not np.all(np.abs(trace_form - plain) <= 1e-9 * plain):
            raise AssertionError(
                "trace and sum forms of the power constraint disagree; "
                "precoder columns are not unit norm"
            )

    def by_draw(*arrays):
        return [a.reshape((len(decs), len(mus)) + a.shape[1:]) for a in arrays]

    budget = cfg.power_budget
    return CcpRecord(
        dims,
        *by_draw(p1 * budget, p2 * budget, rates, iterations, converged, trace),
        InnerSolveResult(*by_draw(*inner.astuple())),
    )


def ccp_allocate(dec, cfg, mu, settings=None):
    """Run the full CCP outer loop on one decomposition: the one-row case
    of :func:`ccp_allocate_draws`.

    Returns
    -------
    (PowerAllocation, CcpState)
    """
    state = ccp_allocate_draws([dec], cfg, [mu], settings).state(0, 0)
    return state.allocation, state

"""End-to-end signal path: superposition, precoding, reception, and
self-interference-cancellation decoding.

Decoding is genie-aided (previously decoded symbols are replaced by the true
ones), which matches the perfect-decoding assumption behind the rate model;
there is no constellation demapping. User 1 never needs estimates of user 2's
symbols, i.e. only user 2 performs SIC.
"""

import numpy as np

from .system import PRIVATE1, PRIVATE2, Record, StreamDims

__all__ = [
    "PowerAllocation",
    "CancelledSignals",
    "build_symbol_vector",
    "transmit",
    "receive_and_detect",
    "decode_user1",
    "decode_user2",
]


class PowerAllocation(Record, frozen=False):
    """Per-stream transmit powers (watts) of both users, length L each.

    The support pattern is fixed by stream ownership: user 2 gets zero power
    on user 1's private streams and vice versa.
    """

    __slots__ = ("p1", "p2")

    def __post_init__(self):
        self.p1 = np.asarray(self.p1, dtype=float)
        self.p2 = np.asarray(self.p2, dtype=float)
        if self.p1.shape != self.p2.shape or self.p1.ndim != 1:
            raise ValueError("p1 and p2 must be 1-D arrays of equal length")

    @classmethod
    def zeros(cls, dims: StreamDims):
        return cls(np.zeros(dims.total), np.zeros(dims.total))

    @property
    def total_power(self):
        return float(self.p1.sum() + self.p2.sum())

    def validate(self, dims: StreamDims, power_budget):
        """Raise ValueError on non-finite powers, and on negative powers,
        support-pattern violations or a power budget overshoot, each beyond
        1e-9 of the budget."""
        if self.p1.shape[0] != dims.total:
            raise ValueError("allocation length != stream count")
        total, tests = self._tests(self.p1, self.p2, dims, power_budget)
        for message, failing in tests:
            if failing.any():
                raise ValueError(message.format(
                    l=int(np.argmax(failing)), total=float(total[0]),
                    budget=power_budget,
                ))

    @staticmethod
    def passes(p1, p2, dims: StreamDims, power_budget):
        """Whether each row of the powers ``p1``, ``p2`` (last axis: the L
        streams) passes :meth:`validate`: its tests as one array test."""
        _, tests = PowerAllocation._tests(p1, p2, dims, power_budget)
        return ~np.concatenate([f for _, f in tests], axis=-1).any(axis=-1)

    @staticmethod
    def _tests(p1, p2, dims: StreamDims, power_budget):
        """The tests of :meth:`validate` on rows of powers (last axis: the L
        streams): the rows' totals, and, in the order that validate words
        them, ``(message, failing)`` pairs, where ``failing`` marks a row's
        failing streams, or the row itself in a last axis of length 1."""
        tol = 1e-9 * power_budget
        owner = np.array(dims.ownership, dtype=str)
        total = p1.sum(axis=-1, keepdims=True) + p2.sum(axis=-1, keepdims=True)
        return total, [
            # a NaN or infinite power makes the total non-finite; NaN would
            # pass every comparison below
            ("non-finite stream power", ~np.isfinite(total)),
            ("negative stream power", (p1 < -tol) | (p2 < -tol)),
            ("user 2 power on private1 stream {l}",
             (np.abs(p2) > tol) & (owner == PRIVATE1)),
            ("user 1 power on private2 stream {l}",
             (np.abs(p1) > tol) & (owner == PRIVATE2)),
            # written so that a NaN budget fails
            ("total power {total} exceeds budget {budget}",
             ~(total <= power_budget + tol)),
        ]


class CancelledSignals(Record):
    """Per-stream scalars left after self-interference cancellation."""

    __slots__ = ("user", "values")


def build_symbol_vector(s1, s2, alloc):
    """Superpose both users' unit-variance symbols with their powers:
    ``s[l] = sqrt(p1[l]) s1[l] + sqrt(p2[l]) s2[l]``."""
    return np.sqrt(alloc.p1) * np.asarray(s1) + np.sqrt(alloc.p2) * np.asarray(s2)


def transmit(x_mat, s):
    """Precode the symbol vector: transmit signal ``x = X s``."""
    return x_mat @ s


def receive_and_detect(h, pathloss, q, x, noise):
    """Propagate, add noise, and apply the unitary detector:
    ``y = q @ (h @ x / sqrt(pathloss) + noise)``."""
    return q @ (h @ x / np.sqrt(pathloss) + noise)


def _cancel(y, r, known):
    """Genie-aided self-interference cancellation: subtract from each row of
    ``y`` the streams decoded before it, the columns of the triangular
    factor ``r`` right of its diagonal, with their true amplitude-scaled
    symbols ``known`` (in the column order of ``r``)."""
    n = known.size
    return y[:n] - np.triu(r[:n, :n], 1) @ known


def decode_user1(y1, dec, alloc, pathloss, s1):
    """Self-interference cancellation at user 1.

    Private streams are decoded first (reverse order), then shared streams
    (reverse order). Only user 1's own previously decoded symbols are
    cancelled; the residual interference from user 2's shared symbols stays
    and is treated as noise. That decoding order is the rate model's; since
    the cancelled symbols are the true ones, no row waits on another row's
    result, and the cancellation is one triangular product.

    Parameters
    ----------
    y1 : (m1,) complex ndarray
        Detector output of user 1.
    dec : StDecomposition
    alloc : PowerAllocation
    pathloss : float
        Path loss of user 1.
    s1 : (L,) complex ndarray
        True symbols of user 1 (genie-aided cancellation).

    Returns
    -------
    CancelledSignals
        One scalar per stream decoded by user 1 (shared + private1).
    """
    n = dec.dims.user1_streams
    known = np.sqrt(alloc.p1[:n] / pathloss) * s1[:n]
    return CancelledSignals(user=1, values=_cancel(y1, dec.r1, known))


def decode_user2(y2, dec, alloc, pathloss, s1, s2):
    """SIC plus self-interference cancellation at user 2.

    Private streams are decoded first (reverse order), then shared streams,
    where both users' previously decoded symbols are cancelled; the same
    path loss (user 2's) scales every cancelled term. That decoding order is
    the rate model's; since the cancelled symbols are the true ones, no row
    waits on another row's result, and the cancellation is one triangular
    product over the columns of ``r2``.

    Parameters
    ----------
    y2 : (m2,) complex ndarray
    dec : StDecomposition
    alloc : PowerAllocation
    pathloss : float
        Path loss of user 2.
    s1, s2 : (L,) complex ndarrays
        True symbols of both users (user 2 performs SIC on user 1's shared
        symbols, so it needs both).

    Returns
    -------
    CancelledSignals
        One scalar per stream decoded by user 2 (shared + private2), indexed
        by row of ``r2``: row l of the private phase carries global stream
        ``l + private1``.
    """
    m, k = dec.dims.shared, dec.dims.user1_streams
    amp1 = np.sqrt(alloc.p1 / pathloss)
    amp2 = np.sqrt(alloc.p2 / pathloss)
    # the columns of r2: the shared streams, then the private2 streams
    known = np.concatenate([amp1[:m] * s1[:m] + amp2[:m] * s2[:m], amp2[k:] * s2[k:]])
    return CancelledSignals(user=2, values=_cancel(y2, dec.r2, known))

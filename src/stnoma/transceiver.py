"""End-to-end signal path: superposition, precoding, reception, and the
self-interference-cancellation decoding recursions.

Decoding is genie-aided (previously decoded symbols are replaced by the true
ones), which matches the perfect-decoding assumption behind the rate model;
there is no constellation demapping. User 1 never needs estimates of user 2's
symbols, i.e. only user 2 performs SIC.
"""

from dataclasses import dataclass

import numpy as np

from .system import StreamDims

__all__ = [
    "PowerAllocation",
    "CancelledSignals",
    "build_symbol_vector",
    "transmit",
    "receive_and_detect",
    "decode_user1",
    "decode_user2",
]


@dataclass
class PowerAllocation:
    """Per-stream transmit powers (watts) of both users, length L each.

    The support pattern is fixed by stream ownership: user 2 gets zero power
    on user 1's private streams and vice versa.
    """

    p1: np.ndarray
    p2: np.ndarray

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
        """Raise ValueError on negative powers, support-pattern violations,
        or a power budget overshoot, each beyond 1e-9 watts."""
        tol = 1e-9
        if self.p1.shape[0] != dims.total:
            raise ValueError("allocation length != stream count")
        if (self.p1 < -tol).any() or (self.p2 < -tol).any():
            raise ValueError("negative stream power")
        for l in dims.private1_indices():
            if abs(self.p2[l]) > tol:
                raise ValueError(f"user 2 power on private1 stream {l}")
        for l in dims.private2_indices():
            if abs(self.p1[l]) > tol:
                raise ValueError(f"user 1 power on private2 stream {l}")
        if self.total_power > power_budget + tol:
            raise ValueError(
                f"total power {self.total_power} exceeds budget {power_budget}"
            )


@dataclass(frozen=True)
class CancelledSignals:
    """Per-stream scalars left after self-interference cancellation."""

    user: int
    values: np.ndarray


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


def decode_user1(y1, dec, alloc, pathloss, s1):
    """Self-interference cancellation at user 1.

    Private streams are decoded first (reverse order), then shared streams
    (reverse order). Only user 1's own previously decoded symbols are
    cancelled; the residual interference from user 2's shared symbols stays
    and is treated as noise.

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
    r1 = dec.r1
    amp1 = np.sqrt(alloc.p1 / pathloss)
    n = dec.dims.user1_streams
    out = np.empty(n, dtype=complex)
    decoded = np.zeros(n, dtype=complex)

    # Private rows carry no inter-user interference; on shared rows only
    # own symbols are cancelled and user 2's contribution stays.
    for l in reversed(range(n)):
        out[l] = y1[l] - r1[l, l + 1 : n] @ decoded[l + 1 : n]
        decoded[l] = amp1[l] * s1[l]
    return CancelledSignals(user=1, values=out)


def decode_user2(y2, dec, alloc, pathloss, s1, s2):
    """SIC plus self-interference cancellation at user 2.

    Private streams (global indices shifted down by the private1 count) are
    decoded first, then shared streams, where both users' previously decoded
    symbols are cancelled; the same path loss (user 2's) scales every
    cancelled term.

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
    d = dec.dims
    r2 = dec.r2
    shift = d.private1  # global stream index -> row of r2 for private2
    n = d.user2_streams
    amp1 = np.sqrt(alloc.p1 / pathloss)
    amp2 = np.sqrt(alloc.p2 / pathloss)
    out = np.empty(n, dtype=complex)
    decoded = np.zeros(n, dtype=complex)

    # Private phase: rows shared..n-1 carry streams shared+private1..L-1.
    for row in reversed(range(d.shared, n)):
        g = row + shift
        out[row] = y2[row] - r2[row, row + 1 : n] @ decoded[row + 1 : n]
        decoded[row] = amp2[g] * s2[g]
    # Shared phase: cancel both users' decoded symbols (SIC at user 2).
    for l in reversed(range(d.shared)):
        out[l] = y2[l] - r2[l, l + 1 : n] @ decoded[l + 1 : n]
        decoded[l] = amp1[l] * s1[l] + amp2[l] * s2[l]
    return CancelledSignals(user=2, values=out)

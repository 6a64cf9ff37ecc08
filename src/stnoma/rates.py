"""Per-stream achievable rates of the triangularized NOMA link.

All rates are in bits per channel use. Rates use the squared magnitudes of
the triangular factors' entries; the diagonals are real and nonnegative by
construction, so no extra phase handling is needed.

A shared stream of user 1 must be decodable at both users (user 2 decodes it
for SIC), so its rate is the instantaneous minimum of the two decoding
points. User 2's shared streams see no interference after SIC.
"""

import numpy as np

from .system import Record

__all__ = [
    "StreamGains",
    "RateBreakdown",
    "rate_user1",
    "rate_user2",
    "rate_breakdown",
    "weighted_sum_rate",
]

# The largest stream gain, and gain over the noise, the rate formulas take
# (1,500 dB). The power solver's derivatives square both; 1e150 squared
# leaves eight decades of headroom for a row's sums of squares.
GAIN_MAX = 1e150


class StreamGains:
    """Per-watt gains of every stream, read off the triangular factors of
    the decompositions ``decs``, which share one stream layout: row ``i``
    holds the bits of the gains of ``decs[draw[i]]`` alone, and a scalar
    ``draw`` gives one link's gains without a row axis.

    ``c1`` holds the upper-triangular ``|r1|^2 / pathloss1`` block of the
    shared streams: its diagonal ``c1_diag`` is user 1's own gain, the
    entries right of it the uncancellable interference from user 2's later
    shared symbols. ``w2`` is user 2's gain on each shared stream. ``free``
    holds, in one array, the noise-normalized gains of the interference-free
    streams in the power solver's order (:meth:`StreamDims.pack`): user 1's
    private streams, user 2's shared streams (after SIC), user 2's private
    streams. Every formula broadcasts over the row axis. Every gain, and
    every gain over the noise, must be finite and at most ``GAIN_MAX``.
    """

    GAINS = ("c1", "c1_diag", "w2", "free")

    def __init__(self, decs, cfg, draw):
        d = decs[0].dims
        if any(dec.dims != d for dec in decs[1:]):
            raise ValueError("every draw must have the same stream dimensions")
        m = d.shared
        self.dims, self.sigma2 = d, cfg.noise_power
        r1 = np.stack([dec.r1 for dec in decs])[draw]
        r2 = np.stack([dec.r2 for dec in decs])[draw]
        diag1 = np.diagonal(r1, axis1=-2, axis2=-1).real
        diag2 = np.diagonal(r2, axis1=-2, axis2=-1)
        # A gain that overflows, or whose path loss times the noise
        # underflows to 0, comes out inf or NaN, which the test below refuses
        # by name.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            self.c1 = np.triu(np.abs(r1[..., :m, :m]) ** 2 / cfg.pathloss1)
            # a copy, so that every gain is C-contiguous as the solver reads it
            self.c1_diag = np.diagonal(self.c1, axis1=-2, axis2=-1).copy()
            self.w2 = np.abs(diag2[..., :m]) ** 2 / cfg.pathloss2
            self.free = np.concatenate([
                diag1[..., m:] ** 2 / (cfg.pathloss1 * self.sigma2),
                self.w2 / self.sigma2,
                diag2[..., m:].real ** 2 / (cfg.pathloss2 * self.sigma2),
            ], axis=-1)
        # written so that NaN fails; see GAIN_MAX
        big = GAIN_MAX * min(1.0, self.sigma2)
        if not (self.c1.max(initial=0.0) <= big and self.w2.max(initial=0.0) <= big
                and self.free.max(initial=0.0) <= GAIN_MAX):
            raise ValueError("stream gains and gains over the noise must be finite and <= 1e150")

    def shared_args(self, p1s, p2s):
        """Noise-plus-power sums ``(arg11, arg12, arg21, arg22)`` of user 1's
        shared streams: with and without the own signal at user 1
        (``arg11``, ``arg12``) and at user 2 before SIC (``arg21``,
        ``arg22``). Each decoding point's rate is ``log2`` of a ratio.
        Powers may carry leading row axes; each row computes exactly as it
        would alone."""
        i1 = (self.c1 @ p2s[..., None])[..., 0]
        arg12 = self.sigma2 + i1
        arg11 = arg12 + p1s * self.c1_diag
        arg21 = self.sigma2 + (p1s + p2s) * self.w2
        arg22 = self.sigma2 + p2s * self.w2
        return arg11, arg12, arg21, arg22

    def breakdown(self, z, args=None):
        """:class:`RateBreakdown` of the powers ``z`` of both users, or of
        rows of them, in the power solver's order (:meth:`StreamDims.pack`);
        its rates are length L. ``args`` are the :meth:`shared_args` at
        ``z``, when the caller has formed them."""
        d, m = self.dims, self.dims.shared
        p1s, p2s = z[..., :m], z[..., d.user1_streams : d.user1_streams + m]
        _, arg12, _, arg22 = args or self.shared_args(p1s, p2s)
        at1 = np.log2(1.0 + p1s * self.c1_diag / arg12)
        at2 = np.log2(1.0 + p1s * self.w2 / arg22)
        free = np.log2(1.0 + z[..., m:] * self.free)
        r1, r2 = d.unpack(np.concatenate([np.minimum(at1, at2), free], axis=-1))
        return RateBreakdown(r1=r1, r2=r2, r1_at_user1=at1, r1_at_user2=at2)


class RateBreakdown(Record):
    """Per-stream rates plus the shared-stream intermediates of user 1."""

    __slots__ = ("r1", "r2", "r1_at_user1", "r1_at_user2")

    @property
    def total1(self):
        return float(self.r1.sum())

    @property
    def total2(self):
        return float(self.r2.sum())


def rate_breakdown(alloc, dec, cfg):
    """Full rate picture of one allocation on one decomposition.

    Shared streams of user 1 take the minimum of both decoding points; user
    1's private and user 2's streams are interference-free. Each user's
    rates on the other user's private indices are zero.
    """
    return StreamGains([dec], cfg, 0).breakdown(dec.dims.pack(alloc.p1, alloc.p2))


def rate_user1(alloc, dec, cfg):
    """Per-stream rates of user 1, length L."""
    return rate_breakdown(alloc, dec, cfg).r1


def rate_user2(alloc, dec, cfg):
    """Per-stream rates of user 2, length L."""
    return rate_breakdown(alloc, dec, cfg).r2


def weighted_sum_rate(alloc, dec, cfg, mu):
    """Weighted sum rate ``sum_l mu r1[l] + (1 - mu) r2[l]``, mu in [0, 1]."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    br = rate_breakdown(alloc, dec, cfg)
    return float(mu * br.r1.sum() + (1.0 - mu) * br.r2.sum())

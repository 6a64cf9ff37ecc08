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


class StreamGains:
    """Per-watt gains of every stream, read off the triangular factors.

    ``c1`` holds the upper-triangular ``|r1|^2 / pathloss1`` block of the
    shared streams: its diagonal ``c1_diag`` is user 1's own gain, the
    entries right of it the uncancellable interference from user 2's later
    shared symbols. ``w2`` is user 2's gain on each shared stream. ``free``
    holds, in one array, the noise-normalized gains of the interference-free
    streams in the power solver's order: user 1's private streams, user 2's
    shared streams (after SIC), user 2's private streams. Each gain array may
    carry a leading row axis (see :meth:`rows`); every formula broadcasts
    over it.
    """

    GAINS = ("c1", "c1_diag", "w2", "free")

    def __init__(self, dec, cfg):
        d = dec.dims
        m = d.shared
        self.dims = d
        self.sigma2 = cfg.noise_power
        self.c1 = np.triu(np.abs(dec.r1[:m, :m]) ** 2 / cfg.pathloss1)
        self.c1_diag = np.diagonal(self.c1)
        self.w2 = np.abs(np.diagonal(dec.r2)[:m]) ** 2 / cfg.pathloss2
        self.free = np.concatenate([
            dec.diag1[m:] ** 2 / (cfg.pathloss1 * self.sigma2),
            self.w2 / self.sigma2,
            dec.diag2[m:] ** 2 / (cfg.pathloss2 * self.sigma2),
        ])
        # written so that NaN fails
        if not (np.isfinite(self.c1).all() and np.isfinite(self.free).all()):
            raise ValueError("stream gains must be finite")

    @classmethod
    def rows(cls, decs, cfg, draw):
        """Gains whose row ``i`` is the link of ``decs[draw[i]]``; each row
        computes exactly as that link's own gains would. The decompositions
        must share one stream layout. A scalar ``draw`` gives that link's
        gains without a row axis."""
        links = [StreamGains(dec, cfg) for dec in decs]
        if any(link.dims != links[0].dims for link in links):
            raise ValueError("every draw must have the same stream dimensions")
        new = cls.__new__(cls)
        new.dims, new.sigma2 = links[0].dims, links[0].sigma2
        for name in cls.GAINS:
            setattr(new, name, np.stack([getattr(link, name) for link in links])[draw])
        return new

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

    def breakdown(self, p1, p2):
        """:class:`RateBreakdown` of the length-L powers ``p1``, ``p2``, or
        of rows of them."""
        d = self.dims
        m, k = d.shared, d.user1_streams
        p1s, p2s = p1[..., :m], p2[..., :m]
        _, arg12, _, arg22 = self.shared_args(p1s, p2s)
        at1 = np.log2(1.0 + p1s * self.c1_diag / arg12)
        at2 = np.log2(1.0 + p1s * self.w2 / arg22)
        powers = np.concatenate([p1[..., m:k], p2s, p2[..., k:]], axis=-1)
        free = np.log2(1.0 + powers * self.free)
        r1 = np.zeros(p1.shape)
        r2 = np.zeros(p2.shape)
        r1[..., :m] = np.minimum(at1, at2)
        r1[..., m:k] = free[..., : d.private1]
        r2[..., :m] = free[..., d.private1 : k]
        r2[..., k:] = free[..., k:]
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
    return StreamGains(dec, cfg).breakdown(alloc.p1, alloc.p2)


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

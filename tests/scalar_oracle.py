"""Scalar per-stream rate formulas, one stream at a time.

Written independently of the library's vectorized ``StreamGains``: the rate
and power tests compare ``rate_breakdown``, ``rate_underestimator`` and the
DC split read off ``StreamGains.shared_args`` (:func:`gains_dc_components`)
against these loops. The DC split and the min-of-differences identity live
here because only the tests use them.
"""

import math

import numpy as np

from stnoma.rates import StreamGains

# (n_bs, m1, m2) compared against the oracle: the reference shape, two and
# four shared streams, no shared stream, no private stream.
EDGE_SHAPES = [(5, 3, 3), (6, 4, 4), (4, 6, 6), (4, 2, 2), (3, 3, 3)]


def rate_at_user1(alloc, dec, cfg, l):
    """User 1's shared stream ``l`` at user 1's decoder; the denominator
    keeps the uncancellable interference of user 2's shared symbols at
    indices >= l."""
    m = dec.dims.shared
    w = np.abs(dec.r1[l, l:m]) ** 2
    signal = alloc.p1[l] * w[0] / cfg.pathloss1
    interference = (alloc.p2[l:m] @ w) / cfg.pathloss1
    return float(np.log2(1.0 + signal / (cfg.noise_power + interference)))


def rate_at_user2(alloc, dec, cfg, l):
    """User 1's shared stream ``l`` decoded at user 2 before SIC; only user
    2's own-index symbol interferes."""
    w = abs(dec.r2[l, l]) ** 2
    signal = alloc.p1[l] * w / cfg.pathloss2
    interference = alloc.p2[l] * w / cfg.pathloss2
    return float(np.log2(1.0 + signal / (cfg.noise_power + interference)))


def _snr_rate(power, gain_sq, pathloss, noise_power):
    return float(np.log2(1.0 + power * gain_sq / (pathloss * noise_power)))


def rates(alloc, dec, cfg):
    """Per-stream rates ``(r1, r2)`` of both users, length L each."""
    d = dec.dims
    r1 = np.zeros(d.total)
    r2 = np.zeros(d.total)
    sigma2 = cfg.noise_power
    for l in d.shared_indices():
        at1 = rate_at_user1(alloc, dec, cfg, l)
        r1[l] = min(at1, rate_at_user2(alloc, dec, cfg, l))
        r2[l] = _snr_rate(alloc.p2[l], abs(dec.r2[l, l]) ** 2, cfg.pathloss2, sigma2)
    for l in d.private1_indices():
        r1[l] = _snr_rate(alloc.p1[l], abs(dec.r1[l, l]) ** 2, cfg.pathloss1, sigma2)
    for l in d.private2_indices():
        gain = abs(dec.r2[l - d.private1, l - d.private1]) ** 2
        r2[l] = _snr_rate(alloc.p2[l], gain, cfg.pathloss2, sigma2)
    return r1, r2


def dc_components(alloc, dec, cfg, l):
    """``(c11, c12, c21, c22)``: the rate at user 1 is ``c11 - c12``, the
    rate at user 2 is ``c21 - c22``."""
    m = dec.dims.shared
    sigma2 = cfg.noise_power
    c1row = np.abs(dec.r1[l, l:m]) ** 2 / cfg.pathloss1
    i1 = float(alloc.p2[l:m] @ c1row)
    s1 = alloc.p1[l] * c1row[0]
    w2 = abs(dec.r2[l, l]) ** 2 / cfg.pathloss2
    c11 = math.log2(sigma2 + i1 + s1)
    c12 = math.log2(sigma2 + i1)
    c21 = math.log2(sigma2 + alloc.p2[l] * w2 + alloc.p1[l] * w2)
    c22 = math.log2(sigma2 + alloc.p2[l] * w2)
    return c11, c12, c21, c22


def rate_underestimator(alloc, anchor, dec, cfg, l):
    """``min(c11 + c22, c21 + c12)`` less the first-order expansion of
    ``c12 + c22`` around ``anchor`` in every user-2 shared power."""
    m = dec.dims.shared
    c11, c12, c21, c22 = dc_components(alloc, dec, cfg, l)
    sigma2 = cfg.noise_power
    anchor = np.asarray(anchor, dtype=float)
    c1row = np.abs(dec.r1[l, l:m]) ** 2 / cfg.pathloss1
    w2 = abs(dec.r2[l, l]) ** 2 / cfg.pathloss2
    arg12_q = sigma2 + float(anchor[l:] @ c1row)
    arg22_q = sigma2 + anchor[l] * w2
    anchored = math.log2(arg12_q) + math.log2(arg22_q)
    delta = alloc.p2[l:m] - anchor[l:]
    shift = float(c1row @ delta) / (math.log(2.0) * arg12_q)
    shift += w2 * (alloc.p2[l] - anchor[l]) / (math.log(2.0) * arg22_q)
    return min(c11 + c22, c21 + c12) - anchored - shift


def gains_dc_components(alloc, dec, cfg, l):
    """The four concave pieces of user 1's shared-stream rate ``l``, read
    off the library's gains: the log2 of :meth:`StreamGains.shared_args` at
    stream ``l``, ordered as :func:`dc_components` orders them."""
    m = dec.dims.shared
    if not 0 <= l < m:
        raise ValueError(f"stream {l} is not shared")
    args = StreamGains([dec], cfg, 0).shared_args(alloc.p1[:m], alloc.p2[:m])
    return tuple(math.log2(arg[l]) for arg in args)


def min_difference_identity(a, b, c, d):
    """Both evaluations of ``min(a-b, c-d) == min(a+d, c+b) - (b+d)``.

    Returns the left- and right-hand side; they agree for all real inputs
    and the identity is what moves the concave pieces into a DC form.
    """
    return min(a - b, c - d), min(a + d, c + b) - (b + d)

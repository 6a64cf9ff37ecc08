"""System configuration, stream dimensioning, and random channel generation.

The downlink has one base station with ``n_bs`` antennas and two users with
``m1`` and ``m2`` antennas. User 1 is the far user (larger path loss). Stream
ownership splits the symbol vector into shared (NOMA) streams received by
both users and private streams sent through the other user's channel null
space.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SHARED",
    "PRIVATE1",
    "PRIVATE2",
    "SystemConfig",
    "StreamDims",
    "ChannelPair",
    "derive_dims",
    "sample_channels",
    "config_from_scenario",
    "dbm_to_watts",
]

SHARED = "shared"
PRIVATE1 = "private1"
PRIVATE2 = "private2"


def dbm_to_watts(dbm):
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    ``pathloss1 > pathloss2`` is required: user 1 is the far user and
    experiences the higher path loss. Power values are linear watts. Every
    path loss and power must be finite and positive.
    """

    n_bs: int
    m1: int
    m2: int
    pathloss1: float
    pathloss2: float
    power_budget: float
    noise_power: float

    def __post_init__(self):
        if min(self.n_bs, self.m1, self.m2) < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.m1 + self.m2 < self.n_bs:
            raise ValueError(
                f"m1 + m2 = {self.m1 + self.m2} < n_bs = {self.n_bs}: "
                "the scheme would assign more streams than user antennas"
            )
        # written so that NaN fails every test
        if not (math.inf > self.pathloss1 > self.pathloss2 > 0.0):
            raise ValueError("need finite pathloss1 > pathloss2 > 0 (user 1 is far)")
        if not 0.0 < self.power_budget < math.inf:
            raise ValueError("power_budget must be finite and > 0")
        if not 0.0 < self.noise_power < math.inf:
            raise ValueError("noise_power must be finite and > 0")

    @property
    def dims(self):
        return derive_dims(self.n_bs, self.m1, self.m2)


@dataclass(frozen=True)
class StreamDims:
    """Derived stream counts and the per-stream ownership map.

    ``total`` is the symbol vector length L = min(m1 + m2, n_bs). The first
    ``shared`` streams go to both users, the next ``private1`` streams only
    to user 1, the last ``private2`` streams only to user 2.
    """

    total: int
    shared: int
    private1: int
    private2: int

    def __post_init__(self):
        if self.shared + self.private1 + self.private2 != self.total:
            raise ValueError("stream counts do not add up to the total")
        if min(self.total, self.shared, self.private1, self.private2) < 0:
            raise ValueError("stream counts must be nonnegative")

    @property
    def ownership(self):
        """Owner of each stream: SHARED, PRIVATE1 or PRIVATE2."""
        return (
            (SHARED,) * self.shared
            + (PRIVATE1,) * self.private1
            + (PRIVATE2,) * self.private2
        )

    @property
    def user1_streams(self):
        """Number of streams decoded by user 1 (shared + private1)."""
        return self.shared + self.private1

    @property
    def user2_streams(self):
        """Number of streams decoded by user 2 (shared + private2)."""
        return self.shared + self.private2

    def shared_indices(self):
        return range(self.shared)

    def private1_indices(self):
        return range(self.shared, self.shared + self.private1)

    def private2_indices(self):
        return range(self.shared + self.private1, self.total)


@dataclass(frozen=True)
class ChannelPair:
    """Small-scale fading matrices of both users, shape (m_k, n_bs)."""

    h1: np.ndarray
    h2: np.ndarray

    def __post_init__(self):
        for name, h in (("h1", self.h1), ("h2", self.h2)):
            if h.ndim != 2:
                raise ValueError(f"{name} must be 2-D")
            if h.size and not np.all(np.isfinite(h.real) & np.isfinite(h.imag)):
                raise ValueError(f"{name} contains non-finite entries")
        if self.h1.shape[1] != self.h2.shape[1]:
            raise ValueError("h1 and h2 must share the BS antenna count")


def derive_dims(n_bs, m1, m2):
    """Stream dimensioning for a (n_bs, m1, m2) antenna configuration.

    L = min(m1 + m2, n_bs) streams in total. User k gets
    max(0, min(m_k, L - m_other)) private streams; the remaining
    n_bs - private1 - private2 streams are shared.

    Raises
    ------
    ValueError
        If ``m1 + m2 < n_bs``; that regime would assign more streams to a
        user than it has antennas and is rejected rather than guessed at.
    """
    if m1 + m2 < n_bs:
        raise ValueError(
            f"m1 + m2 = {m1 + m2} < n_bs = {n_bs}: unsupported configuration"
        )
    total = min(m1 + m2, n_bs)
    private1 = max(0, min(m1, total - m2))
    private2 = max(0, min(m2, total - m1))
    shared = n_bs - private1 - private2
    return StreamDims(
        total=total, shared=shared, private1=private1, private2=private2
    )


def sample_channels(rng, n_bs, m1, m2):
    """Draw one i.i.d. Rayleigh-fading channel pair.

    Entries are circularly symmetric complex Gaussian with unit variance
    (real and imaginary parts each have variance 1/2). Deterministic given
    the generator state.
    """

    def draw(rows):
        re = rng.standard_normal((rows, n_bs))
        im = rng.standard_normal((rows, n_bs))
        return (re + 1j * im) / np.sqrt(2.0)

    return ChannelPair(h1=draw(m1), h2=draw(m2))


def config_from_scenario(
    n_bs,
    m1,
    m2,
    d1,
    d2,
    pt_dbm,
    sigma2_dbm,
    exponent=2.0,
):
    """Build a :class:`SystemConfig` from scenario-level quantities.

    Path losses follow the distance power law ``pathloss_k = d_k**exponent``
    and the dBm levels are converted to watts.

    Raises
    ------
    ValueError
        If ``d1 <= d2`` (user 1 must be the far user), or a path loss or
        power is not a positive finite float.
    """
    if not d1 > d2 > 0.0:
        raise ValueError("need d1 > d2 > 0")
    try:
        pathloss1, pathloss2 = float(d1) ** exponent, float(d2) ** exponent
        power_budget, noise_power = dbm_to_watts(pt_dbm), dbm_to_watts(sigma2_dbm)
    except OverflowError as exc:
        raise ValueError("a path loss or power overflows the float range") from exc
    return SystemConfig(n_bs, m1, m2, pathloss1, pathloss2, power_budget, noise_power)

"""System configuration, stream dimensioning, and random channel generation.

The downlink has one base station with ``n_bs`` antennas and two users with
``m1`` and ``m2`` antennas. User 1 is the far user (larger path loss). Stream
ownership splits the symbol vector into shared (NOMA) streams received by
both users and private streams sent through the other user's channel null
space. :class:`Record` is the base of every record class of the package.
"""

import math

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


def _refuse(self, *args):
    raise AttributeError(f"cannot assign to a field of {type(self).__qualname__}")


class Record:
    """Base of every record class of the package: a dataclass costs about a
    millisecond to create at import, a class of this kind next to nothing.

    A subclass names its fields in ``__slots__``, in positional order, any
    defaults in ``_defaults``, and validates in ``__post_init__``. It gets
    a dataclass's constructor, ``repr``, value ``==``, :meth:`astuple` and
    :meth:`as_dict`, and pickling and :meth:`replace` through the
    constructor, which validates again. It is frozen and hashed by value,
    or, declared with ``frozen=False``, mutable and unhashable.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, frozen=True):
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        else:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def astuple(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def as_dict(self):
        return dict(zip(self.__slots__, self.astuple()))

    def replace(self, **changes):
        """A copy with ``changes`` made, built (so validated) by the constructor."""
        return type(self)(**{**self.as_dict(), **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.astuple() == other.astuple()

    def __hash__(self):
        return hash(self.astuple())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self.astuple()


def dbm_to_watts(dbm):
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


class SystemConfig(Record):
    """Static system parameters.

    ``pathloss1 > pathloss2`` is required: user 1 is the far user and
    experiences the higher path loss. Power values are linear watts. Every
    path loss and power must be finite and positive.
    """

    __slots__ = ("n_bs", "m1", "m2", "pathloss1", "pathloss2", "power_budget",
                 "noise_power")

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


class StreamDims(Record):
    """Derived stream counts and the per-stream ownership map.

    ``total`` is the symbol vector length L = min(m1 + m2, n_bs). The first
    ``shared`` streams go to both users, the next ``private1`` streams only
    to user 1, the last ``private2`` streams only to user 2. :meth:`pack`
    and :meth:`unpack` map both users' powers to the power solver's order
    and back.
    """

    __slots__ = ("total", "shared", "private1", "private2")

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

    def pack(self, p1, p2):
        """Length-L powers of both users, or rows of them, in the power
        solver's order ``[p1 shared | p1 private1 | p2 shared | p2
        private2]`` (length L + shared): without each user's powers on the
        other user's private streams."""
        self._check_length(p1, p2, n=self.total)
        k = self.user1_streams
        return np.concatenate([p1[..., :k], p2[..., : self.shared], p2[..., k:]], axis=-1)

    def unpack(self, z):
        """The length-L ``(p1, p2)`` of solver vectors ``z`` (:meth:`pack`),
        zero on the other user's private streams."""
        m, k = self.shared, self.user1_streams
        self._check_length(z, n=self.total + m)
        p1, p2 = np.zeros((2, *z.shape[:-1], self.total))
        p1[..., :k] = z[..., :k]
        p2[..., :m], p2[..., k:] = z[..., k : k + m], z[..., k + m :]
        return p1, p2

    @staticmethod
    def _check_length(*powers, n):
        for p in powers:
            if p.shape[-1:] != (n,):
                raise ValueError("allocation length != stream count")


class ChannelPair(Record):
    """Small-scale fading matrices of both users, shape (m_k, n_bs)."""

    __slots__ = ("h1", "h2")

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

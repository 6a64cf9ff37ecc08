"""Simultaneous triangularization of the two users' MIMO channels.

One precoder ``x_mat`` and per-user unitary detectors ``q1``, ``q2`` render
both effective channels upper triangular:

    q1 @ h1 @ x_mat == [r1, 0]
    q2 @ h2 @ x_mat == [r2_left, 0, r2_right]

The private-stream columns of the precoder live in the other user's channel
null space, which is what produces the zero blocks. Diagonals of ``r1`` and
``r2`` are real and nonnegative so rate formulas can use them directly.
"""

import numpy as np

from .linalg import joint_null_space  # noqa: F401  bench/tracing.py patches it here
from .linalg import null_space_basis  # noqa: F401  bench/tracing.py patches it here
from .linalg import null_space, qr_real_diag
from .system import Record, derive_dims

__all__ = ["StDecomposition", "ResidualReport", "triangularize_draws",
           "simultaneous_triangularize", "verify_decomposition"]


class StDecomposition(Record):
    """Precoder, detectors, and triangular factors of one channel pair.

    ``r1`` is (m1, shared + private1); ``r2`` is (m2, shared + private2) and
    concatenates the shared-stream block and the private2 block (the zero
    block separating them in the full effective channel is implicit). A
    factor with a NaN or infinite entry, on which no residual, rate or
    solve is defined, is refused by a ``ValueError`` that names every such
    factor in field order.
    """

    __slots__ = ("x_mat", "q1", "q2", "r1", "r2", "dims")

    def __post_init__(self):
        # every field but dims is an array
        bad = [name for name in self.__slots__[:5] if not np.isfinite(getattr(self, name)).all()]
        if bad:
            raise ValueError(f"decomposition not finite in {', '.join(bad)}")

    @property
    def diag1(self):
        """Per-stream channel gains of user 1 (real, >= 0)."""
        return np.diagonal(self.r1).real

    @property
    def diag2(self):
        """Per-stream channel gains of user 2 (real, >= 0)."""
        return np.diagonal(self.r2).real

    def effective1(self):
        """Full L-wide effective channel of user 1: [r1, 0]."""
        return _insert_zero_columns(self.r1, self.r1.shape[1], self.dims.private2)

    def effective2(self):
        """Full L-wide effective channel of user 2: [r2_left, 0, r2_right]."""
        return _insert_zero_columns(self.r2, self.dims.shared, self.dims.private1)


def _insert_zero_columns(r, at, width):
    """``r`` with ``width`` zero columns inserted before column ``at``."""
    zero = np.zeros((r.shape[0], width), dtype=complex)
    return np.hstack([r[:, :at], zero, r[:, at:]])


def triangularize_draws(chs):
    """Build the joint triangularization of every channel pair of ``chs``
    in one stacked pass.

    The precoder stacks, in order, a basis of the joint null complement
    (shared streams), a basis of null(h2) (user 1's private streams), and a
    basis of null(h1) (user 2's private streams). The detectors come from QR
    factorizations of the effective channels with the zero columns removed.
    Every factor of every pair comes from one stacked call of each
    primitive of :mod:`stnoma.linalg`, and each pair's decomposition holds
    the bits it gets alone.

    Parameters
    ----------
    chs : sequence of ChannelPair
        At least one pair; all share one antenna configuration, and the
        stream counts follow from its shapes (:func:`derive_dims`).

    Returns
    -------
    list
        One entry per pair, in order: its :class:`StDecomposition`, or the
        ``ValueError`` that refuses it: for a non-generic pair (a numerical
        null-space dimension other than the generic ``max(0, n_bs - m_k)``,
        which breaks the stream dimensioning), or for a factor that is not
        finite. Each pair's ranks are tested on their own.

    Raises
    ------
    ValueError
        If the configuration is unsupported.
    """
    m1, n_bs = chs[0].h1.shape
    dims = derive_dims(n_bs, m1, chs[0].h2.shape[0])
    h1 = np.stack([ch.h1 for ch in chs])
    h2 = np.stack([ch.h2 for ch in chs])

    # The trailing columns of each unitary factor span the null space; a
    # non-generic pair's factors are sliced at the generic sizes too, and
    # its decomposition is dropped below.
    q_h1, null1 = null_space(h1)
    q_h2, null2 = null_space(h2)
    nb_h1 = q_h1[..., n_bs - dims.private2 :]  # carries user 2's private streams
    nb_h2 = q_h2[..., n_bs - dims.private1 :]  # carries user 1's private streams
    # the joint null complement: orthogonal to both null spaces
    q_k, null_k = null_space(np.concatenate([nb_h1, nb_h2], axis=-1).conj().mT)
    k_mat = q_k[..., n_bs - dims.shared :]

    x_mat = np.concatenate([k_mat, nb_h2, nb_h1], axis=-1)
    # QR of the effective channels with the zero columns left out; the zero
    # blocks are re-inserted only in the L-wide views.
    qf1, r1 = qr_real_diag(h1 @ np.concatenate([k_mat, nb_h2], axis=-1))
    qf2, r2 = qr_real_diag(h2 @ np.concatenate([k_mat, nb_h1], axis=-1))
    q1, q2 = qf1.conj().mT, qf2.conj().mT

    # (found, generic, message) of each rank test, in the order they run
    tests = (
        (null1.tolist(), dims.private2, "h1 is non-generic: null-space dimension {} != {}"),
        (null2.tolist(), dims.private1, "h2 is non-generic: null-space dimension {} != {}"),
        (null_k.tolist(), dims.shared,
         "joint null space dimension {} != {}: channels are non-generic"),
    )
    out = []
    for i in range(len(chs)):
        try:
            for found, generic, text in tests:
                if found[i] != generic:
                    raise ValueError(text.format(found[i], generic))
            out.append(StDecomposition(x_mat[i], q1[i], q2[i], r1[i], r2[i], dims))
        except ValueError as exc:
            out.append(exc)
    return out


def simultaneous_triangularize(ch):
    """Build the joint triangularization of one channel pair, the one-pair
    case of :func:`triangularize_draws`; a ``ValueError`` if the
    configuration is unsupported, a channel is non-generic or a factor is
    not finite."""
    (dec,) = triangularize_draws([ch])
    if isinstance(dec, ValueError):
        raise dec
    return dec


class ResidualReport(Record):
    """Relative residuals of every decomposition invariant."""

    __slots__ = ("factorization1", "factorization2", "unitarity1", "unitarity2",
                 "triangularity1", "triangularity2", "diag_imag1", "diag_imag2",
                 "diag_negativity1", "diag_negativity2", "column_norm")

    @property
    def max_residual(self):
        # NaN if any residual is: Python's max would keep whichever came first
        return float(np.max(list(self.as_dict().values())))

    def ok(self, tol=1e-9):
        return not self.failures(tol)

    def failures(self, tol=1e-9):
        # written so that NaN fails
        return {k: v for k, v in self.as_dict().items() if not v <= tol}


def _rel(num, den):
    return num / den if den > 0.0 else num


def _user_residuals(h, q, x_mat, r, effective):
    """One user's five invariants, in :class:`ResidualReport`'s order:
    factorization, unitarity, triangularity, and the imaginary part and
    negativity of the diagonal of ``r``."""
    fact = np.linalg.norm(q @ h @ x_mat - effective) / max(np.linalg.norm(h), 1e-300)
    uni = np.linalg.norm(q.conj().T @ q - np.eye(h.shape[0]))
    scale = max(np.linalg.norm(r), 1e-300)
    tri = _rel(np.linalg.norm(np.tril(r, k=-1)), scale)
    diag = np.diagonal(r)
    imag = np.max(np.abs(diag.imag), initial=0.0) / scale
    neg = max(0.0, -np.min(diag.real, initial=0.0)) / scale
    return [float(v) for v in (fact, uni, tri, imag, neg)]


def verify_decomposition(dec, ch):
    """Measure every decomposition invariant from scratch.

    Returns a :class:`ResidualReport` of relative residuals; used by the test
    suite and by the command-line self check. All quantities are recomputed
    from the raw channels so a corrupted decomposition is caught.
    """
    user1 = _user_residuals(ch.h1, dec.q1, dec.x_mat, dec.r1, dec.effective1())
    user2 = _user_residuals(ch.h2, dec.q2, dec.x_mat, dec.r2, dec.effective2())
    if dec.x_mat.shape[1]:
        col_norms = np.linalg.norm(dec.x_mat, axis=0)
        col = float(np.max(np.abs(col_norms - 1.0)))
    else:
        col = 0.0
    # the report's fields alternate between the users
    return ResidualReport(*(v for pair in zip(user1, user2) for v in pair), column_norm=col)

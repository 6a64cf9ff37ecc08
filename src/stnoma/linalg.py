"""Complex dense matrix kernels used by the triangularization scheme.

Three primitives: QR with a real-nonnegative diagonal, orthonormal null-space
bases, and the joint null space of two orthonormal column families. All
functions are pure and take complex ndarrays of shape ``(..., m, n)``: a
single matrix, or a stack of them with leading axes. A stack is factored in
one call, each matrix bit for bit as it would be alone, and each matrix's
rank is tested on its own (:func:`null_space`).
"""

import numpy as np

__all__ = ["qr_real_diag", "null_space", "null_space_basis", "joint_null_space"]

# Relative magnitude below which a triangular diagonal entry counts as zero.
# Generic Gaussian channels are full rank; this only guards degenerate
# hand-crafted inputs.
RANK_RTOL = 1e-10


def _as_complex_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"{name} must be at least 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a.real) & np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def qr_real_diag(a):
    """Full QR decomposition with real, nonnegative diagonal entries of R.

    Parameters
    ----------
    a : (..., m, n) array_like, complex
        Matrix, or stack of matrices, to factor. Must be finite; rank
        deficiency is permitted and simply produces zero diagonal entries.

    Returns
    -------
    q : (..., m, m) ndarray
        Unitary factor.
    r : (..., m, n) ndarray
        Upper triangular factor with ``r[..., i, i]`` real and >= 0.
        Achieved by post-multiplying the Householder output columns by unit
        phase factors, so ``a = q @ r`` still holds.
    """
    a = _as_complex_matrix(a)
    *lead, m, n = a.shape
    if m == 0 or n == 0:
        return (np.broadcast_to(np.eye(m, dtype=complex), (*lead, m, m)).copy(),
                np.zeros((*lead, m, n), dtype=complex))
    q, r = np.linalg.qr(a, mode="complete")
    # Phase normalization: scale column i of Q by phi and row i of R, from
    # its diagonal on, by conj(phi) so the diagonal becomes |r_ii| >= 0. A
    # zero diagonal entry leaves its column and row as they are.
    k = min(m, n)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    mag = np.abs(d)
    live = mag > 0.0
    phi = np.divide(d, mag, out=np.ones_like(d), where=live)
    np.multiply(q[..., :k], phi[..., None, :], out=q[..., :k], where=live[..., None, :])
    upper = np.arange(n) >= np.arange(k)[:, None]
    np.multiply(r[..., :k, :], np.conj(phi)[..., None], out=r[..., :k, :],
                where=upper & live[..., None])
    diag = np.arange(k)
    r[..., diag, diag] = np.where(live, mag, d)
    return q, r


def null_space(h):
    """The null space of ``h``, or of each matrix of a stack, from one QR.

    The full QR of ``h^H`` gives a unitary factor whose trailing columns are
    orthogonal to every column of ``h^H`` and therefore satisfy
    ``h @ basis == 0``; the rank is the count of the triangular factor's
    diagonal entries above ``RANK_RTOL`` of its largest, per matrix.
    Matches the usual QR null-space recipe at O(2 n m^2).

    Parameters
    ----------
    h : (..., m, n) array_like, complex

    Returns
    -------
    q : (..., n, n) ndarray
        Unitary factor; its trailing ``nullity`` columns span null(h).
    nullity : (...) int ndarray
        ``n - rank(h)`` of each matrix.
    """
    h = _as_complex_matrix(h)
    q, r = qr_real_diag(h.conj().mT)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    top = diag.max(axis=-1, keepdims=True, initial=0.0)
    return q, h.shape[-1] - np.count_nonzero(diag > RANK_RTOL * top, axis=-1)


def null_space_basis(h):
    """Orthonormal basis of the null space of ``h``, or of each matrix of a
    stack (:func:`null_space`).

    Parameters
    ----------
    h : (..., m, n) array_like, complex
        Every matrix of a stack must have the same nullity.

    Returns
    -------
    basis : (..., n, d) ndarray
        Orthonormal columns spanning null(h), ``d = n - rank(h)``. A 0-column
        matrix when the null space is trivial.
    """
    q, nullity = null_space(h)
    d = int(np.max(nullity, initial=0))
    if np.any(nullity != d):
        raise ValueError("null-space dimensions differ across the stack")
    return q[..., q.shape[-1] - d :].copy()


def joint_null_space(nb1, nb2):
    """Orthonormal basis orthogonal to both column families, or to both of
    each pair of a stack.

    Parameters
    ----------
    nb1 : (..., n, d1) array_like, complex
        Orthonormal columns (e.g. a null-space basis).
    nb2 : (..., n, d2) array_like, complex
        Orthonormal columns over the same ambient dimension.

    Returns
    -------
    k : (..., n, d) ndarray
        Orthonormal columns with ``nb1^H @ k == 0`` and ``nb2^H @ k == 0``:
        the null space of the rows of ``nb1^H`` and ``nb2^H``. That is the
        identity when both inputs have zero columns (both null spaces
        trivial).
    """
    nb1 = _as_complex_matrix(nb1, "nb1")
    nb2 = _as_complex_matrix(nb2, "nb2")
    if nb1.shape[-2] != nb2.shape[-2]:
        raise ValueError(
            f"ambient dimensions differ: {nb1.shape[-2]} vs {nb2.shape[-2]}"
        )
    return null_space_basis(np.concatenate([nb1, nb2], axis=-1).conj().mT)

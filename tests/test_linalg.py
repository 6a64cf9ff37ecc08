import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stnoma.linalg import joint_null_space, null_space, null_space_basis, qr_real_diag


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def check_qr_invariants(a, rtol=1e-10):
    q, r = qr_real_diag(a)
    m, n = a.shape
    scale = max(np.linalg.norm(a), 1.0)
    assert np.linalg.norm(a - q @ r) <= rtol * scale
    assert np.linalg.norm(q.conj().T @ q - np.eye(m)) <= rtol * max(m, 1)
    assert np.linalg.norm(np.tril(r, k=-1)) <= rtol * scale
    diag = np.diagonal(r)
    assert np.all(diag.imag == 0.0)
    assert np.all(diag.real >= 0.0)
    return q, r


def test_qr_identity():
    q, r = qr_real_diag(np.eye(3))
    np.testing.assert_allclose(q, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(r, np.eye(3), atol=1e-15)


def test_qr_negative_scalar_forces_phase():
    q, r = qr_real_diag(np.array([[-2.0]]))
    np.testing.assert_allclose(q, [[-1.0]], atol=1e-15)
    np.testing.assert_allclose(r, [[2.0]], atol=1e-15)


def test_qr_random_4x3_reconstruction():
    rng = np.random.default_rng(42)
    a = random_complex(rng, 4, 3)
    q, r = qr_real_diag(a)
    assert np.linalg.norm(a - q @ r) / np.linalg.norm(a) <= 1e-12
    assert np.linalg.norm(q.conj().T @ q - np.eye(4)) <= 1e-12
    diag = np.diagonal(r)
    assert np.all(diag.imag == 0.0) and np.all(diag.real >= 0.0)


def test_qr_complex_phase_diagonal():
    # A has a fully complex first pivot; phase normalization must absorb it.
    a = np.array([[1j, 1.0], [0.0, 1.0 - 1j]])
    check_qr_invariants(a, rtol=1e-12)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 5), (5, 2), (8, 8), (16, 16), (16, 3), (3, 16)])
def test_qr_invariants_sizes(m, n):
    rng = np.random.default_rng(1000 * m + n)
    for _ in range(5):
        check_qr_invariants(random_complex(rng, m, n))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 10), n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
def test_qr_invariants_property(m, n, seed):
    rng = np.random.default_rng(seed)
    check_qr_invariants(random_complex(rng, m, n))


def test_qr_rejects_nonfinite():
    with pytest.raises(ValueError):
        qr_real_diag(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_null_space_trivial():
    basis = null_space_basis(np.eye(2))
    assert basis.shape == (2, 0)


def test_null_space_forced_direction():
    basis = null_space_basis(np.array([[1.0, 0.0]]))
    assert basis.shape == (2, 1)
    assert abs(basis[0, 0]) <= 1e-14
    assert abs(abs(basis[1, 0]) - 1.0) <= 1e-14


def test_null_space_random_3x5():
    rng = np.random.default_rng(5)
    h = random_complex(rng, 3, 5)
    basis = null_space_basis(h)
    assert basis.shape == (5, 2)
    assert np.linalg.norm(h @ basis) <= 1e-10 * np.linalg.norm(h)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)


def test_null_space_rank_deficient():
    h = np.array([[1.0, 1.0], [1.0, 1.0]])
    basis = null_space_basis(h)
    assert basis.shape == (2, 1)
    assert np.linalg.norm(h @ basis) <= 1e-10 * np.linalg.norm(h)


def test_null_space_zero_rows():
    basis = null_space_basis(np.zeros((0, 4)))
    np.testing.assert_allclose(basis, np.eye(4))


def test_joint_null_space_identity_when_trivial():
    k = joint_null_space(np.zeros((3, 0)), np.zeros((3, 0)))
    np.testing.assert_allclose(k, np.eye(3))


def test_joint_null_space_forced():
    e1 = np.array([[1.0], [0.0], [0.0]])
    e2 = np.array([[0.0], [1.0], [0.0]])
    k = joint_null_space(e1, e2)
    assert k.shape == (3, 1)
    assert abs(abs(k[2, 0]) - 1.0) <= 1e-14
    assert np.linalg.norm(k[:2, 0]) <= 1e-14


def test_joint_null_space_random():
    rng = np.random.default_rng(11)
    nb1 = null_space_basis(random_complex(rng, 3, 5))
    nb2 = null_space_basis(random_complex(rng, 3, 5))
    assert nb1.shape == (5, 2) and nb2.shape == (5, 2)
    k = joint_null_space(nb1, nb2)
    assert k.shape == (5, 1)
    assert np.linalg.norm(nb1.conj().T @ k) <= 1e-10
    assert np.linalg.norm(nb2.conj().T @ k) <= 1e-10


@pytest.mark.parametrize("n,m1,m2", [(4, 2, 2), (5, 3, 3), (6, 4, 4), (5, 4, 2)])
def test_joint_composition_dimensions(n, m1, m2):
    # generic channels: joint complement has n - d1 - d2 columns
    rng = np.random.default_rng(n * 100 + m1 * 10 + m2)
    nb1 = null_space_basis(random_complex(rng, m1, n))
    nb2 = null_space_basis(random_complex(rng, m2, n))
    k = joint_null_space(nb1, nb2)
    assert k.shape[1] == n - nb1.shape[1] - nb2.shape[1]


def test_joint_null_space_dimension_mismatch():
    with pytest.raises(ValueError):
        joint_null_space(np.zeros((3, 1)), np.zeros((4, 1)))


# --- leading axes -------------------------------------------------------------


def loop_qr_real_diag(a):
    """Reference: one matrix, its phase normalized diagonal entry by
    diagonal entry."""
    q, r = np.linalg.qr(a, mode="complete")
    for i in range(min(a.shape)):
        d = r[i, i]
        mag = abs(d)
        if mag > 0.0:
            phi = d / mag
            q[:, i] *= phi
            r[i, i:] *= np.conj(phi)
            r[i, i] = mag
    return q, r


@pytest.mark.parametrize("m,n", [(1, 1), (2, 5), (5, 2), (5, 5), (3, 6)])
def test_qr_of_a_stack_is_each_matrix_own(m, n):
    rng = np.random.default_rng(10 * m + n)
    a = random_complex(rng, 40 * m, n).reshape(4, 10, m, n)
    a[0, 1] = 0.0  # every diagonal entry zero
    a[0, 2, -1] = a[0, 2, 0]  # rank deficient when m > 1
    q, r = qr_real_diag(a)
    assert q.shape == (4, 10, m, m) and r.shape == (4, 10, m, n)
    for index in np.ndindex(4, 10):
        for q1, r1 in (qr_real_diag(a[index]), loop_qr_real_diag(a[index])):
            assert q[index].tobytes() == q1.tobytes()
            assert r[index].tobytes() == r1.tobytes()


def test_null_space_tests_each_rank_on_its_own():
    rng = np.random.default_rng(8)
    h = random_complex(rng, 12, 5).reshape(4, 3, 5)
    h[1, 2] = h[1, 0]  # nullity 3
    h[2] = 0.0  # nullity 5
    q, nullity = null_space(h)
    assert nullity.tolist() == [2, 3, 5, 2]
    for i, d in enumerate(nullity):
        basis = q[i][:, 5 - d :]
        assert basis.tobytes() == null_space_basis(h[i]).tobytes()
        assert np.linalg.norm(h[i] @ basis) <= 1e-10 * max(np.linalg.norm(h[i]), 1.0)
    with pytest.raises(ValueError, match="differ"):
        null_space_basis(h)
    assert null_space_basis(h[[0, 3]]).shape == (2, 5, 2)


def test_joint_null_space_of_a_stack():
    rng = np.random.default_rng(13)
    nb1 = null_space_basis(random_complex(rng, 18, 5).reshape(6, 3, 5))
    nb2 = null_space_basis(random_complex(rng, 18, 5).reshape(6, 3, 5))
    k = joint_null_space(nb1, nb2)
    assert k.shape == (6, 5, 1)
    for i in range(6):
        assert k[i].tobytes() == joint_null_space(nb1[i], nb2[i]).tobytes()
    empty = np.zeros((6, 3, 0))
    np.testing.assert_array_equal(joint_null_space(empty, empty), np.broadcast_to(np.eye(3), (6, 3, 3)))


import pickle

import numpy as np
import pytest

import scalar_oracle as oracle
from stnoma import triangularize
from stnoma.linalg import qr_real_diag
from stnoma.system import ChannelPair, sample_channels
from stnoma.triangularize import (
    StDecomposition,
    simultaneous_triangularize,
    triangularize_draws,
    verify_decomposition,
)


def make_channels(seed, n, m1, m2):
    rng = np.random.default_rng(seed)
    return sample_channels(rng, n, m1, m2)


def test_all_shared_reduces_to_plain_qr():
    ch = make_channels(0, 2, 2, 2)
    dec = simultaneous_triangularize(ch)
    d = dec.dims
    assert (d.shared, d.private1, d.private2) == (2, 0, 0)
    np.testing.assert_allclose(dec.x_mat, np.eye(2), atol=1e-15)
    _, r_plain = qr_real_diag(ch.h1)
    np.testing.assert_allclose(dec.r1, r_plain, atol=1e-14)
    np.testing.assert_allclose(dec.q1 @ ch.h1, dec.r1, atol=1e-12)


def test_paper_configuration_residuals():
    ch = make_channels(1, 5, 3, 3)
    dec = simultaneous_triangularize(ch)
    report = verify_decomposition(dec, ch)
    assert report.max_residual <= 1e-9
    # middle zero block of user 2's effective channel has the private1 width
    eff2 = dec.q2 @ ch.h2 @ dec.x_mat
    block = eff2[:, dec.dims.shared : dec.dims.shared + dec.dims.private1]
    assert block.shape[1] == 2
    assert np.abs(block).max() <= 1e-9 * np.linalg.norm(ch.h2)
    # trailing zero block of user 1 spans the private2 streams
    eff1 = dec.q1 @ ch.h1 @ dec.x_mat
    assert np.abs(eff1[:, dec.dims.shared + dec.dims.private1 :]).max() <= 1e-9 * np.linalg.norm(ch.h1)


def test_pure_private_configuration():
    ch = make_channels(2, 4, 2, 2)
    dec = simultaneous_triangularize(ch)
    assert dec.dims.shared == 0
    eff1 = dec.q1 @ ch.h1 @ dec.x_mat
    # [r1, 0] with a 2x2 upper triangular r1
    assert dec.r1.shape == (2, 2)
    assert abs(dec.r1[1, 0]) <= 1e-12
    assert np.abs(eff1[:, 2:]).max() <= 1e-9 * np.linalg.norm(ch.h1)
    assert verify_decomposition(dec, ch).ok(1e-9)


def test_identity_sized_channel():
    ch = ChannelPair(h1=np.array([[1.0 + 0j]]), h2=np.array([[0.5 + 0.5j]]))
    dec = simultaneous_triangularize(ch)
    report = verify_decomposition(dec, ch)
    assert report.max_residual <= 1e-12


def test_more_user_antennas_than_bs():
    ch = make_channels(3, 4, 6, 6)
    dec = simultaneous_triangularize(ch)
    # both null spaces trivial: precoder is the identity
    np.testing.assert_allclose(dec.x_mat, np.eye(4), atol=1e-15)
    assert verify_decomposition(dec, ch).ok(1e-9)


def test_asymmetric_configuration():
    ch = make_channels(4, 5, 4, 2)
    dec = simultaneous_triangularize(ch)
    d = dec.dims
    assert (d.shared, d.private1, d.private2) == (1, 3, 1)
    assert verify_decomposition(dec, ch).ok(1e-9)


def test_verify_detects_corrupted_precoder():
    ch = make_channels(5, 5, 3, 3)
    dec = simultaneous_triangularize(ch)
    
    x_bad = dec.x_mat.copy()
    x_bad[:, 0] *= 2.0
    bad = dec.replace(x_mat=x_bad)
    report = verify_decomposition(bad, ch)
    assert report.column_norm == pytest.approx(1.0, abs=1e-9)
    assert not report.ok(1e-9)
    assert "column_norm" in report.failures(1e-9)


@pytest.mark.parametrize("name", ["factorization1", "column_norm"])
def test_a_nan_residual_fails(name):
    # NaN passed the `v > tol` test, and max() kept or dropped it by order
    ch = make_channels(5, 5, 3, 3)
    report = verify_decomposition(simultaneous_triangularize(ch), ch).replace(**{name: np.nan})
    assert np.isnan(report.max_residual)
    assert not report.ok(1e-9)
    assert list(report.failures(1e-9)) == [name]


def test_verify_detects_corrupted_detector():
    ch = make_channels(6, 5, 3, 3)
    dec = simultaneous_triangularize(ch)
    
    q_bad = dec.q1.copy()
    q_bad[0, :] *= 1.5
    report = verify_decomposition(dec.replace(q1=q_bad), ch)
    assert report.unitarity1 > 1e-3
    assert not report.ok(1e-9)


def _scale_row0(q):
    bad = q.copy()
    bad[0, :] *= 1.5
    return bad


def _set_below_diagonal(r):
    bad = r.copy()
    bad[1, 0] = 0.3
    return bad


@pytest.mark.parametrize("factor, corrupt, fields", [
    ("q1", _scale_row0, {"factorization1", "unitarity1"}),
    ("q2", _scale_row0, {"factorization2", "unitarity2"}),
    ("r1", _set_below_diagonal, {"factorization1", "triangularity1"}),
    ("r2", _set_below_diagonal, {"factorization2", "triangularity2"}),
])
def test_corrupted_factor_names_only_its_own_user(factor, corrupt, fields):
    ch = make_channels(6, 5, 3, 3)
    dec = simultaneous_triangularize(ch)
    bad = dec.replace(**{factor: corrupt(getattr(dec, factor))})
    assert set(verify_decomposition(bad, ch).failures(1e-9)) == fields


def test_diagonal_positivity_over_draws():
    rng = np.random.default_rng(77)
    smallest = np.inf
    for _ in range(1000):
        ch = sample_channels(rng, 5, 3, 3)
        dec = simultaneous_triangularize(ch)
        smallest = min(smallest, dec.diag1.min(), dec.diag2.min())
    assert smallest > 1e-8


def test_rejects_rank_deficient_channel():
    ch_ok = make_channels(7, 5, 3, 3)
    h1 = ch_ok.h1.copy()
    h1[2] = h1[1]  # repeated row: null space grows beyond the generic size
    with pytest.raises(ValueError, match="non-generic"):
        simultaneous_triangularize(ChannelPair(h1=h1, h2=ch_ok.h2))


def test_effective_views_match_factors():
    ch = make_channels(9, 6, 4, 4)
    dec = simultaneous_triangularize(ch)
    eff1 = dec.effective1()
    assert eff1.shape == (4, 6)
    np.testing.assert_array_equal(eff1[:, : dec.dims.user1_streams], dec.r1)
    eff2 = dec.effective2()
    d = dec.dims
    np.testing.assert_array_equal(eff2[:, : d.shared], dec.r2[:, : d.shared])
    np.testing.assert_array_equal(eff2[:, d.shared + d.private1 :], dec.r2[:, d.shared :])


@pytest.mark.parametrize("cfg", [(2, 2, 2), (3, 3, 5), (2, 2, 4), (4, 2, 5), (6, 6, 4)])
def test_residuals_across_configurations(cfg):
    m1, m2, n = cfg
    rng = np.random.default_rng(hash(cfg) % 2**32)
    for _ in range(25):
        ch = sample_channels(rng, n, m1, m2)
        dec = simultaneous_triangularize(ch)
        assert verify_decomposition(dec, ch).ok(1e-9)


FACTORS = ("x_mat", "q1", "q2", "r1", "r2")


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", FACTORS)
def test_each_non_finite_factor_is_refused_where_it_is_built(name, value):
    # every construction refuses it: the constructor, replace and unpickling
    dec = simultaneous_triangularize(make_channels(2, 5, 3, 3))
    bad = getattr(dec, name).copy()
    bad[1, 0] = value
    message = f"^decomposition not finite in {name}$"
    with pytest.raises(ValueError, match=message):
        StDecomposition(**{**dec.as_dict(), name: bad})
    with pytest.raises(ValueError, match=message):
        dec.replace(**{name: bad})
    getattr(dec, name)[1, 0] = value  # in place, after it was built
    data = pickle.dumps(dec)
    with pytest.raises(ValueError, match=message):
        pickle.loads(data)


def test_non_finite_factors_are_named_in_order():
    # in field order, whatever order they are given in
    dec = simultaneous_triangularize(make_channels(2, 5, 3, 3))
    bad_q1, bad_x = dec.q1.copy(), dec.x_mat.copy()
    bad_q1[1, 0] = complex(0.0, np.nan)  # a NaN in the imaginary part alone
    bad_x[0, 2] = np.inf
    message = "^decomposition not finite in x_mat, q1$"
    with pytest.raises(ValueError, match=message):
        StDecomposition(dims=dec.dims, r2=dec.r2, r1=dec.r1, q2=dec.q2, q1=bad_q1, x_mat=bad_x)
    with pytest.raises(ValueError, match=message):
        dec.replace(q1=bad_q1, x_mat=bad_x)
    dec.q1[...], dec.x_mat[...] = bad_q1, bad_x
    data = pickle.dumps(dec)
    with pytest.raises(ValueError, match=message):
        pickle.loads(data)


# --- the stacked pass ---------------------------------------------------------


def assert_same_bits(dec, alone):
    assert dec.dims == alone.dims
    for name in FACTORS:
        a, b = getattr(dec, name), getattr(alone, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_stacked_pass_is_each_draws_one_draw_call(shape):
    # EDGE_SHAPES covers no shared stream and no private stream
    rng = np.random.default_rng(sum(shape))
    chs = [sample_channels(rng, *shape) for _ in range(25)]
    decs = triangularize_draws(chs)
    assert len(decs) == len(chs)
    for dec, ch in zip(decs, chs):
        assert_same_bits(dec, simultaneous_triangularize(ch))


def test_stacked_pass_over_a_thousand_draws():
    rng = np.random.default_rng(1000)
    chs = [sample_channels(rng, 5, 3, 3) for _ in range(1000)]
    for dec, ch in zip(triangularize_draws(chs), chs):
        assert_same_bits(dec, simultaneous_triangularize(ch))


def test_non_generic_draw_in_a_stack_keeps_its_message():
    # the rank of each draw is tested on its own: the rank-deficient draw
    # gets the message of the one-draw call, and the others still decompose
    rng = np.random.default_rng(12)
    chs = [sample_channels(rng, 5, 3, 3) for _ in range(5)]
    h1 = chs[2].h1.copy()
    h1[-1] = h1[0]
    chs[2] = ChannelPair(h1=h1, h2=chs[2].h2)
    decs = triangularize_draws(chs)
    assert isinstance(decs[2], ValueError)
    assert str(decs[2]) == "h1 is non-generic: null-space dimension 3 != 2"
    with pytest.raises(ValueError) as info:
        simultaneous_triangularize(chs[2])
    assert str(info.value) == str(decs[2])
    for i in (0, 1, 3, 4):
        assert_same_bits(decs[i], simultaneous_triangularize(chs[i]))


def test_non_finite_factor_in_a_stack_is_refused_in_its_place(nan_in_factor):
    # the NaN enters inside the stacked pass: its pair gets the refusal of
    # its decomposition in its place, and every other pair keeps its bits
    rng = np.random.default_rng(13)
    chs = [sample_channels(rng, 5, 3, 3) for _ in range(5)]
    clean = triangularize_draws(chs)
    nan_in_factor("r1", 3)
    decs = triangularize_draws(chs)
    assert isinstance(decs[3], ValueError)
    assert str(decs[3]) == "decomposition not finite in r1"
    for i in (0, 1, 2, 4):
        assert_same_bits(decs[i], clean[i])
    nan_in_factor("r1", 0)
    with pytest.raises(ValueError, match="^decomposition not finite in r1$"):
        simultaneous_triangularize(chs[3])


@pytest.mark.parametrize("shape", [(2, 2, 2), (4, 6, 6)])
def test_every_stream_shared_gives_the_identity_precoder(shape):
    # both null spaces are empty, so the joint null space is the identity
    rng = np.random.default_rng(3)
    decs = triangularize_draws([sample_channels(rng, *shape) for _ in range(4)])
    for dec in decs:
        assert dec.dims.shared == shape[0]
        assert dec.x_mat.tobytes() == np.eye(shape[0], dtype=complex).tobytes()

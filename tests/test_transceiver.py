import numpy as np
import pytest

from stnoma.system import derive_dims, sample_channels
from stnoma.transceiver import (
    PowerAllocation,
    build_symbol_vector,
    decode_user1,
    decode_user2,
    receive_and_detect,
    transmit,
)
from stnoma.triangularize import simultaneous_triangularize

PL1, PL2 = 62500.0, 2500.0


def random_alloc(rng, dims, budget=1.0):
    w = rng.random(2 * dims.total)
    w /= w.sum()
    p1 = w[: dims.total] * budget
    p2 = w[dims.total :] * budget
    p2[list(dims.private1_indices())] = 0.0
    p1[list(dims.private2_indices())] = 0.0
    return PowerAllocation(p1, p2)


def random_symbols(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def oracle_user1(dec, alloc, s1, s2, rotated_noise):
    """Closed-form cancelled signals at user 1, straight from the effective
    scalar-channel model."""
    d = dec.dims
    out = np.empty(d.user1_streams, dtype=complex)
    for l in range(d.user1_streams):
        val = np.sqrt(alloc.p1[l] / PL1) * dec.r1[l, l] * s1[l]
        if l < d.shared:
            for lp in range(l, d.shared):
                val += np.sqrt(alloc.p2[lp] / PL1) * dec.r1[l, lp] * s2[lp]
        out[l] = val + rotated_noise[l]
    return out


def oracle_user2(dec, alloc, s1, s2, rotated_noise):
    d = dec.dims
    out = np.empty(d.user2_streams, dtype=complex)
    for l in range(d.shared):
        out[l] = (
            dec.r2[l, l]
            * (np.sqrt(alloc.p1[l] / PL2) * s1[l] + np.sqrt(alloc.p2[l] / PL2) * s2[l])
            + rotated_noise[l]
        )
    for row in range(d.shared, d.user2_streams):
        g = row + d.private1
        out[row] = np.sqrt(alloc.p2[g] / PL2) * dec.r2[row, row] * s2[g] + rotated_noise[row]
    return out


def run_link(seed, n, m1, m2, noiseless=True, sigma=1e-3):
    rng = np.random.default_rng(seed)
    ch = sample_channels(rng, n, m1, m2)
    dec = simultaneous_triangularize(ch)
    d = dec.dims
    alloc = random_alloc(rng, d)
    s1 = random_symbols(rng, d.total)
    s2 = random_symbols(rng, d.total)
    s = build_symbol_vector(s1, s2, alloc)
    x = transmit(dec.x_mat, s)
    n1 = np.zeros(m1, complex) if noiseless else sigma * random_symbols(rng, m1)
    n2 = np.zeros(m2, complex) if noiseless else sigma * random_symbols(rng, m2)
    y1 = receive_and_detect(ch.h1, PL1, dec.q1, x, n1)
    y2 = receive_and_detect(ch.h2, PL2, dec.q2, x, n2)
    got1 = decode_user1(y1, dec, alloc, PL1, s1).values
    got2 = decode_user2(y2, dec, alloc, PL2, s1, s2).values
    want1 = oracle_user1(dec, alloc, s1, s2, (dec.q1 @ n1)[: d.user1_streams])
    want2 = oracle_user2(dec, alloc, s1, s2, (dec.q2 @ n2)[: d.user2_streams])
    return got1, want1, got2, want2


def assert_scalarized(got, want, rtol=1e-9):
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= rtol * scale


def test_symbol_vector_single_user():
    alloc = PowerAllocation(np.array([0.4, 0.1]), np.zeros(2))
    s1 = np.array([1.0 + 0j, 1j])
    s = build_symbol_vector(s1, np.zeros(2, complex), alloc)
    np.testing.assert_allclose(s, np.sqrt([0.4, 0.1]) * s1, rtol=1e-15)


def test_symbol_vector_equal_split_amplitude():
    alloc = PowerAllocation(np.array([0.5]), np.array([0.5]))
    s = build_symbol_vector(np.array([1.0 + 0j]), np.array([1.0 + 0j]), alloc)
    assert s[0] == pytest.approx(np.sqrt(0.5) * 2, rel=1e-12)
    assert s[0] == pytest.approx(1.41421, abs=1e-5)


def test_symbol_vector_average_power():
    rng = np.random.default_rng(3)
    dims = derive_dims(5, 3, 3)
    alloc = random_alloc(rng, dims)
    acc = 0.0
    n_draws = 10_000
    for _ in range(n_draws):
        s = build_symbol_vector(random_symbols(rng, 5), random_symbols(rng, 5), alloc)
        acc += np.abs(s) ** 2 @ np.ones(5)
    avg = acc / n_draws
    expect = alloc.total_power
    assert abs(avg - expect) <= 0.02 * expect


def test_transmit_selects_columns():
    rng = np.random.default_rng(4)
    ch = sample_channels(rng, 5, 3, 3)
    dec = simultaneous_triangularize(ch)
    for l in range(5):
        e = np.zeros(5, complex)
        e[l] = 1.0
        np.testing.assert_array_equal(transmit(dec.x_mat, e), dec.x_mat[:, l])


def test_transmit_preserves_norm_on_private_blocks():
    # columns within one null-space block are orthonormal, so a symbol
    # vector supported on a single private block keeps its norm
    rng = np.random.default_rng(5)
    ch = sample_channels(rng, 4, 2, 2)
    dec = simultaneous_triangularize(ch)
    d = dec.dims
    assert d.shared == 0
    s = np.zeros(4, complex)
    s[list(d.private1_indices())] = random_symbols(rng, d.private1)
    assert np.linalg.norm(transmit(dec.x_mat, s)) == pytest.approx(
        np.linalg.norm(s), rel=1e-12
    )


def test_transmit_matches_direct_multiply():
    rng = np.random.default_rng(6)
    x_mat = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    s = random_symbols(rng, 3)
    np.testing.assert_allclose(transmit(x_mat, s), x_mat @ s, rtol=1e-15)


def test_receive_matches_triangular_model():
    rng = np.random.default_rng(7)
    ch = sample_channels(rng, 5, 3, 3)
    dec = simultaneous_triangularize(ch)
    d = dec.dims
    alloc = random_alloc(rng, d)
    s1 = random_symbols(rng, 5)
    s2 = random_symbols(rng, 5)
    s = build_symbol_vector(s1, s2, alloc)
    x = transmit(dec.x_mat, s)
    y1 = receive_and_detect(ch.h1, PL1, dec.q1, x, np.zeros(3, complex))
    # user 1 sees the shared + private1 entries of s through r1
    s_tilde1 = s[: d.user1_streams]
    want = dec.r1 @ s_tilde1 / np.sqrt(PL1)
    assert np.abs(y1 - want).max() <= 1e-9 * max(np.abs(want).max(), 1e-300)
    y2 = receive_and_detect(ch.h2, PL2, dec.q2, x, np.zeros(3, complex))
    s_tilde2 = np.concatenate([s[: d.shared], s[d.shared + d.private1 :]])
    want2 = dec.r2 @ s_tilde2 / np.sqrt(PL2)
    assert np.abs(y2 - want2).max() <= 1e-9 * max(np.abs(want2).max(), 1e-300)


def test_receive_zero_everything():
    rng = np.random.default_rng(8)
    ch = sample_channels(rng, 4, 2, 2)
    dec = simultaneous_triangularize(ch)
    y = receive_and_detect(ch.h1, PL1, dec.q1, np.zeros(4, complex), np.zeros(2, complex))
    np.testing.assert_array_equal(y, np.zeros(2, complex))


def test_detected_noise_keeps_covariance():
    rng = np.random.default_rng(9)
    ch = sample_channels(rng, 5, 3, 3)
    dec = simultaneous_triangularize(ch)
    sigma = 0.7
    draws = np.empty((10_000, 3), dtype=complex)
    for i in range(draws.shape[0]):
        noise = sigma * random_symbols(rng, 3)
        draws[i] = receive_and_detect(ch.h1, PL1, dec.q1, np.zeros(5, complex), noise)
    cov = draws.conj().T @ draws / draws.shape[0]
    assert np.abs(cov - sigma**2 * np.eye(3)).max() <= 0.05 * sigma**2


# (2, 4, 5): 1 shared, 1 private1 and 3 private2 streams
@pytest.mark.parametrize("cfg", [(3, 3, 5), (2, 2, 4), (4, 2, 5), (2, 2, 2), (2, 4, 5)])
def test_noiseless_scalarization(cfg):
    m1, m2, n = cfg
    for seed in range(5):
        got1, want1, got2, want2 = run_link(1000 + seed, n, m1, m2, noiseless=True)
        assert_scalarized(got1, want1)
        assert_scalarized(got2, want2)


def test_noisy_scalarization():
    got1, want1, got2, want2 = run_link(55, 5, 3, 3, noiseless=False)
    assert_scalarized(got1, want1)
    assert_scalarized(got2, want2)


def test_decode_user1_pure_private_exact():
    # with zero user-2 power on shared streams every value is the bare
    # scaled symbol
    rng = np.random.default_rng(10)
    ch = sample_channels(rng, 5, 3, 3)
    dec = simultaneous_triangularize(ch)
    d = dec.dims
    p1 = np.zeros(5)
    p1[: d.user1_streams] = rng.random(d.user1_streams)
    alloc = PowerAllocation(p1, np.zeros(5))
    s1 = random_symbols(rng, 5)
    s = build_symbol_vector(s1, np.zeros(5, complex), alloc)
    y1 = receive_and_detect(ch.h1, PL1, dec.q1, transmit(dec.x_mat, s), np.zeros(3, complex))
    got = decode_user1(y1, dec, alloc, PL1, s1).values
    want = np.sqrt(alloc.p1[: d.user1_streams] / PL1) * np.diagonal(dec.r1) * s1[: d.user1_streams]
    assert_scalarized(got, want)


@pytest.mark.parametrize("n, m1, m2", [(5, 3, 3), (5, 2, 4)])
def test_decode_user2_private_index_shift(n, m1, m2):
    rng = np.random.default_rng(11)
    ch = sample_channels(rng, n, m1, m2)
    dec = simultaneous_triangularize(ch)
    d = dec.dims
    alloc = random_alloc(rng, d)
    s1 = random_symbols(rng, n)
    s2 = random_symbols(rng, n)
    s = build_symbol_vector(s1, s2, alloc)
    y2 = receive_and_detect(ch.h2, PL2, dec.q2, transmit(dec.x_mat, s), np.zeros(m2, complex))
    got = decode_user2(y2, dec, alloc, PL2, s1, s2).values
    for g in d.private2_indices():
        row = g - d.private1
        want = np.sqrt(alloc.p2[g] / PL2) * dec.r2[row, row] * s2[g]
        assert abs(got[row] - want) <= 1e-9 * max(abs(want), 1e-300)


def test_single_stream_decode_is_noop():
    rng = np.random.default_rng(12)
    ch = sample_channels(rng, 1, 1, 1)
    dec = simultaneous_triangularize(ch)
    alloc = PowerAllocation(np.array([0.3]), np.array([0.7]))
    y1 = np.array([0.25 + 0.5j])
    out = decode_user1(y1, dec, alloc, PL1, np.array([1.0 + 0j]))
    np.testing.assert_array_equal(out.values, y1)


def test_transmit_power_accounting():
    rng = np.random.default_rng(13)
    ch = sample_channels(rng, 5, 3, 3)
    dec = simultaneous_triangularize(ch)
    alloc = random_alloc(rng, dec.dims)
    acc = 0.0
    n_draws = 10_000
    for _ in range(n_draws):
        s = build_symbol_vector(random_symbols(rng, 5), random_symbols(rng, 5), alloc)
        x = transmit(dec.x_mat, s)
        acc += float(np.vdot(x, x).real)
    avg = acc / n_draws
    assert abs(avg - alloc.total_power) <= 0.02 * alloc.total_power


def test_allocation_validation():
    dims = derive_dims(5, 3, 3)
    good = PowerAllocation.zeros(dims)
    good.validate(dims, 1.0)
    bad = PowerAllocation.zeros(dims)
    bad.p2[1] = 0.1  # private1 stream
    with pytest.raises(ValueError, match="private1"):
        bad.validate(dims, 1.0)
    bad2 = PowerAllocation.zeros(dims)
    bad2.p1[4] = 0.1  # private2 stream
    with pytest.raises(ValueError, match="private2"):
        bad2.validate(dims, 1.0)
    over = PowerAllocation(np.full(5, 0.2), np.zeros(5))
    over.p1[list(dims.private2_indices())] = 0.0
    over.p2[:1] = 0.9
    with pytest.raises(ValueError, match="budget"):
        over.validate(dims, 1.0)
    neg = PowerAllocation.zeros(dims)
    neg.p1[0] = -0.1
    with pytest.raises(ValueError, match="negative"):
        neg.validate(dims, 1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("user, index", [(1, 0), (1, 1), (2, 0), (2, 3), (1, None)])
def test_allocation_validation_rejects_non_finite_powers(value, user, index):
    # NaN fails every comparison, so it passed the sign, support and budget
    # checks; 5x3x3: stream 0 shared, 1-2 user 1's private, 3-4 user 2's
    dims = derive_dims(5, 3, 3)
    alloc = PowerAllocation.zeros(dims)
    if index is None:
        alloc.p1[:] = alloc.p2[:] = value
    else:
        (alloc.p1 if user == 1 else alloc.p2)[index] = value
    with pytest.raises(ValueError, match="non-finite"):
        alloc.validate(dims, 1.0)


def test_allocation_validation_rejects_a_nan_budget():
    dims = derive_dims(5, 3, 3)
    with pytest.raises(ValueError, match="budget"):
        PowerAllocation.zeros(dims).validate(dims, np.nan)


@pytest.mark.parametrize("budget", [1e-13, 1.0, 3.16e8])
def test_allocation_validation_scales_with_the_budget(budget):
    # the slack is relative to the budget: one ulp of rounding at a large
    # budget passes, a 1e-6-relative overshoot at a tiny one does not
    dims = derive_dims(5, 3, 3)
    spent = PowerAllocation.zeros(dims)
    spent.p1[0] = budget * (1.0 + 2e-16)
    spent.validate(dims, budget)
    over = PowerAllocation.zeros(dims)
    over.p1[0] = budget * (1.0 + 1e-6)
    with pytest.raises(ValueError, match="budget"):
        over.validate(dims, budget)
    neg = PowerAllocation.zeros(dims)
    neg.p1[0] = -1e-6 * budget
    with pytest.raises(ValueError, match="negative"):
        neg.validate(dims, budget)
    leak = PowerAllocation.zeros(dims)
    leak.p2[1] = 1e-6 * budget  # private1 stream
    with pytest.raises(ValueError, match="private1"):
        leak.validate(dims, budget)


@pytest.mark.parametrize("budget", [1e-13, 1.0, 3.16e8])
def test_rows_pass_exactly_when_validate_accepts_them(budget):
    # the array test and validate agree row by row, on valid rows, on rows
    # a few ulps over the budget, and on rows broken in each way validate
    # names; 5x3x3: stream 0 shared, 1-2 user 1's private, 3-4 user 2's
    dims = derive_dims(5, 3, 3)
    rng = np.random.default_rng(31)
    rows = []
    for _ in range(200):
        p1, p2 = rng.random(5), rng.random(5)
        p1[3:], p2[1:3] = 0.0, 0.0
        scale = budget / (p1.sum() + p2.sum()) * (1.0 + rng.integers(-4, 5) * 1e-16)
        p1, p2 = p1 * scale, p2 * scale
        broken = rng.integers(6)
        if broken == 1:
            p1[rng.integers(3)] = rng.choice([np.nan, np.inf, -np.inf])
        elif broken == 2:
            p2[0] = -1e-6 * budget
        elif broken == 3:
            p2[1] = 1e-6 * budget
        elif broken == 4:
            p1[4] = -1e-6 * budget
        elif broken == 5:
            p1[0] *= 1.0 + 1e-6
        rows.append((p1, p2))
    p1, p2 = (np.array(a).reshape(20, 10, 5) for a in zip(*rows))
    passes = PowerAllocation.passes(p1, p2, dims, budget)
    assert passes.shape == (20, 10)
    for (t, i), ok in np.ndenumerate(passes):
        try:
            PowerAllocation(p1[t, i], p2[t, i]).validate(dims, budget)
            accepted = True
        except ValueError:
            accepted = False
        assert ok == accepted
    assert 0 < passes.sum() < passes.size

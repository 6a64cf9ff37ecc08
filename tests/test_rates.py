import numpy as np
import pytest

import scalar_oracle as oracle
from stnoma.rates import (
    StreamGains,
    rate_breakdown,
    rate_user1,
    rate_user2,
    weighted_sum_rate,
)
from stnoma.system import SystemConfig, sample_channels
from stnoma.transceiver import PowerAllocation, build_symbol_vector, receive_and_detect, transmit
from stnoma.triangularize import simultaneous_triangularize

CFG = SystemConfig(
    n_bs=5, m1=3, m2=3, pathloss1=62500.0, pathloss2=2500.0,
    power_budget=1.0, noise_power=10 ** (-6.5),
)


def setup_case(seed, cfg=CFG):
    rng = np.random.default_rng(seed)
    ch = sample_channels(rng, cfg.n_bs, cfg.m1, cfg.m2)
    dec = simultaneous_triangularize(ch)
    d = dec.dims
    w = rng.random(2 * d.total)
    w /= w.sum()
    p1 = w[: d.total] * cfg.power_budget
    p2 = w[d.total :] * cfg.power_budget
    p2[list(d.private1_indices())] = 0.0
    p1[list(d.private2_indices())] = 0.0
    return ch, dec, PowerAllocation(p1, p2)


def test_zero_power_zero_rate():
    _, dec, alloc = setup_case(0)
    alloc.p1[:] = 0.0
    assert np.all(rate_user1(alloc, dec, CFG) == 0.0)
    alloc.p2[:] = 0.0
    assert np.all(rate_user2(alloc, dec, CFG) == 0.0)


def test_unit_snr_gives_one_bit():
    _, dec, alloc = setup_case(1)
    alloc.p2[:] = 0.0
    l = 0  # shared stream
    gain = abs(dec.r1[l, l]) ** 2
    alloc.p1[l] = CFG.pathloss1 * CFG.noise_power / gain
    rate = rate_breakdown(alloc, dec, CFG).r1_at_user1[l]
    assert rate == pytest.approx(1.0, rel=1e-12)


def test_rates_match_recomputed_factors():
    # recompute the triangular entries from q1 h1 x directly and re-evaluate
    # the formulas; must agree with the module output
    ch, dec, alloc = setup_case(2)
    d = dec.dims
    eff1 = dec.q1 @ ch.h1 @ dec.x_mat
    eff2 = dec.q2 @ ch.h2 @ dec.x_mat
    s2n = CFG.noise_power
    r1 = rate_user1(alloc, dec, CFG)
    r2 = rate_user2(alloc, dec, CFG)
    for l in d.shared_indices():
        w_row = np.abs(eff1[l, l : d.shared]) ** 2 / CFG.pathloss1
        den = s2n + alloc.p2[l : d.shared] @ w_row
        at1 = np.log2(1 + alloc.p1[l] * w_row[0] / den)
        w2 = abs(eff2[l, l]) ** 2 / CFG.pathloss2
        at2 = np.log2(1 + alloc.p1[l] * w2 / (s2n + alloc.p2[l] * w2))
        assert r1[l] == pytest.approx(min(at1, at2), abs=1e-12)
        assert r2[l] == pytest.approx(np.log2(1 + alloc.p2[l] * w2 / s2n), abs=1e-12)
    for l in d.private1_indices():
        w = abs(eff1[l, l]) ** 2 / (CFG.pathloss1 * s2n)
        assert r1[l] == pytest.approx(np.log2(1 + alloc.p1[l] * w), abs=1e-12)
    for l in d.private2_indices():
        row = l - d.private1
        col = d.shared + row  # column of the private2 block inside r2
        w = abs(eff2[row, l]) ** 2 / (CFG.pathloss2 * s2n)
        assert r2[l] == pytest.approx(np.log2(1 + alloc.p2[l] * w), abs=1e-12)


def test_zero_pattern_on_foreign_streams():
    _, dec, alloc = setup_case(3)
    d = dec.dims
    r1 = rate_user1(alloc, dec, CFG)
    r2 = rate_user2(alloc, dec, CFG)
    assert all(r1[l] == 0.0 for l in d.private2_indices())
    assert all(r2[l] == 0.0 for l in d.private1_indices())
    assert np.all(r1 >= 0.0) and np.all(r2 >= 0.0)


def test_shared_rate_is_min_of_decoding_points():
    for seed in range(6):
        _, dec, alloc = setup_case(100 + seed)
        br = rate_breakdown(alloc, dec, CFG)
        for i, l in enumerate(dec.dims.shared_indices()):
            assert br.r1[l] == pytest.approx(
                min(br.r1_at_user1[i], br.r1_at_user2[i]), abs=1e-12
            )


def test_min_picks_smaller_branch_when_forced():
    # crank user-2 interference on the shared stream: the decoding point at
    # user 2 becomes the bottleneck
    _, dec, alloc = setup_case(4)
    l = 0
    alloc.p2[l] = 0.9
    alloc.p1[l] = 0.05
    at1 = oracle.rate_at_user1(alloc, dec, CFG, l)
    at2 = oracle.rate_at_user2(alloc, dec, CFG, l)
    assert rate_user1(alloc, dec, CFG)[l] == pytest.approx(min(at1, at2), abs=1e-12)
    assert at1 != at2


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_rate_breakdown_matches_scalar_oracle(shape):
    n, m1, m2 = shape
    cfg = SystemConfig(
        n_bs=n, m1=m1, m2=m2, pathloss1=62500.0, pathloss2=2500.0,
        power_budget=1.0, noise_power=10 ** (-6.5),
    )
    for seed in range(5):
        _, dec, alloc = setup_case(300 + seed, cfg)
        br = rate_breakdown(alloc, dec, cfg)
        r1, r2 = oracle.rates(alloc, dec, cfg)
        np.testing.assert_allclose(br.r1, r1, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(br.r2, r2, rtol=0.0, atol=1e-12)
        shared = dec.dims.shared_indices()
        at1 = [oracle.rate_at_user1(alloc, dec, cfg, l) for l in shared]
        at2 = [oracle.rate_at_user2(alloc, dec, cfg, l) for l in shared]
        np.testing.assert_allclose(br.r1_at_user1, at1, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(br.r1_at_user2, at2, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(rate_user1(alloc, dec, cfg), br.r1)
        np.testing.assert_array_equal(rate_user2(alloc, dec, cfg), br.r2)


def test_shannon_consistency_interference_free():
    _, dec, alloc = setup_case(5)
    d = dec.dims
    alloc.p2[list(d.shared_indices())] = 0.0
    br = rate_breakdown(alloc, dec, CFG)
    for i, l in enumerate(d.shared_indices()):
        snr = alloc.p1[l] * abs(dec.r1[l, l]) ** 2 / (CFG.pathloss1 * CFG.noise_power)
        assert br.r1_at_user1[i] == pytest.approx(np.log2(1 + snr), rel=1e-12)


def test_weighted_sum_rate_endpoints():
    _, dec, alloc = setup_case(6)
    br = rate_breakdown(alloc, dec, CFG)
    assert weighted_sum_rate(alloc, dec, CFG, 1.0) == pytest.approx(br.r1.sum(), abs=1e-12)
    assert weighted_sum_rate(alloc, dec, CFG, 0.0) == pytest.approx(br.r2.sum(), abs=1e-12)
    assert weighted_sum_rate(alloc, dec, CFG, 0.5) == pytest.approx(
        0.5 * (br.r1.sum() + br.r2.sum()), abs=1e-12
    )
    with pytest.raises(ValueError):
        weighted_sum_rate(alloc, dec, CFG, 1.5)


def test_rate_monotone_in_own_power():
    rng = np.random.default_rng(7)
    for seed in range(10):
        _, dec, alloc = setup_case(200 + seed)
        d = dec.dims
        r1 = rate_user1(alloc, dec, CFG)
        r2 = rate_user2(alloc, dec, CFG)
        l1 = int(rng.integers(0, d.user1_streams))
        bumped = PowerAllocation(alloc.p1.copy(), alloc.p2.copy())
        bumped.p1[l1] += 1e-4
        assert rate_user1(bumped, dec, CFG)[l1] >= r1[l1] - 1e-12
        l2 = int(rng.integers(0, d.shared))
        bumped2 = PowerAllocation(alloc.p1.copy(), alloc.p2.copy())
        bumped2.p2[l2] += 1e-4
        assert rate_user2(bumped2, dec, CFG)[l2] >= r2[l2] - 1e-12


def test_sinr_matches_decoded_interference_power():
    # the residual interference-plus-noise power in the cancelled signal of a
    # shared stream equals the denominator of the corresponding rate formula
    ch, dec, alloc = setup_case(8)
    d = dec.dims
    l = 0
    rng = np.random.default_rng(99)
    sigma = np.sqrt(CFG.noise_power)
    n_draws = 200_000
    s2 = (rng.standard_normal((n_draws, d.total)) + 1j * rng.standard_normal((n_draws, d.total))) / np.sqrt(2)
    s1 = (rng.standard_normal((n_draws, d.total)) + 1j * rng.standard_normal((n_draws, d.total))) / np.sqrt(2)
    noise = sigma * (rng.standard_normal((n_draws, CFG.m1)) + 1j * rng.standard_normal((n_draws, CFG.m1))) / np.sqrt(2)
    # residual after cancellation at stream l: interference plus rotated noise
    amp1 = np.sqrt(alloc.p1 / CFG.pathloss1)
    interf = np.zeros(n_draws, dtype=complex)
    for lp in range(l, d.shared):
        interf += np.sqrt(alloc.p2[lp] / CFG.pathloss1) * dec.r1[l, lp] * s2[:, lp]
    rotated = noise @ dec.q1[l, :]
    residual = interf + rotated
    measured = np.mean(np.abs(residual) ** 2)
    expected = CFG.noise_power + sum(
        alloc.p2[lp] * abs(dec.r1[l, lp]) ** 2 for lp in range(l, d.shared)
    ) / CFG.pathloss1
    assert abs(measured - expected) <= 0.02 * expected
    # and the same residual is exactly what decode_user1 leaves behind
    s = build_symbol_vector(s1[0], s2[0], alloc)
    y1 = receive_and_detect(ch.h1, CFG.pathloss1, dec.q1, transmit(dec.x_mat, s), noise[0])
    from stnoma.transceiver import decode_user1

    got = decode_user1(y1, dec, alloc, CFG.pathloss1, s1[0]).values[l]
    direct = amp1[l] * dec.r1[l, l] * s1[0, l]
    leftover = got - direct
    want = sum(
        np.sqrt(alloc.p2[lp] / CFG.pathloss1) * dec.r1[l, lp] * s2[0, lp]
        for lp in range(l, d.shared)
    ) + (dec.q1 @ noise[0])[l]
    assert abs(leftover - want) <= 1e-9 * max(abs(want), 1e-300)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["r1", "r2"])
def test_stream_gains_reject_non_finite_factors(name, value):
    # a NaN gain made every rate NaN and the solver return zero powers; the
    # decomposition refuses such a factor as it is built, so it is written
    # in place afterwards
    _, dec, _ = setup_case(3)
    getattr(dec, name)[0, 0] = value
    with pytest.raises(ValueError, match="^stream gains and gains over the noise must be finite"):
        StreamGains([dec], CFG, 0)


@pytest.mark.parametrize("pathloss2, noise_power", [(1e-160, 1.0), (1e-155, 1e10), (2500.0, 1e-160)],
                         ids=["both", "gain", "gain-over-the-noise"])
def test_stream_gains_reject_gains_whose_squares_overflow(pathloss2, noise_power):
    # the power solver squares every gain and every gain over the noise; a
    # near user at 1e-80 m made those squares overflow, and the solver
    # return zero powers at every weight
    _, dec, _ = setup_case(3)
    cfg = SystemConfig(5, 3, 3, 62500.0, pathloss2, 1.0, noise_power)
    with pytest.raises(ValueError, match="<= 1e150"):
        StreamGains([dec], cfg, 0)


@pytest.mark.parametrize("n", [1, 4, 6], ids=["1", "L-1", "L+1"])
def test_wrong_length_allocation_raises(n):
    # at every length but L: numpy would broadcast a length-1 allocation
    # into rates of the right length
    _, dec, _ = setup_case(3)
    assert dec.dims.total == 5
    alloc = PowerAllocation(np.full(n, 0.1), np.full(n, 0.1))
    for rates_of in (rate_user1, rate_breakdown):
        with pytest.raises(ValueError, match="allocation length != stream count"):
            rates_of(alloc, dec, CFG)


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_stream_gains_rows_are_each_draws_own_gains(shape):
    # the factors of two draws, stacked and indexed by five rows: each row
    # holds the bits of its own draw's gains, and every gain is C-contiguous
    cfg = SystemConfig(*shape, *CFG.astuple()[3:])
    decs = [setup_case(seed, cfg)[1] for seed in (310, 311)]
    draw = np.array([1, 0, 0, 1, 1])
    rows = StreamGains(decs, cfg, draw)
    for name in StreamGains.GAINS:
        assert getattr(rows, name).flags.c_contiguous, name
    for i, k in enumerate(draw):
        one = StreamGains([decs[k]], cfg, 0)
        for name in StreamGains.GAINS:
            assert getattr(rows, name)[i].tobytes() == getattr(one, name).tobytes(), name


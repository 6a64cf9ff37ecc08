import numpy as np
import pytest

import scalar_oracle as oracle
from stnoma.system import (
    PRIVATE1,
    PRIVATE2,
    SHARED,
    SystemConfig,
    config_from_scenario,
    dbm_to_watts,
    derive_dims,
    sample_channels,
)


def test_derive_dims_paper_configuration():
    d = derive_dims(5, 3, 3)
    assert (d.total, d.private1, d.private2, d.shared) == (5, 2, 2, 1)
    assert d.ownership == (SHARED, PRIVATE1, PRIVATE1, PRIVATE2, PRIVATE2)


def test_derive_dims_all_shared():
    d = derive_dims(2, 2, 2)
    assert (d.total, d.private1, d.private2, d.shared) == (2, 0, 0, 2)


def test_derive_dims_pure_private():
    d = derive_dims(4, 2, 2)
    assert (d.total, d.private1, d.private2, d.shared) == (4, 2, 2, 0)


def test_derive_dims_clamps_negative_private():
    # second user has more antennas than the BS; its private count clamps to 0
    d = derive_dims(4, 2, 6)
    assert (d.private1, d.private2) == (0, 2)
    assert d.shared == 2


def test_derive_dims_rejects_undersized_users():
    # one rule, one message: SystemConfig validates through derive_dims
    message = "m1 \\+ m2 = 4 < n_bs = 5: the scheme would assign more streams than user antennas"
    with pytest.raises(ValueError, match=message):
        derive_dims(5, 2, 2)
    with pytest.raises(ValueError, match=message):
        SystemConfig(5, 2, 2, 4.0, 1.0, 1.0, 1.0)


def test_derive_dims_exhaustive_stream_bounds():
    for n in range(1, 9):
        for m1 in range(1, 9):
            for m2 in range(1, 9):
                if m1 + m2 < n:
                    with pytest.raises(ValueError):
                        derive_dims(n, m1, m2)
                    continue
                d = derive_dims(n, m1, m2)
                assert d.shared + d.private1 + d.private2 == d.total == n
                assert d.shared + d.private1 <= m1
                assert d.shared + d.private2 <= m2
                assert min(d.shared, d.private1, d.private2) >= 0


def test_stream_index_helpers():
    d = derive_dims(5, 3, 3)
    assert list(d.shared_indices()) == [0]
    assert list(d.private1_indices()) == [1, 2]
    assert list(d.private2_indices()) == [3, 4]
    assert d.user1_streams == 3 and d.user2_streams == 3


@pytest.mark.parametrize("shape", oracle.EDGE_SHAPES)
def test_pack_and_unpack_map_the_solver_order(shape):
    # one vector and rows of them: pack reads the solver's order off the
    # index helpers, pack(*unpack(z)) is z to the bit, and unpack(pack(...))
    # keeps every on-support power and zeroes exactly each user's powers on
    # the other user's private streams
    d = derive_dims(*shape)
    rng = np.random.default_rng(sum(shape))
    owner = np.array(d.ownership)
    shared, private1, private2 = (list(d.shared_indices()), list(d.private1_indices()),
                                  list(d.private2_indices()))
    for lead in ((), (3,), (2, 3)):
        p1, p2 = rng.random(lead + (d.total,)), rng.random(lead + (d.total,))
        z = d.pack(p1, p2)
        want = np.concatenate([p1[..., shared], p1[..., private1], p2[..., shared],
                               p2[..., private2]], axis=-1)
        assert z.tobytes() == want.tobytes() and z.shape == lead + (d.total + d.shared,)
        q1, q2 = d.unpack(z)
        for p, q, foreign in ((p1, q1, PRIVATE2), (p2, q2, PRIVATE1)):
            off = owner == foreign
            assert q.shape == p.shape and (q[..., off] == 0.0).all()
            assert q[..., ~off].tobytes() == p[..., ~off].tobytes()
        z = rng.random(lead + (d.total + d.shared,))
        assert d.pack(*d.unpack(z)).tobytes() == z.tobytes()


@pytest.mark.parametrize("shape", [(5, 3, 3), (6, 4, 4)])
def test_pack_and_unpack_reject_a_wrong_length(shape):
    d = derive_dims(*shape)
    right = np.zeros(d.total)
    for n in (1, d.total - 1, d.total + 1):
        for args in ((np.zeros(n), right), (right, np.zeros(n)), (np.zeros((2, n)), right)):
            with pytest.raises(ValueError, match="allocation length != stream count"):
                d.pack(*args)
    for n in (1, d.total, d.total + d.shared - 1, d.total + d.shared + 1):
        with pytest.raises(ValueError, match="allocation length != stream count"):
            d.unpack(np.zeros((2, n)))


def test_sample_channels_deterministic():
    a = sample_channels(np.random.default_rng(9), 5, 3, 2)
    b = sample_channels(np.random.default_rng(9), 5, 3, 2)
    np.testing.assert_array_equal(a.h1, b.h1)
    np.testing.assert_array_equal(a.h2, b.h2)
    assert a.h1.shape == (3, 5) and a.h2.shape == (2, 5)


def test_sample_channels_moments():
    rng = np.random.default_rng(123)
    draws = [sample_channels(rng, 4, 2, 2) for _ in range(100_000 // 16)]
    entries = np.concatenate([np.concatenate([c.h1.ravel(), c.h2.ravel()]) for c in draws])
    assert abs(np.mean(np.abs(entries) ** 2) - 1.0) <= 0.01
    assert abs(np.var(entries.real) - 0.5) <= 0.005
    assert abs(np.var(entries.imag) - 0.5) <= 0.005


def test_config_from_scenario_paper_values():
    cfg = config_from_scenario(
        n_bs=5, m1=3, m2=3, d1=250.0, d2=50.0, pt_dbm=30.0, sigma2_dbm=-35.0
    )
    assert cfg.pathloss1 == 62500.0
    assert cfg.pathloss2 == 2500.0
    assert cfg.power_budget == pytest.approx(1.0, rel=1e-15)
    assert cfg.noise_power == pytest.approx(3.1623e-7, rel=1e-4)


def test_dbm_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(-35.0) == pytest.approx(10 ** (-6.5))


def test_config_rejects_swapped_distances():
    with pytest.raises(ValueError):
        config_from_scenario(
            n_bs=5, m1=3, m2=3, d1=50.0, d2=250.0, pt_dbm=30.0, sigma2_dbm=-35.0
        )


def test_config_rejects_levels_beyond_the_float_range():
    # 10**397 W and a path loss of 1e400 overflow instead of reaching inf
    for kwargs in (dict(pt_dbm=4000.0), dict(d1=1e200, d2=1.0)):
        args = dict(n_bs=5, m1=3, m2=3, d1=250.0, d2=50.0, pt_dbm=30.0, sigma2_dbm=-35.0)
        with pytest.raises(ValueError, match="float range"):
            config_from_scenario(**{**args, **kwargs})


def test_pathloss_exponent_field():
    cfg = config_from_scenario(
        n_bs=5, m1=3, m2=3, d1=250.0, d2=50.0, pt_dbm=30.0, sigma2_dbm=-35.0,
        exponent=3.0,
    )
    assert cfg.pathloss1 == pytest.approx(250.0**3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_bs=0, m1=1, m2=1, pathloss1=2.0, pathloss2=1.0, power_budget=1.0, noise_power=1.0),
        dict(n_bs=5, m1=2, m2=2, pathloss1=2.0, pathloss2=1.0, power_budget=1.0, noise_power=1.0),
        dict(n_bs=2, m1=1, m2=1, pathloss1=1.0, pathloss2=2.0, power_budget=1.0, noise_power=1.0),
        dict(n_bs=2, m1=1, m2=1, pathloss1=2.0, pathloss2=1.0, power_budget=0.0, noise_power=1.0),
        dict(n_bs=2, m1=1, m2=1, pathloss1=2.0, pathloss2=1.0, power_budget=1.0, noise_power=0.0),
        dict(n_bs=2, m1=1, m2=1, pathloss1=np.inf, pathloss2=1.0, power_budget=1.0, noise_power=1.0),
        dict(n_bs=2, m1=1, m2=1, pathloss1=np.nan, pathloss2=1.0, power_budget=1.0, noise_power=1.0),
        dict(n_bs=2, m1=1, m2=1, pathloss1=2.0, pathloss2=np.nan, power_budget=1.0, noise_power=1.0),
        dict(n_bs=2, m1=1, m2=1, pathloss1=2.0, pathloss2=1.0, power_budget=np.nan, noise_power=1.0),
        dict(n_bs=2, m1=1, m2=1, pathloss1=2.0, pathloss2=1.0, power_budget=np.inf, noise_power=1.0),
        dict(n_bs=2, m1=1, m2=1, pathloss1=2.0, pathloss2=1.0, power_budget=1.0, noise_power=np.nan),
        dict(n_bs=2, m1=1, m2=1, pathloss1=2.0, pathloss2=1.0, power_budget=1.0, noise_power=np.inf),
    ],
)
def test_system_config_invariants(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_channel_pair_rejects_nonfinite():
    from stnoma.system import ChannelPair

    bad = np.array([[np.inf + 0j, 0], [0, 1]])
    with pytest.raises(ValueError):
        ChannelPair(h1=bad, h2=np.eye(2, dtype=complex))

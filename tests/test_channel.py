import numpy as np
import pytest

from iovslice.channel import (
    ChannelConfig,
    breakpoint_distance_m,
    draw_channel,
    noise_lin_mw,
    pathloss_db,
    trace_hash,
)
from iovslice.scenario import RoadConfig, generate_vehicles

from conftest import hand_built_scenario


def test_breakpoint_distance():
    assert breakpoint_distance_m(ChannelConfig()) == pytest.approx(6.6667, abs=1e-3)


def test_pathloss_far_branch_value():
    # 40*log10(10) + 9.45 - 2*17.3*log10(0.5) + 2.7*log10(0.4), evaluated by hand
    assert pathloss_db(10.0, ChannelConfig()) == pytest.approx(58.7912, abs=1e-3)


def test_pathloss_monotone_and_clamped():
    cfg = ChannelConfig()
    assert pathloss_db(100.0, cfg) > pathloss_db(10.0, cfg)
    assert pathloss_db(1.0, cfg) == pathloss_db(3.0, cfg)
    # both branches individually increase in distance
    near = [pathloss_db(d, cfg) for d in np.linspace(3.0, 6.6, 30)]
    far = [pathloss_db(d, cfg) for d in np.linspace(6.7, 2000.0, 200)]
    assert all(a < b for a, b in zip(near, near[1:]))
    assert all(a < b for a, b in zip(far, far[1:]))


def test_pathloss_finite_over_road():
    cfg = ChannelConfig()
    for d in np.linspace(0.0, 2000.0, 500):
        pl = pathloss_db(float(d), cfg)
        assert np.isfinite(pl) and pl > 0


def test_noise_levels():
    assert noise_lin_mw(ChannelConfig()) == pytest.approx(10 ** (-10.5), rel=1e-12)
    assert noise_lin_mw(ChannelConfig(noise_figure_db=0.0)) == pytest.approx(
        10 ** (-11.4), rel=1e-12
    )
    assert noise_lin_mw(ChannelConfig(noise_figure_db=9.0)) > noise_lin_mw(
        ChannelConfig(noise_figure_db=3.0)
    )


def test_deterministic_component_decomposition(rng):
    # with zero shadowing the deterministic part is exactly gains minus pathloss
    cfg = ChannelConfig(shadow_sigma_db=0.0)
    sc = hand_built_scenario([0.0, 500.0], [100.0, 900.0])
    state = draw_channel(sc, cfg, F=2, T=4, rng=rng)
    for i in range(2):
        for j in range(2):
            expected = 6.0 - pathloss_db(state.dist_m[i, j], cfg)
            assert state.large_scale_db[i, j] == pytest.approx(expected, abs=1e-12)
    # fading factors out exactly
    assert np.allclose(
        state.gain_lin,
        10 ** (state.large_scale_db / 10)[:, :, None, None] * state.fastfade_pow,
    )


def test_equal_distance_links_share_deterministic_gain(rng):
    cfg = ChannelConfig(shadow_sigma_db=0.0)
    sc = hand_built_scenario([0.0, 200.0], [100.0, 300.0])  # both links span 100 m
    state = draw_channel(sc, cfg, F=1, T=1, rng=rng)
    assert state.large_scale_db[0, 0] == pytest.approx(state.large_scale_db[1, 1])


def test_fastfade_unit_mean(rng):
    sc = hand_built_scenario([0.0, 100.0], [50.0, 150.0])
    state = draw_channel(sc, ChannelConfig(), F=5, T=5000, rng=rng)  # 1e5 draws
    assert state.fastfade_pow.size == 100_000
    assert 0.99 <= state.fastfade_pow.mean() <= 1.01


def test_gains_finite_nonnegative(rng):
    sc = generate_vehicles(RoadConfig(), 3, 4, rng)
    state = draw_channel(sc, ChannelConfig(), F=2, T=20, rng=rng)
    assert np.all(np.isfinite(state.gain_lin)) and np.all(state.gain_lin >= 0)
    assert np.all(state.fastfade_pow >= 0)


def test_draw_channel_rejects_bad_dims(rng):
    sc = hand_built_scenario([0.0], [100.0])
    with pytest.raises(ValueError):
        draw_channel(sc, ChannelConfig(), F=0, T=5, rng=rng)


def test_trace_hash_distinguishes_draws(rng):
    sc = hand_built_scenario([0.0], [100.0])
    a = draw_channel(sc, ChannelConfig(), 2, 4, np.random.default_rng(1))
    b = draw_channel(sc, ChannelConfig(), 2, 4, np.random.default_rng(1))
    c = draw_channel(sc, ChannelConfig(), 2, 4, np.random.default_rng(2))
    assert trace_hash(a) == trace_hash(b)
    assert trace_hash(a) != trace_hash(c)

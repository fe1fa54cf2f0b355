import numpy as np
import pytest

from iovslice.channel import ChannelConfig, ChannelState
from iovslice.scenario import (
    Packet,
    RoadConfig,
    Scenario,
    Vehicle,
    SLICE_SAFETY,
    SLICE_THROUGHPUT,
)


def hand_built_scenario(src_x, dst_x, packets=None, road=None):
    """Scenario with vehicles at given x positions, all on lane 1 (y=2 m)."""
    road = road or RoadConfig()
    sources = tuple(Vehicle(1, float(x), 60 / 3.6) for x in src_x)
    dests = tuple(Vehicle(1, float(x), 60 / 3.6) for x in dst_x)
    if packets is None:
        packets = [Packet(SLICE_THROUGHPUT, 5e5, 0, 19), Packet(SLICE_SAFETY, 4800.0, 0, 7)] * len(src_x)
    return Scenario(road=road, sources=sources, destinations=dests, packets=tuple(packets))


def forced_channel(scenario, gain_db, F=1, T=20):
    """ChannelState with every link pinned to one flat gain (dB), fading off."""
    m, n = scenario.m, scenario.n
    from iovslice.channel import link_distances

    dist = link_distances(scenario)
    large = np.full((m, n), float(gain_db))
    fade = np.ones((m, n, F, T))
    gain = 10.0 ** (large / 10.0)
    return ChannelState(
        dist_m=dist,
        large_scale_db=large,
        fastfade_pow=fade,
        gain_lin=gain[:, :, None, None] * fade,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def channel_cfg():
    return ChannelConfig()

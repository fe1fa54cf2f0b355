import contextlib

import numpy as np
import pytest

from iovslice import phy
from iovslice.dqn import kernels
from iovslice.channel import ChannelConfig, ChannelState, noise_lin_mw
from iovslice.scenario import (
    Packet,
    RoadConfig,
    Scenario,
    Vehicle,
    SLICE_SAFETY,
)


def hand_built_scenario(src_x, dst_x, packets=None, road=None):
    """Scenario with vehicles at given x positions, all on lane 1 (y=2 m)."""
    road = road or RoadConfig()
    sources = tuple(Vehicle(1, float(x), 60 / 3.6) for x in src_x)
    dests = tuple(Vehicle(1, float(x), 60 / 3.6) for x in dst_x)
    if packets is None:
        packets = [Packet(5e5, 0, 19), Packet(4800.0, 0, 7)] * len(src_x)
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


def reference_rates(effective, gain_slot, noise_mw, rb_bandwidth_hz):
    """Broadcast rate per source from first principles, with no resource
    block bucketing and no lone-source shortcut: for each on-air source with
    a non-empty group and each member d, `phy.sic_sinr` at d over every
    on-air source on the source's block; the min over the group, through
    `phy.rate_bps`. `effective` and `gain_slot` are `phy.slot_rates`'."""
    sending = [s for s, e in enumerate(effective) if e[0] != phy.PKT_NONE]
    rates = [0.0] * len(effective)
    for src in sending:
        _, group, freq, _ = effective[src]
        if group:
            on_block = [s for s in sending if effective[s][2] == freq]
            worst = min(
                phy.sic_sinr([(s, effective[s][3] * gain_slot[s][d][freq]) for s in on_block], noise_mw)[src]
                for d in group
            )
            rates[src] = phy.rate_bps(worst, rb_bandwidth_hz)
    return rates


def reference_slot(ledger, actions, chan, cfg, slot, slot_duration_s):
    """One slot resolved from first principles, with no link table, no memo
    and no `phy.on_air`: drop a delivered packet and a safety packet outside
    its window (slice 1 has no window test here, so the uniform window rule
    is checked against generated packets), put nothing on the air for no
    packet, a radius of at most 0 or zero linear power, solve
    `reference_rates` on the effective choices, then drain and mark the
    reached destinations. Returns the ledger after the slot and one
    `phy.SourceEffect` per source: (packet index or -1, bits, group
    bitmask, rate)."""
    effective = []
    for src, (pkt, coverage_m, freq, power_dbm) in enumerate(actions):
        if pkt != phy.PKT_NONE:
            packet, left = ledger.packets[2 * src + (pkt - 1)], ledger.leftover_bits[2 * src + (pkt - 1)]
            if left == 0.0 or (pkt == SLICE_SAFETY and not packet.arrival_slot <= slot <= packet.deadline_slot):
                pkt = phy.PKT_NONE
        p_mw = phy.power_lin_mw(power_dbm)
        if pkt == phy.PKT_NONE or coverage_m <= 0 or p_mw == 0.0:
            effective.append((phy.PKT_NONE, (), 0, 0.0))
        else:
            effective.append((pkt, phy.coverage_group(chan.dist_m[src], coverage_m), freq, p_mw))
    rates = reference_rates(effective, chan.gain_lin[:, :, :, slot], noise_lin_mw(cfg), cfg.rb_bandwidth_hz)
    leftover, reached, effects = list(ledger.leftover_bits), list(ledger.reached), []
    for src, ((pkt, group, _, _), rate) in enumerate(zip(effective, rates)):
        if pkt == phy.PKT_NONE:
            effects.append((-1, 0.0, 0, 0.0))
            continue
        k, bits, group_mask = 2 * src + (pkt - 1), rate * slot_duration_s, sum(1 << d for d in group)
        leftover[k] = max(0.0, leftover[k] - bits)
        reached[k] |= group_mask
        effects.append((k, bits, group_mask, rate))
    return ledger._replace(leftover_bits=tuple(leftover), reached=tuple(reached)), effects


def reference_useful(ledger, src, act, slot, link):
    """The useful rule one choice at a time: `phy.on_air`, and a broadcast
    group that reaches someone."""
    return phy.on_air(ledger, src, act, slot) and bool(link.group(src, act[1]))


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """One kernel build cache for the session, this process's and the
    processes it starts, instead of the user's."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(cache))
        patch.setattr(kernels, "CACHE_DIR", cache / "iovslice")
        yield cache


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def channel_cfg():
    return ChannelConfig()


@contextlib.contextmanager
def forced_fallback():
    """Run Adam and the replay on their numpy and memoryview code, as a
    failed build of `_kernels.c` would make them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "library", lambda: None)
        yield


@contextlib.contextmanager
def forced_no_blas():
    """Run the network's passes as numpy code while Adam and the replay keep
    their kernels, as a numpy not linked to the ILP64 scipy-openblas would."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "blas", lambda: None)
        yield


def require_kernels():
    if kernels.library() is None:
        pytest.skip("the kernels cannot be built here")

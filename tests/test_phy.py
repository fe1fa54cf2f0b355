import math

import numpy as np
import pytest

from iovslice import phy
from iovslice.channel import ChannelConfig, noise_lin_mw

from tests.conftest import forced_channel, hand_built_scenario


def test_sic_single_transmitter():
    assert phy.sic_sinr([(0, 2.0)], 1.0) == {0: 2.0}


def test_sic_two_transmitters_hand_values():
    out = phy.sic_sinr([(0, 9.0), (1, 3.0)], 1.0)
    assert out[0] == pytest.approx(2.25)  # 9 / (3 + 1)
    assert out[1] == pytest.approx(3.0)  # 3 / 1 after cancelling the stronger
    assert phy.sic_sinr([], 1.0) == {}


def test_sic_silence_sentinel_negligible():
    # received powers for 30 / 23 dBm transmitters over a -100 dB channel,
    # plus a -100 dBm transmitter leaking through the same channel
    noise = noise_lin_mw(ChannelConfig())
    gain = 1e-10
    base = phy.sic_sinr([(0, 1000.0 * gain), (1, 200.0 * gain)], noise)
    with_ghost = phy.sic_sinr(
        [(0, 1000.0 * gain), (1, 200.0 * gain), (2, 1e-10 * gain)], noise
    )
    for k in base:
        assert round(with_ghost[k], 6) == round(base[k], 6)


def test_sic_sum_rate_identity():
    # sum of per-stage log rates equals the multiple-access sum capacity
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        k = int(rng.integers(1, 6))
        powers = rng.uniform(1e-12, 1e-6, size=k)
        noise = rng.uniform(1e-12, 1e-9)
        sinrs = phy.sic_sinr(list(enumerate(powers)), noise)
        lhs = sum(math.log2(1 + s) for s in sinrs.values())
        rhs = math.log2(1 + powers.sum() / noise)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_sic_removing_interferer_never_hurts():
    rng = np.random.default_rng(11)
    for _ in range(500):
        k = int(rng.integers(2, 6))
        powers = list(enumerate(rng.uniform(1e-12, 1e-6, size=k)))
        noise = rng.uniform(1e-12, 1e-9)
        full = phy.sic_sinr(powers, noise)
        drop = int(rng.integers(k))
        reduced = phy.sic_sinr([p for p in powers if p[0] != drop], noise)
        for tid, sinr in reduced.items():
            assert sinr >= full[tid] * (1 - 1e-12)


def test_sic_oma_special_case():
    assert phy.sic_sinr([(4, 7e-9)], 1e-10)[4] == pytest.approx(70.0)


def test_sic_tie_break_by_id():
    out = phy.sic_sinr([(3, 2.0), (1, 2.0)], 1.0)
    # id 1 decoded first, sees id 3 as interference
    assert out[1] == pytest.approx(2.0 / 3.0)
    assert out[3] == pytest.approx(2.0)


def test_rate_examples():
    assert phy.rate_bps(1.0, 1e6) == pytest.approx(1e6)
    assert phy.rate_bps(0.0, 1e6) == 0.0
    assert phy.rate_bps(3.0, 1e6) == pytest.approx(2e6)
    with pytest.raises(ValueError):
        phy.rate_bps(-0.1, 1e6)


def test_power_lin_silence_exact_zero():
    assert phy.power_lin_mw(phy.SILENCE_POWER_DBM) == 0.0
    assert phy.power_lin_mw(30.0) == pytest.approx(1000.0)


def test_coverage_group():
    dist = np.array([50.0, 350.0, 900.0])
    assert phy.coverage_group(dist, 0.0) == ()
    assert phy.coverage_group(dist, 100.0) == (0,)
    assert phy.coverage_group(dist, 400.0) == (0, 1)
    assert phy.coverage_group(dist, 1400.0) == (0, 1, 2)


def _slot_args(sc, chan, cfg, t=0):
    return (
        chan.gain_lin[:, :, :, t],
        chan.dist_m,
        noise_lin_mw(cfg),
        cfg.rb_bandwidth_hz,
        t,
        0.005,
    )


def test_group_rate_min_semantics():
    cfg = ChannelConfig()
    # one source, two destinations at very different ranges
    sc = hand_built_scenario([0.0], [100.0, 1000.0])
    chan = forced_channel(sc, -80.0)
    chan.large_scale_db[0, 1] = -95.0
    chan.gain_lin[0, 1] = 10 ** (-9.5)
    ledger = phy.DeliveryLedger(sc.packets)
    act_near = phy.SlotAction(phy.PKT_SLICE1, 100.0, 0, 30.0)
    out = phy.apply_slot(ledger.copy(), [act_near], *_slot_args(sc, chan, cfg))
    near_rate = out[0].rate_bps
    act_both = phy.SlotAction(phy.PKT_SLICE1, 1400.0, 0, 30.0)
    out = phy.apply_slot(ledger.copy(), [act_both], *_slot_args(sc, chan, cfg))
    both = out[0]
    assert both.group == (0, 1)
    assert both.rate_bps < near_rate  # min over members
    single_far = phy.sic_sinr([(0, 1000.0 * 10 ** (-9.5))], noise_lin_mw(cfg))[0]
    assert both.rate_bps == pytest.approx(phy.rate_bps(single_far, 1e6))


def test_group_rate_zero_cases():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0], [100.0])
    chan = forced_channel(sc, -80.0)
    ledger = phy.DeliveryLedger(sc.packets)
    # coverage zero: no transmission at all
    out = phy.apply_slot(
        ledger.copy(),
        [phy.SlotAction(phy.PKT_SLICE1, 0.0, 0, 30.0)],
        *_slot_args(sc, chan, cfg),
    )
    assert not out[0].transmitted and out[0].rate_bps == 0.0
    # coverage 50 m but nearest destination 100 m away: on air, empty group
    out = phy.apply_slot(
        ledger.copy(),
        [phy.SlotAction(phy.PKT_SLICE1, 50.0, 0, 30.0)],
        *_slot_args(sc, chan, cfg),
    )
    assert out[0].transmitted and out[0].group == () and out[0].rate_bps == 0.0


def test_apply_slot_delivery_arithmetic():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0], [100.0])
    # pin the received SNR so the rate is exactly 1 Mbps: sinr = 1
    chan = forced_channel(sc, -80.0)
    p_mw = phy.power_lin_mw(30.0)
    noise = noise_lin_mw(cfg)
    gain = noise / p_mw  # rx power equals noise -> sinr 1 -> 1 Mbps
    chan.gain_lin[:] = gain
    ledger = phy.DeliveryLedger(sc.packets)
    act = phy.SlotAction(phy.PKT_SLICE2, 100.0, 0, 30.0)
    out = phy.apply_slot(ledger, [act], *_slot_args(sc, chan, cfg))
    # 1 Mbps * 5 ms = 5000 bits >= 4800: delivered in one slot
    assert out[0].delivered_now
    assert ledger.leftover_bits[1] == 0.0
    assert ledger.delivered[1]
    # slice 1 at 1 Mbps: 5e5 - 5000 bits left
    ledger2 = phy.DeliveryLedger(sc.packets)
    out = phy.apply_slot(
        ledger2, [phy.SlotAction(phy.PKT_SLICE1, 100.0, 0, 30.0)], *_slot_args(sc, chan, cfg)
    )
    assert not out[0].delivered_now
    assert ledger2.leftover_bits[0] == pytest.approx(5e5 - 5000.0)


def test_apply_slot_masks_delivered_packets():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0], [100.0])
    chan = forced_channel(sc, -60.0)  # very strong link
    ledger = phy.DeliveryLedger(sc.packets)
    act = phy.SlotAction(phy.PKT_SLICE2, 100.0, 0, 30.0)
    out = phy.apply_slot(ledger, [act], *_slot_args(sc, chan, cfg, t=0))
    assert out[0].delivered_now
    # re-choosing the delivered packet is silently a no-op
    out = phy.apply_slot(ledger, [act], *_slot_args(sc, chan, cfg, t=1))
    assert not out[0].transmitted
    assert ledger.leftover_bits[1] == 0.0


def test_apply_slot_silences_out_of_window_slice2():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0], [100.0])  # slice 2 window is slots 0..7
    chan = forced_channel(sc, -60.0)  # strong enough to deliver in one slot
    ledger = phy.DeliveryLedger(sc.packets)
    act = phy.SlotAction(phy.PKT_SLICE2, 100.0, 0, 30.0)
    out = phy.apply_slot(ledger, [act], *_slot_args(sc, chan, cfg, t=8))
    assert not out[0].transmitted and out[0].packet_id == phy.PKT_NONE
    assert np.array_equal(ledger.leftover_bits, [5e5, 4800.0])
    assert not ledger.delivered.any()
    assert ledger.reached == [set(), set()]


def test_mask_packet_choice_window():
    sc = hand_built_scenario([0.0], [100.0])
    ledger = phy.DeliveryLedger(sc.packets)
    assert phy.mask_packet_choice(ledger, 0, phy.PKT_SLICE2, 0) == phy.PKT_SLICE2
    assert phy.mask_packet_choice(ledger, 0, phy.PKT_SLICE2, 8) == phy.PKT_NONE
    assert phy.mask_packet_choice(ledger, 0, phy.PKT_NONE, 3) == phy.PKT_NONE


def test_ledger_monotone_under_random_actions(rng):
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0, 400.0], [100.0, 700.0])
    chan = forced_channel(sc, -85.0, F=2)
    ledger = phy.DeliveryLedger(sc.packets)
    prev_leftover = ledger.leftover_bits.copy()
    prev_delivered = ledger.delivered.copy()
    for t in range(20):
        actions = [
            phy.SlotAction(
                int(rng.integers(3)),
                float(rng.choice([0.0, 100.0, 400.0, 1400.0])),
                int(rng.integers(2)),
                float(rng.choice([-100.0, 15.0, 30.0])),
            )
            for _ in range(2)
        ]
        phy.apply_slot(ledger, actions, *_slot_args(sc, chan, cfg, t=t))
        assert np.all(ledger.leftover_bits <= prev_leftover + 1e-12)
        assert np.all(ledger.delivered >= prev_delivered)  # flags never unset
        prev_leftover = ledger.leftover_bits.copy()
        prev_delivered = ledger.delivered.copy()


def test_prr_examples():
    sc = hand_built_scenario([0.0, 300.0], [100.0, 400.0])
    ledger = phy.DeliveryLedger(sc.packets)
    # nothing reached: PRR undefined
    assert phy.reception_stats(ledger).prr is None
    # packet 0 reached 3 receivers and delivered; packet 2 reached 2, not delivered
    ledger.reached[0] = {0, 1, 2}
    ledger.delivered[0] = True
    ledger.reached[2] = {0, 1}
    stats = phy.reception_stats(ledger)
    assert stats.prr == pytest.approx(3 / 5)
    assert stats.receptions == (3, 0)
    assert stats.packets == (1, 0)
    # everything delivered
    ledger.delivered[2] = True
    assert phy.reception_stats(ledger).prr == pytest.approx(1.0)
    # nothing delivered
    ledger.delivered[0] = False
    ledger.delivered[2] = False
    assert phy.reception_stats(ledger).prr == 0.0

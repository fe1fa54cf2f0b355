import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iovslice import phy
from iovslice.channel import ChannelConfig, noise_lin_mw
from iovslice.env import EnvConfig
from iovslice.scenario import Packet, RoadConfig, SLICE_SAFETY, SLICE_THROUGHPUT, packet_index
from iovslice.worlds import TAG_EVAL, WorkloadConfig, WorldStream

from conftest import forced_channel, hand_built_scenario, reference_slot, reference_useful


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_in_coverage_grid_matches_coverage_group(data):
    # the (source, destination, slot) membership grid the baselines' allocation
    # builds in one call, against each group on its own and a hand rule; radii
    # are the action table's levels, 0 and the link distances themselves
    m, n, T = (data.draw(st.integers(1, hi)) for hi in (4, 12, 6))
    levels = st.sampled_from(phy.COVERAGE_LEVELS_M)

    def grid(elements, cols):  # an (m, cols) array of draws
        return np.array(data.draw(st.lists(st.lists(elements, min_size=cols, max_size=cols), min_size=m, max_size=m)))

    dist = grid(levels | st.floats(0.0, 2000.0), n)
    coverage = grid(levels | st.sampled_from(dist.ravel().tolist()), T)
    member = phy.in_coverage(dist[:, :, None], coverage[:, None, :])
    assert member.shape == (m, n, T)
    for s in range(m):
        for t in range(T):
            cov = float(coverage[s, t])
            group = phy.coverage_group(dist[s], cov)
            assert group == tuple(d for d in range(n) if cov > 0 and dist[s, d] <= cov)
            assert group == tuple(np.flatnonzero(member[s, :, t]).tolist())
            assert all(type(d) is int for d in group)


def _slot_args(sc, chan, cfg, t=0):
    return (phy.EpisodeLink(chan, cfg, 0.005), t)


def test_group_rate_min_semantics():
    cfg = ChannelConfig()
    # one source, two destinations at very different ranges
    sc = hand_built_scenario([0.0], [100.0, 1000.0])
    chan = forced_channel(sc, -80.0)
    chan.large_scale_db[0, 1] = -95.0
    chan.gain_lin[0, 1] = 10 ** (-9.5)
    ledger = phy.DeliveryLedger.start(sc.packets)
    act_near = phy.SlotAction(SLICE_THROUGHPUT, 100.0, 0, 30.0)
    _, effects = phy.apply_slot(ledger, [act_near], *_slot_args(sc, chan, cfg))
    near_rate = effects[0][3]
    act_both = phy.SlotAction(SLICE_THROUGHPUT, 1400.0, 0, 30.0)
    _, effects = phy.apply_slot(ledger, [act_both], *_slot_args(sc, chan, cfg))
    _, _, group_mask, rate = effects[0]
    assert group_mask == 0b11
    assert rate < near_rate  # min over members
    single_far = phy.sic_sinr([(0, 1000.0 * 10 ** (-9.5))], noise_lin_mw(cfg))[0]
    assert rate == pytest.approx(phy.rate_bps(single_far, 1e6))


def test_group_rate_zero_cases():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0], [100.0])
    chan = forced_channel(sc, -80.0)
    ledger = phy.DeliveryLedger.start(sc.packets)
    # coverage zero: no transmission at all
    _, effects = phy.apply_slot(
        ledger,
        [phy.SlotAction(SLICE_THROUGHPUT, 0.0, 0, 30.0)],
        *_slot_args(sc, chan, cfg),
    )
    k, _, _, rate = effects[0]
    assert k < 0 and rate == 0.0
    # coverage 50 m but nearest destination 100 m away: on air, empty group
    _, effects = phy.apply_slot(
        ledger,
        [phy.SlotAction(SLICE_THROUGHPUT, 50.0, 0, 30.0)],
        *_slot_args(sc, chan, cfg),
    )
    k, _, group_mask, rate = effects[0]
    assert k >= 0 and group_mask == 0 and rate == 0.0


def test_apply_slot_delivery_arithmetic():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0], [100.0])
    # pin the received SNR so the rate is exactly 1 Mbps: sinr = 1
    chan = forced_channel(sc, -80.0)
    p_mw = phy.power_lin_mw(30.0)
    noise = noise_lin_mw(cfg)
    gain = noise / p_mw  # rx power equals noise -> sinr 1 -> 1 Mbps
    chan.gain_lin[:] = gain
    ledger = phy.DeliveryLedger.start(sc.packets)
    act = phy.SlotAction(SLICE_SAFETY, 100.0, 0, 30.0)
    ledger, effects = phy.apply_slot(ledger, [act], *_slot_args(sc, chan, cfg))
    # 1 Mbps * 5 ms = 5000 bits >= 4800: delivered in one slot
    k, bits, _, _ = effects[0]
    assert k == 1 and bits == pytest.approx(5000.0)
    assert ledger.leftover_bits[1] == 0.0  # delivered now
    assert phy.reception_stats(ledger).packets == (0, 1)
    # slice 1 at 1 Mbps: 5e5 - 5000 bits left
    ledger2, effects = phy.apply_slot(
        phy.DeliveryLedger.start(sc.packets),
        [phy.SlotAction(SLICE_THROUGHPUT, 100.0, 0, 30.0)],
        *_slot_args(sc, chan, cfg),
    )
    assert effects[0][0] == 0 and ledger2.leftover_bits[0] > 0.0  # still sending
    assert ledger2.leftover_bits[0] == pytest.approx(5e5 - 5000.0)


@pytest.mark.parametrize(
    "leftover, tails, expected",
    [
        ((0.0, 5.0, 0.0), {}, 2),  # no tails: the delivered count
        ((0.0, 5.0), {0: (1.0,), 1: ()}, 1),  # a delivered packet still listed counts once
        ((3.0,), {0: (1.0, 2.0)}, 1),  # a tail summing exactly to the leftover drains it
        ((3.0,), {0: (1.0, math.nextafter(2.0, 0.0))}, 0),  # one a ulp short does not
    ],
    ids=["no-tails", "delivered-listed", "exact-sum", "ulp-short"],
)
def test_reach_table(leftover, tails, expected):
    assert phy.reach(leftover, tails) == expected


def test_apply_slot_masks_delivered_packets():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0], [100.0])
    chan = forced_channel(sc, -60.0)  # very strong link
    ledger = phy.DeliveryLedger.start(sc.packets)
    act = phy.SlotAction(SLICE_SAFETY, 100.0, 0, 30.0)
    ledger, effects = phy.apply_slot(ledger, [act], *_slot_args(sc, chan, cfg, t=0))
    assert effects[0][0] == 1 and ledger.leftover_bits[1] == 0.0  # delivered now
    # re-choosing the delivered packet is silently a no-op
    ledger, effects = phy.apply_slot(ledger, [act], *_slot_args(sc, chan, cfg, t=1))
    assert effects[0][0] < 0
    assert ledger.leftover_bits[1] == 0.0


def test_apply_slot_silences_out_of_window_slice2():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0], [100.0])  # slice 2 window is slots 0..7
    chan = forced_channel(sc, -60.0)  # strong enough to deliver in one slot
    act = phy.SlotAction(SLICE_SAFETY, 100.0, 0, 30.0)
    ledger, effects = phy.apply_slot(phy.DeliveryLedger.start(sc.packets), [act], *_slot_args(sc, chan, cfg, t=8))
    assert effects[0] == (-1, 0.0, 0, 0.0)  # off the air
    assert ledger.leftover_bits == (5e5, 4800.0)
    assert 0.0 not in ledger.leftover_bits  # nothing delivered
    assert ledger.reached == (0, 0)


@pytest.mark.parametrize(
    "act, slot, delivered, expected",
    [
        ((phy.PKT_NONE, 400.0, 0, 30.0), 4, False, False),  # no packet
        ((SLICE_SAFETY, 0.0, 0, 30.0), 4, False, False),  # radius 0
        ((SLICE_SAFETY, 400.0, 0, phy.SILENCE_POWER_DBM), 4, False, False),  # silence
        ((SLICE_SAFETY, 400.0, 0, 30.0), 4, True, False),  # delivered
        ((SLICE_SAFETY, 400.0, 0, 30.0), 2, False, False),  # before arrival
        ((SLICE_SAFETY, 400.0, 0, 30.0), 8, False, False),  # after deadline
        ((SLICE_THROUGHPUT, 400.0, 0, 15.0), 20, False, False),  # after slice 1's deadline
        ((SLICE_SAFETY, 400.0, 1, 15.0), 3, False, True),  # on air, first slot of the window
        ((SLICE_SAFETY, 100.0, 0, 30.0), 7, False, True),  # on air, last slot of the window
        ((SLICE_THROUGHPUT, 1400.0, 0, 23.0), 0, False, True),  # on air
    ],
    ids=[
        "no-packet",
        "radius-0",
        "silence",
        "delivered",
        "before-arrival",
        "after-deadline",
        "slice1-after-deadline",
        "on-air-at-arrival",
        "on-air-at-deadline",
        "on-air",
    ],
)
def test_on_air_clauses(act, slot, delivered, expected):
    packets = [Packet(5e5, 0, 19), Packet(4800.0, 3, 7)]
    sc = hand_built_scenario([0.0], [100.0], packets=packets)
    ledger = phy.DeliveryLedger.start(sc.packets)
    if delivered:
        k = act[0] - 1
        ledger = ledger._replace(leftover_bits=tuple(0.0 if j == k else x for j, x in enumerate(ledger.leftover_bits)))
    assert phy.on_air(ledger, 0, act, slot) is expected


def test_useful_needs_a_nonempty_group():
    sc = hand_built_scenario([0.0], [300.0])
    link = phy.EpisodeLink(forced_channel(sc, -80.0), ChannelConfig(), 0.005)
    ledger = phy.DeliveryLedger.start(sc.packets)
    near, wide = phy.SlotAction(SLICE_THROUGHPUT, 100.0, 0, 30.0), phy.SlotAction(SLICE_THROUGHPUT, 400.0, 0, 30.0)
    assert phy.on_air(ledger, 0, near, 0) and not reference_useful(ledger, 0, near, 0, link)
    assert reference_useful(ledger, 0, wide, 0, link)
    table = phy.action_table(1)
    air, useful = phy.useful_mask(ledger, 0, 0, link)
    assert air[table.index(near)] and not useful[table.index(near)]
    assert useful[table.index(wide)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_useful_mask_matches_scalar_rule(data):
    """Over random worlds, ledgers, sources and slots, the table-wide flags
    are `phy.on_air` and the scalar useful rule, entry by entry."""
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    F, T = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 6))
    env_cfg = EnvConfig(m=m, n=n, F=F, T=T)
    workload = WorkloadConfig(deadline_len_slots=data.draw(st.integers(1, T)))
    seed = data.draw(st.integers(0, 999))
    sc, link = WorldStream(RoadConfig(), env_cfg, ChannelConfig(), workload, seed, TAG_EVAL)(0)
    zeroed = data.draw(st.sets(st.integers(0, 2 * m - 1)))  # some packets delivered by hand
    ledger = phy.DeliveryLedger.start(sc.packets)
    ledger = ledger._replace(leftover_bits=tuple(0.0 if k in zeroed else x for k, x in enumerate(ledger.leftover_bits)))
    src, slot = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, T - 1))
    table = phy.action_table(F)
    air, useful = phy.useful_mask(ledger, src, slot, link)
    assert air.dtype == useful.dtype == bool and air.shape == useful.shape == (len(table),)
    assert air.tolist() == [phy.on_air(ledger, src, act, slot) for act in table]
    assert useful.tolist() == [reference_useful(ledger, src, act, slot, link) for act in table]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_reader_agrees_on_the_packet_layout(data):
    """Over generated worlds, every choice `phy.on_air` admits drains the
    packet `packet_index` names, the one generated for the chosen slice
    (slice-1 sizes are drawn above the safety size, so the size tells the
    slices apart), and no other; `useful_mask` flags a choice only while
    that packet is undelivered and open; and `reception_stats` credits its
    delivery to the chosen slice."""
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    F, T = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 5))
    env_cfg = EnvConfig(m=m, n=n, F=F, T=T)
    workload = WorkloadConfig(slice1_bits_min=5e3, slice1_bits_max=5e4, deadline_len_slots=data.draw(st.integers(1, T)))
    seed = data.draw(st.integers(0, 999))
    sc, link = WorldStream(RoadConfig(), env_cfg, ChannelConfig(), workload, seed, TAG_EVAL)(0)
    zeroed = data.draw(st.sets(st.integers(0, 2 * m - 1)))  # some packets delivered by hand, reaching no one
    ledger = phy.DeliveryLedger.start(sc.packets)
    ledger = ledger._replace(leftover_bits=tuple(0.0 if k in zeroed else x for k, x in enumerate(ledger.leftover_bits)))
    credited = phy.reception_stats(ledger).packets
    table = phy.action_table(F)
    for t in range(T):
        for src in range(m):
            useful = phy.useful_mask(ledger, src, t, link)[1]
            for act, flagged in zip(table, useful.tolist()):
                if not phy.on_air(ledger, src, act, t):
                    assert not flagged
                    continue
                k = packet_index(src, act.packet_id)
                assert (sc.packets[k].size_bits == workload.slice2_bits) == (act.packet_id == SLICE_SAFETY)
                assert ledger.leftover_bits[k] > 0.0 and sc.packets[k].open_at(t)
                column = [phy.OFF_AIR] * m
                column[src] = act
                after, effects = phy.apply_slot(ledger, column, link, t)
                assert effects[src][0] == k
                fell = [j for j, (a, b) in enumerate(zip(after.leftover_bits, ledger.leftover_bits)) if a < b]
                assert fell == ([k] if effects[src][1] > 0.0 else [])
                expected = list(credited)
                expected[act.packet_id - 1] += after.leftover_bits[k] == 0.0 and after.reached[k] != 0
                assert list(phy.reception_stats(after).packets) == expected


def test_ledger_monotone_under_random_actions(rng):
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0, 400.0], [100.0, 700.0])
    chan = forced_channel(sc, -85.0, F=2)
    ledger = phy.DeliveryLedger.start(sc.packets)
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
        snapshot = phy.DeliveryLedger(ledger.packets, tuple(ledger.leftover_bits), tuple(ledger.reached))
        after, effects = phy.apply_slot(ledger, actions, *_slot_args(sc, chan, cfg, t=t))
        assert ledger == snapshot  # the input ledger is left as it was
        _assert_slot_step(ledger, after, effects)
        assert all(a <= b + 1e-12 for a, b in zip(after.leftover_bits, ledger.leftover_bits))
        # delivery never comes undone
        assert all(a == 0.0 for a, b in zip(after.leftover_bits, ledger.leftover_bits) if b == 0.0)
        ledger = after


def _assert_slot_step(before, after, effects):
    """What one `apply_slot` step may do to a ledger: reached bits only
    grow, only a packet an on-air effect of its own source names changes,
    and a packet's leftover goes from >0 to 0.0 only when such an effect
    names it."""
    assert after.packets is before.packets
    for new, old in zip(after.reached, before.reached):
        assert new & old == old
    named = {k for k, *_ in effects if k >= 0}
    for src, (k, *_) in enumerate(effects):
        assert k < 0 or k // 2 == src
    for k in range(len(before.packets)):
        if k not in named:
            assert (after.leftover_bits[k], after.reached[k]) == (before.leftover_bits[k], before.reached[k])
        elif after.leftover_bits[k] == 0.0:
            assert before.leftover_bits[k] > 0.0  # delivered now: `on_air` names undelivered packets only


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ledger_leftover_never_rises_and_zero_means_delivered(data):
    """Over random slot sequences, leftover bits never rise or go negative,
    and a packet counts as delivered exactly when its leftover is 0.0."""
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    F, T = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 8))
    workload = WorkloadConfig(
        slice1_bits_min=1e3, slice1_bits_max=5e4, deadline_len_slots=data.draw(st.integers(1, T))
    )
    cfg = ChannelConfig()
    seed = data.draw(st.integers(0, 999))
    sc, link = WorldStream(RoadConfig(), EnvConfig(m=m, n=n, F=F, T=T), cfg, workload, seed, TAG_EVAL)(0)
    choice = st.builds(
        phy.SlotAction,
        st.integers(0, 2),
        st.sampled_from(phy.COVERAGE_LEVELS_M),
        st.integers(0, F - 1),
        st.sampled_from(phy.POWER_LEVELS_DBM),
    )
    ledger = phy.DeliveryLedger.start(sc.packets)
    for t in range(T):
        before = ledger
        snapshot = phy.DeliveryLedger(before.packets, tuple(before.leftover_bits), tuple(before.reached))
        ledger, effects = phy.apply_slot(before, data.draw(st.lists(choice, min_size=m, max_size=m)), link, t)
        assert before == snapshot  # the input ledger is left as it was
        _assert_slot_step(before, ledger, effects)
        left = ledger.leftover_bits
        assert all(a <= b for a, b in zip(left, before.leftover_bits)) and min(left) >= 0.0
        # delivered packets are exactly the zero leftovers, whoever they reached
        counted = [0, 0]
        for k, reached in enumerate(ledger.reached):
            counted[k % 2] += left[k] == 0.0 and reached != 0  # slices alternate, throughput first
        assert list(phy.reception_stats(ledger).packets) == counted
    with pytest.raises(TypeError):
        ledger.leftover_bits[0] = 0.0  # the ledger is read-only


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_link_replays_match_fresh_links(data):
    """Slots replayed through one episode's shared link, memo hits included,
    resolve bit for bit as through a fresh link, whatever the ledger masks."""
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    F, T = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 6))
    workload = WorkloadConfig(deadline_len_slots=data.draw(st.integers(1, T)))
    cfg = ChannelConfig()
    seed = data.draw(st.integers(0, 999))
    sc, link = WorldStream(RoadConfig(), EnvConfig(m=m, n=n, F=F, T=T), cfg, workload, seed, TAG_EVAL)(0)

    def fresh_link():
        return phy.EpisodeLink(link.chan, cfg, 0.005)

    choice = st.builds(
        phy.SlotAction,
        st.integers(0, 2),
        st.sampled_from(phy.COVERAGE_LEVELS_M),
        st.integers(0, F - 1),
        st.sampled_from(phy.POWER_LEVELS_DBM),
    )
    # a few raw joint choices, each played at several slots
    pool = data.draw(st.lists(st.lists(choice, min_size=m, max_size=m), min_size=1, max_size=3))
    shared = fresh_link()
    ledger = phy.DeliveryLedger.start(sc.packets)
    for t in range(T):
        actions = pool[data.draw(st.integers(0, len(pool) - 1))]
        # the same slot from a ledger whose delivered packets mask other choices
        zeroed = data.draw(st.sets(st.integers(0, 2 * m - 1)))
        masked = ledger._replace(
            leftover_bits=tuple(0.0 if k in zeroed else left for k, left in enumerate(ledger.leftover_bits))
        )
        for start in (masked, ledger):
            resolved = []
            for link in (shared, shared, fresh_link()):
                resolved.append(_resolution(*phy.apply_slot(start, actions, link, t)))
            assert resolved[0] == resolved[2] and resolved[1] == resolved[2]
        ledger, _ = phy.apply_slot(ledger, actions, shared, t)


def _bits(floats):
    """Floats compared bit for bit, -0.0 and NaN included."""
    return [x.hex() for x in floats]


def _resolution(ledger, effects):
    """A resolved slot, bit for bit: the ledger after it and every effect."""
    return (
        _bits(ledger.leftover_bits),
        ledger.reached,
        [(k, bits.hex(), group_mask, rate.hex()) for k, bits, group_mask, rate in effects],
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_slot_resolution_memo_is_exact(data):
    """One shared link resolves every slot as a fresh link per call does.
    Each drawn joint choice is played at every slot, some with the slice-2
    windows closed, from ledgers with other delivered flags and leftovers, so
    the memo sees the same raw choices under other slots and other masks."""
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    F, T = data.draw(st.integers(1, 2)), data.draw(st.integers(2, 6))
    workload = WorkloadConfig(
        slice1_bits_min=1e3, slice1_bits_max=5e4, deadline_len_slots=data.draw(st.integers(1, T - 1))
    )
    cfg = ChannelConfig()
    seed = data.draw(st.integers(0, 999))
    sc, shared = WorldStream(RoadConfig(), EnvConfig(m=m, n=n, F=F, T=T), cfg, workload, seed, TAG_EVAL)(0)
    choice = st.tuples(
        st.integers(0, 2),
        st.sampled_from(phy.COVERAGE_LEVELS_M),
        st.integers(0, F - 1),
        st.sampled_from(phy.POWER_LEVELS_DBM),
    )
    columns = data.draw(st.lists(st.tuples(*[choice] * m), min_size=1, max_size=3))
    start = phy.DeliveryLedger.start(sc.packets)
    ledgers = [start]
    for _ in range(2):  # each packet untouched, half drained or delivered
        scales = [data.draw(st.sampled_from([1.0, 0.5, 0.0])) for _ in range(2 * m)]
        ledgers.append(start._replace(leftover_bits=tuple(x * c for x, c in zip(start.leftover_bits, scales))))
    for t in range(T):
        for column in columns:
            for ledger in ledgers:
                got = phy.apply_slot(ledger, column, shared, t)
                want = phy.apply_slot(ledger, column, phy.EpisodeLink(shared.chan, cfg, 0.005), t)
                assert _resolution(*got) == _resolution(*want)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_apply_slot_matches_memo_free_reference(data):
    """`apply_slot` through a shared link, memo hits included, resolves every
    slot bit for bit as `reference_slot` does, over the full action space.
    Corner cases of the off-air rule are drawn as often as any other choice:
    a packet with radius 0, a packet at the silence power, no packet with a
    radius, and packets the ledger masks (delivered by hand, or a slice-2
    packet outside its window)."""
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    F, T = data.draw(st.integers(1, 2)), data.draw(st.integers(2, 6))
    workload = WorkloadConfig(
        slice1_bits_min=1e3, slice1_bits_max=5e4, deadline_len_slots=data.draw(st.integers(1, T - 1))
    )
    cfg = ChannelConfig()
    seed = data.draw(st.integers(0, 999))
    sc, link = WorldStream(RoadConfig(), EnvConfig(m=m, n=n, F=F, T=T), cfg, workload, seed, TAG_EVAL)(0)
    any_choice = st.tuples(
        st.integers(0, 2),
        st.sampled_from(phy.COVERAGE_LEVELS_M),
        st.integers(0, F - 1),
        st.sampled_from(phy.POWER_LEVELS_DBM),
    )
    corner = st.sampled_from(
        [
            (SLICE_THROUGHPUT, 0.0, F - 1, 30.0),
            (SLICE_SAFETY, 400.0, 0, phy.SILENCE_POWER_DBM),
            (phy.PKT_NONE, 1400.0, F - 1, 23.0),
        ]
    )
    ledger = phy.DeliveryLedger.start(sc.packets)
    for t in range(T):
        column = data.draw(st.lists(st.one_of(corner, any_choice), min_size=m, max_size=m))
        zeroed = data.draw(st.sets(st.integers(0, 2 * m - 1)))
        masked = ledger._replace(
            leftover_bits=tuple(0.0 if k in zeroed else left for k, left in enumerate(ledger.leftover_bits))
        )
        for start in (masked, ledger, ledger):  # the last call is a memo hit
            want = _resolution(*reference_slot(start, column, link.chan, cfg, t, 0.005))
            got = phy.apply_slot(start, column, link, t)
            assert _resolution(*got) == want
        ledger = got[0]


def test_prr_examples():
    sc = hand_built_scenario([0.0, 300.0], [100.0, 400.0])
    ledger = phy.DeliveryLedger.start(sc.packets)
    # nothing reached: PRR undefined
    assert phy.reception_stats(ledger).prr is None
    # packet 0 reached 3 receivers and delivered; packet 2 reached 2, not delivered
    full = ledger.leftover_bits
    ledger = ledger._replace(
        leftover_bits=(0.0, *full[1:]),
        reached=(0b111, 0, 0b11, 0),
    )
    stats = phy.reception_stats(ledger)
    assert stats.prr == pytest.approx(3 / 5)
    assert stats.receptions == (3, 0)
    assert stats.packets == (1, 0)
    # everything delivered
    ledger = ledger._replace(leftover_bits=(0.0, full[1], 0.0, full[3]))
    assert phy.reception_stats(ledger).prr == pytest.approx(1.0)
    # nothing delivered
    ledger = ledger._replace(leftover_bits=full)
    assert phy.reception_stats(ledger).prr == 0.0

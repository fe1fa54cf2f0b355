import functools

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from iovslice import baselines as bl
from iovslice import oracle, phy
from iovslice.channel import ChannelConfig, ChannelState, noise_lin_mw
from iovslice.config import RunConfig
from iovslice.env import EnvConfig
from iovslice.scenario import Packet, RoadConfig, SLICE_SAFETY
from iovslice.worlds import TAG_EVAL, WorkloadConfig, WorldStream

from conftest import forced_channel, hand_built_scenario


MAX_ITERS = RunConfig().swap_max_iters


def _link(chan, cfg):
    return phy.EpisodeLink(chan, cfg, 0.005)


def test_random_coverage_slice_uniform():
    rng = np.random.default_rng(0)
    coverage, packet = bl.random_coverage_slice(10, 1000, rng)  # 1e4 draws
    for level in (0.0, 100.0, 400.0, 1000.0, 1400.0):
        share = np.mean(coverage == level)
        assert 0.18 <= share <= 0.22
    for pkt in (0, 1, 2):
        assert 0.30 <= np.mean(packet == pkt) <= 0.36


def test_random_draws_reproducible():
    a = bl.random_coverage_slice(3, 20, np.random.default_rng(42))
    b = bl.random_coverage_slice(3, 20, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_slice2_never_sent_outside_window():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0, 500.0], [100.0, 600.0])
    chan = forced_channel(sc, -80.0, F=2)
    rng = np.random.default_rng(1)
    run = bl.run_baseline("NOMA-MP", sc, _link(chan, cfg), rng, MAX_ITERS)
    # replay the final plan and watch the safety packets outside their windows,
    # over a link with 1e-10 mW of noise and 1 MHz resource blocks
    quiet = ChannelConfig(noise_floor_dbm=-100.0, noise_figure_db=0.0)
    ledger = phy.DeliveryLedger.start(sc.packets)
    for t in range(20):
        before = ledger.leftover_bits
        ledger, _ = phy.apply_slot(ledger, run.columns[t], _link(chan, quiet), t)
        for s in range(2):
            k = 2 * s + 1  # the source's safety packet
            pktdef = sc.packets[k]
            if not (pktdef.arrival_slot <= t <= pktdef.deadline_slot):
                assert ledger.leftover_bits[k] == before[k]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_plan_columns_match_hand_built_actions(data):
    # every source's action is built here from its draws and frequency, by
    # `phy.SlotAction` or as `phy.OFF_AIR` when INACTIVE; silence and zero
    # coverage stay on their frequency, for the link layer to mask
    m, T, F = (data.draw(st.integers(1, hi)) for hi in (4, 5, 3))

    def grid(elements):  # an (m, T) array of draws
        return np.array(data.draw(st.lists(st.lists(elements, min_size=T, max_size=T), min_size=m, max_size=m)))

    coverage = grid(st.sampled_from(phy.COVERAGE_LEVELS_M))
    packet = grid(st.integers(phy.PKT_NONE, SLICE_SAFETY))
    power = grid(st.sampled_from(phy.POWER_LEVELS_DBM))
    freqs = data.draw(
        st.lists(st.lists(st.integers(bl.INACTIVE, F - 1), min_size=m, max_size=m), min_size=T, max_size=T)
    )
    columns = bl.plan_columns(bl.slot_options(coverage, packet, power, F), freqs)
    assert len(columns) == T
    for t, column in enumerate(columns):
        assert len(column) == m
        for s, act in enumerate(column):
            f = freqs[t][s]
            if f == bl.INACTIVE:
                assert act is phy.OFF_AIR
            else:
                assert act is not phy.OFF_AIR
                assert act == phy.SlotAction(int(packet[s, t]), float(coverage[s, t]), f, float(power[s, t]))
                assert [type(x) for x in act] == [int, float, int, float]


def test_initial_allocation_argmax_single_source():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0], [100.0])
    chan = forced_channel(sc, -80.0, F=2)
    chan.gain_lin[0, 0, 0, :] = 1e-9
    chan.gain_lin[0, 0, 1, :] = 2e-9
    coverage = np.full((1, 20), 400.0)
    freqs = bl.initial_rb_allocation(_link(chan, cfg), coverage, oma=False)
    assert freqs == [[1]] * 20


def test_oma_pigeonhole_one_inactive():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0, 300.0, 600.0], [100.0, 400.0, 700.0])
    chan = forced_channel(sc, -80.0, F=2)
    rng = np.random.default_rng(3)
    coverage, _ = bl.random_coverage_slice(3, 20, rng)
    freqs = bl.initial_rb_allocation(_link(chan, cfg), coverage, oma=True)
    assert len(freqs) == 20
    for row in freqs:
        active = [f for f in row if f != bl.INACTIVE]
        assert len(active) == 2  # pigeonhole with m=3, F=2
        assert len(set(active)) == len(active)  # exclusivity


def test_noma_everyone_active():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0, 300.0, 600.0], [100.0, 400.0, 700.0])
    chan = forced_channel(sc, -80.0, F=2)
    rng = np.random.default_rng(4)
    coverage, _ = bl.random_coverage_slice(3, 20, rng)
    freqs = bl.initial_rb_allocation(_link(chan, cfg), coverage, oma=False)
    assert len(freqs) == 20 and all(bl.INACTIVE not in row for row in freqs)


def _reference_rb_allocation(link, coverage_m, oma):
    """The greedy allocation slot by slot: each group's gains summed over its
    members, sources ranked by their best sum, frequencies taken in turn."""
    m, n, F, T = link.gain_lin.shape
    freqs = []
    for t in range(T):
        group_gain = np.zeros((m, F))
        for s in range(m):
            members = link.group(s, float(coverage_m[s, t]))
            if members:
                group_gain[s] = link.gain_lin[s, members, :, t].sum(axis=0)
        best = group_gain.max(axis=1)
        order = sorted(range(m), key=lambda s: (-best[s], s))
        row = [bl.INACTIVE] * m
        taken: set[int] = set()
        for s in order:
            prefs = np.argsort(-group_gain[s], kind="stable")
            if oma:
                free = [int(f) for f in prefs if int(f) not in taken]
                if not free:
                    continue
                row[s] = free[0]
                taken.add(free[0])
            else:
                row[s] = int(prefs[0])
        freqs.append(row)
    return freqs


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_initial_allocation_matches_per_slot_reference(data):
    # up to 12 destinations, so one-frequency groups reach numpy's 8-term
    # pairwise block; few distinct gains make tied sums and tied frequencies
    m, n, F, T = (data.draw(st.integers(1, hi)) for hi in (4, 12, 3, 6))
    gains = data.draw(
        st.sampled_from(["zero", "tied", "any"]).map(
            {
                "zero": st.just(0.0),
                "tied": st.sampled_from([0.0, 1e-9, 3e-9]),
                "any": st.floats(1e-13, 1e-6) | st.just(0.0),
            }.get
        )
    )

    def array(elements, *shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)

    dist = array(st.sampled_from([50.0, 100.0, 399.0, 400.0, 1400.0, 1500.0]), m, n)
    coverage = array(st.sampled_from(phy.COVERAGE_LEVELS_M), m, T)
    fade = np.ones((m, n, F, T))
    chan = ChannelState(dist, np.zeros((m, n)), fade, array(gains, m, n, F, T))
    for oma in (False, True):
        freqs = bl.initial_rb_allocation(_link(chan, ChannelConfig()), coverage, oma)
        assert freqs == _reference_rb_allocation(_link(chan, ChannelConfig()), coverage, oma)
        assert all(type(f) is int for row in freqs for f in row)
    largest = max(len(phy.coverage_group(dist[s], c)) for s in range(m) for c in coverage[s])
    event(f"F={F}, largest group {largest}")


def test_initial_allocation_sums_one_frequency_groups_as_numpy():
    # numpy sums a one-frequency group of 8 or more members pairwise, which
    # here rounds above the in-order sum; a second source whose one gain is
    # that pairwise sum ties the first, and the tie goes to source 0
    n = 9
    group = np.array([1e-9] + [1e-25] * (n - 1))
    pairwise = float(group[:, None].sum(axis=0)[0])
    assert pairwise > sum(group.tolist())
    gain_lin = np.zeros((2, n, 1, 1))
    gain_lin[0, :, 0, 0] = group
    gain_lin[1, 0, 0, 0] = pairwise
    dist = np.array([[50.0] * n, [50.0] + [1500.0] * (n - 1)])
    chan = ChannelState(dist, np.zeros((2, n)), np.ones((2, n, 1, 1)), gain_lin)
    link, coverage = _link(chan, ChannelConfig()), np.full((2, 1), 1000.0)
    assert bl.initial_rb_allocation(link, coverage, oma=True) == [[0, bl.INACTIVE]]
    assert _reference_rb_allocation(link, coverage, oma=True) == [[0, bl.INACTIVE]]


def _two_source_conflict():
    """Two sources stuck on a frequency too weak for their safety payloads.

    Frequency 0 cannot carry 4800 bits in the single slot even without
    interference, frequency 1 can; the initial plan parks both sources on
    frequency 0, so retuning one of them strictly improves deliveries.
    """
    packets = [Packet(5e9, 0, 0), Packet(4800.0, 0, 0)] * 2  # slice 1 undeliverable
    sc = hand_built_scenario([0.0, 10.0], [100.0, 110.0], packets=packets)
    chan = forced_channel(sc, -80.0, F=2, T=1)
    cfg = ChannelConfig()
    noise = noise_lin_mw(cfg)
    p_mw = phy.power_lin_mw(30.0)
    chan.gain_lin[:, :, 0, 0] = 0.5 * noise / p_mw  # sinr 0.5: 2924 bits, short
    chan.gain_lin[:, :, 1, 0] = 1.2 * noise / p_mw  # sinr 1.2: 5687 bits, enough
    coverage = np.full((2, 1), 1400.0)
    packet = np.full((2, 1), SLICE_SAFETY, dtype=np.int64)
    power = np.full((2, 1), 30.0)
    return sc, chan, cfg, bl.slot_options(coverage, packet, power, F=2)


def test_swap_matching_finds_improvement():
    sc, chan, cfg, options = _two_source_conflict()
    link = _link(chan, cfg)
    freqs = [[0, 0]]  # both parked on the dud frequency
    assert bl.delivered_packets(bl.evaluate_plan(bl.plan_columns(options, freqs), sc, link)[-1]) == 0
    run = bl.swap_matching(options, freqs, sc, link, oma=False, max_iters=MAX_ITERS)
    assert freqs == [[0, 0]]  # the caller's rows are left as they were
    history = run.objective_history
    assert history[0] == 0 and history[-1] >= 1  # a move converted 0 -> 1
    assert 1 in [act[2] for act in run.columns[0]]
    assert all(a < b for a, b in zip(history, history[1:]))  # strictly improving
    assert sum(run.stats.packets) == history[-1]


def test_swap_matching_fixpoint_returns_unchanged():
    sc, chan, cfg, options = _two_source_conflict()
    freqs = [[1, 1]]  # both on the good frequency: SIC saves one, local optimum
    run = bl.swap_matching(options, freqs, sc, _link(chan, cfg), oma=False, max_iters=MAX_ITERS)
    assert run.columns == bl.plan_columns(options, freqs)
    assert len(run.objective_history) == 1  # no accepted moves


def test_swap_matching_respects_oma(monkeypatch):
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0, 300.0, 600.0], [100.0, 400.0, 700.0])
    chan = forced_channel(sc, -85.0, F=2)
    rng = np.random.default_rng(8)
    coverage, packet = bl.random_coverage_slice(3, 20, rng)
    options = bl.slot_options(coverage, packet, bl.draw_powers("OMA-MP", 3, 20, rng), F=2)
    freqs = bl.initial_rb_allocation(_link(chan, cfg), coverage, oma=True)
    for row in freqs:
        active = [f for f in row if f != bl.INACTIVE]
        assert len(set(active)) == len(active)

    history_plans = []  # every scored plan, as action columns
    real_evaluate = bl.evaluate_plan

    def recording_evaluate(columns, *args):
        history_plans.append(columns)
        return real_evaluate(columns, *args)

    monkeypatch.setattr(bl, "evaluate_plan", recording_evaluate)
    run = bl.swap_matching(options, freqs, sc, _link(chan, cfg), oma=True, max_iters=MAX_ITERS)
    final = run.columns
    assert len(history_plans) == run.evaluations
    assert len(history_plans) > 1
    for columns in (*history_plans, final):
        for column in columns:
            # an INACTIVE source is `phy.OFF_AIR`, whose freq 0 is not an RB it holds
            active = [act[2] for act in column if act is not phy.OFF_AIR]
            assert len(set(active)) == len(active)


def _small_worlds():
    """Stream worlds (slice-2 windows of 3 of 8 slots) plus two flat
    channels on which a throughput payload takes several slots."""
    workload = WorkloadConfig(deadline_len_slots=3)
    for seed in range(6):
        env_cfg = EnvConfig(m=3, n=3, F=2, T=8)
        sc, link = WorldStream(RoadConfig(), env_cfg, ChannelConfig(), workload, seed, TAG_EVAL)(0)
        yield sc, link.chan
    for gain_db in (-60.0, -85.0):
        sc = hand_built_scenario([0.0, 300.0, 600.0], [100.0, 400.0])  # slice-2 window 0..7
        yield sc, forced_channel(sc, gain_db, F=2, T=12)


def _random_plan(rng, m, T, F):
    """Slot options from random draws (silence power and zero coverage
    included) and random frequency rows (INACTIVE included)."""
    coverage = rng.choice(phy.COVERAGE_LEVELS_M, size=(m, T))
    packet = rng.integers(0, 3, size=(m, T))
    freq = rng.integers(bl.INACTIVE, F, size=(m, T))
    power = rng.choice(phy.POWER_LEVELS_DBM, size=(m, T))
    return bl.slot_options(coverage, packet, power, F), freq.T.tolist()


def _dominates(a, b):
    """Every packet's leftover in ledger a is at least its leftover in b."""
    return all(x >= y for x, y in zip(a.leftover_bits, b.leftover_bits))


def test_incremental_replay_matches_full_replay():
    # a plan edited at one slot, replayed against the record, replays as from
    # scratch until it stops; a trial that stops delivers no more than the record
    rng = np.random.default_rng(31)
    cfg = ChannelConfig()
    rejoined = dominated = fewer = out_of_reach = ran_to_end = inactive = closed = 0
    for sc, chan in _small_worlds():
        m, _, F, T = chan.gain_lin.shape
        link = _link(chan, cfg)  # shared by the world's incremental replays
        for k in range(12):
            if k % 2:  # OMA: exclusive frequencies, sources without one sit out
                coverage, packet = bl.random_coverage_slice(m, T, rng)
                options = bl.slot_options(coverage, packet, bl.draw_powers("NOMA-RP", m, T, rng), F)
                freqs = bl.initial_rb_allocation(link, coverage, oma=True)
            else:
                options, freqs = _random_plan(rng, m, T, F)
            inactive += sum(row.count(bl.INACTIVE) for row in freqs)
            for s in range(m):
                pkt = sc.packets[2 * s + 1]
                closed += sum(
                    options[t][s][0][0] == SLICE_SAFETY and not pkt.arrival_slot <= t <= pkt.deadline_slot
                    for t in range(T)
                )
            columns = bl.plan_columns(options, freqs)
            record = bl.plan_record(columns, sc, link)
            assert len(record.ledgers) == T + 1 and record.delivered == bl.delivered_packets(record.ledgers[-1])
            for _ in range(10):
                t = int(rng.integers(T))
                edited = [row.copy() for row in freqs]
                if rng.random() < 0.5:
                    i, j = rng.choice(m, size=2, replace=False)
                    edited[t][i], edited[t][j] = freqs[t][j], freqs[t][i]
                else:
                    edited[t][int(rng.integers(m))] = int(rng.integers(F))
                trial = columns.copy()  # the edited slot's column, every other one shared
                trial[t] = bl.plan_columns(options, edited)[t]
                ledgers = bl.evaluate_plan(trial, sc, link, record, t)
                full = bl.evaluate_plan(bl.plan_columns(options, edited), sc, _link(chan, cfg))
                assert t < len(ledgers) - 1 and len(ledgers) <= T + 1
                # the prefix is the record's own ledgers, not copies of them
                assert all(ledgers[i] is record.ledgers[i] for i in range(t + 1))
                for a, b in zip(ledgers, full):  # the shared prefix and every replayed slot
                    assert a == b
                stop = len(ledgers) - 1
                if stop == T:  # replayed every slot: scores as the full replay
                    ran_to_end += 1
                    assert bl.delivered_packets(ledgers[-1]) == bl.delivered_packets(full[-1])
                    continue
                assert bl.delivered_packets(full[-1]) <= record.delivered  # a stopped trial loses
                if not _dominates(ledgers[stop], record.ledgers[stop]):
                    # stopped on reach: even interference-free, the rest cannot beat the record
                    out_of_reach += 1
                    left = ledgers[stop].leftover_bits
                    tail = record.tails[stop]
                    reach = sum(1 for p in range(len(left)) if left[p] > 0.0 and phy.drains(left[p], tail.get(p, ())))
                    assert left.count(0.0) + reach <= record.delivered
                elif ledgers[stop].leftover_bits == record.ledgers[stop].leftover_bits:
                    # rejoined the record: scores as the recorded plan
                    rejoined += 1
                    for a, b in zip(full[stop:], record.ledgers[stop:]):
                        assert a.leftover_bits == b.leftover_bits  # and with them the delivery flags
                    assert bl.delivered_packets(full[-1]) == record.delivered
                else:
                    # stopped on dominance alone: it stays dominated and delivers no more
                    dominated += 1
                    assert all(_dominates(a, b) for a, b in zip(full[stop:], record.ledgers[stop:]))
                    fewer += bl.delivered_packets(full[-1]) < record.delivered
    assert rejoined > 100 and dominated > 50 and fewer > 0 and out_of_reach > 50 and ran_to_end > 100
    assert inactive > 0 and closed > 0


@functools.cache
def _small_world_list():
    return list(_small_worlds())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dominated_ledger_stays_dominated(data):
    """The link layer's dominance lemma, on which a swap-matching trial's
    early stop rests: two plans alike but at one slot, each replayed from
    scratch. Once the edited plan's leftover bits are at least the
    original's, packet by packet, they stay so at every later slot, and
    it delivers no more."""
    sc, chan = data.draw(st.sampled_from(_small_world_list()))
    m, _, F, T = chan.gain_lin.shape
    options, freqs = _random_plan(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), m, T, F)
    t = data.draw(st.integers(0, T - 1))
    edited = freqs.copy()
    edited[t] = data.draw(st.lists(st.integers(bl.INACTIVE, F - 1), min_size=m, max_size=m))
    cfg = ChannelConfig()
    record = bl.evaluate_plan(bl.plan_columns(options, freqs), sc, _link(chan, cfg))
    trial = bl.evaluate_plan(bl.plan_columns(options, edited), sc, _link(chan, cfg))
    dominated = [q for q in range(t + 1, T + 1) if _dominates(trial[q], record[q])]
    if not dominated:
        event("never dominated")
    else:
        event("rejoins" if trial[-1].leftover_bits == record[-1].leftover_bits else "stays strictly dominated")
        assert dominated == list(range(dominated[0], T + 1))
        assert bl.delivered_packets(trial[-1]) <= bl.delivered_packets(record[-1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lone_bits_bound_every_replayed_slot(data):
    """The premises of the reach cut, on random tiny worlds and plans: along
    a full replay no source carries more than its lone bits (and exactly
    them when no other source is on its RB), and every packet delivered at
    or after slot k drains within its tail at k, so `phy.reach` at k over
    the record's tails bounds the final count; so does `phy.reach` over
    the oracle's peak tails, which dominate every plan."""
    m, n, F, T = (data.draw(st.integers(1, hi)) for hi in (4, 4, 3, 8))
    workload = WorkloadConfig(1e3, 1e5, data.draw(st.integers(1, 600)), data.draw(st.integers(1, T)))
    stream = WorldStream(RoadConfig(), EnvConfig(m=m, n=n, F=F, T=T), ChannelConfig(), workload, 0, TAG_EVAL)
    sc, link = stream(data.draw(st.integers(0, 999)))
    options, freqs = _random_plan(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), m, T, F)
    columns = bl.plan_columns(options, freqs)
    record = bl.plan_record(columns, sc, link)
    ledgers = [phy.DeliveryLedger.start(sc.packets)]
    for t, column in enumerate(columns):
        ledger, effects = phy.apply_slot(ledgers[-1], column, link, t)
        on_rb = [act[2] for act, (k, *_) in zip(column, effects) if k >= 0]
        for s, (act, (k, bits, _, _)) in enumerate(zip(column, effects)):
            if k >= 0:
                lone = link.lone_bits(t, s, link.group(s, act[1]), act[2], phy.power_lin_mw(act[3]))
                assert bits <= lone
                if on_rb.count(act[2]) == 1:
                    assert bits == lone
                    event("a lone transmitter")
        ledgers.append(ledger)
    assert ledgers == record.ledgers
    final = ledgers[-1].leftover_bits
    peak_tails = oracle._peak_tails(sc, link)
    for k, ledger in enumerate(ledgers):
        left, tail = ledger.leftover_bits, record.tails[k]
        for p in range(2 * m):
            if final[p] == 0.0 < left[p]:
                assert phy.drains(left[p], tail.get(p, ()))
        assert final.count(0.0) <= phy.reach(left, tail)
        assert final.count(0.0) <= phy.reach(left, peak_tails[k])
    if final.count(0.0):
        event("delivers")


def _reference_moves(freqs, oma, F):
    """(slot, trial rows) per candidate move, in search order, each trial a
    whole edited copy of the frequency rows."""
    for t, row in enumerate(freqs):
        m = len(row)
        for i in range(m):
            for j in range(i + 1, m):
                if row[i] != row[j]:
                    trial = [r.copy() for r in freqs]
                    trial[t][i], trial[t][j] = row[j], row[i]
                    yield t, trial
        for i in range(m):
            for f in range(F):
                taken = oma and any(row[j] == f for j in range(m) if j != i)
                if row[i] != f and not taken:
                    trial = [r.copy() for r in freqs]
                    trial[t][i] = f
                    yield t, trial


def _inert(options, freqs, ledgers, t, trial):
    """Whether every source a move edits draws a choice off the air at its
    slot, judged on the plan's own ledger there."""
    edited = [i for i, (a, b) in enumerate(zip(freqs[t], trial[t])) if a != b]
    return not any(phy.on_air(ledgers[t], i, options[t][i][0], t) for i in edited)


def test_moves_edit_one_column_as_the_edited_plan():
    # a move rebuilds only the edited sources' actions, and the column it
    # yields is the one the whole edited plan converts to; the moves left
    # out are the inert ones, whose full replays are the plan's own
    rng = np.random.default_rng(5)
    m, T, F = 4, 6, 3
    packets = [Packet(5e5, 0, T - 1), Packet(4800.0, 2, 4)] * m
    sc = hand_built_scenario([0.0, 300.0, 600.0, 900.0], [100.0, 400.0], packets=packets)
    chan = forced_channel(sc, -70.0, F=F, T=T)
    edits = inert = 0
    for k in range(8):
        options, freqs = _random_plan(rng, m, T, F)
        oma = bool(k % 2)
        columns = bl.plan_columns(options, freqs)
        ledgers = bl.evaluate_plan(columns, sc, _link(chan, ChannelConfig()))
        moves = list(bl._moves(options, columns, freqs, ledgers, oma))
        reference = []
        for t, trial in _reference_moves(freqs, oma, F):
            if _inert(options, freqs, ledgers, t, trial):
                inert += 1
                assert bl.evaluate_plan(bl.plan_columns(options, trial), sc, _link(chan, ChannelConfig())) == ledgers
            else:
                reference.append((t, trial))
        assert len(moves) == len(reference)
        for (t, column, row), (ref_t, trial) in zip(moves, reference):
            assert t == ref_t
            assert column == bl.plan_columns(options, trial)[t]
            assert row == trial[t]
            kept = [a is b for a, b in zip(column, columns[t])]
            assert kept.count(False) <= 2  # only the edited sources' tuples are new
            edits += 1
    assert edits > 100 and inert > 50


def _reference_swap_matching(options, freqs, replay, oma, F, max_iters=1000):
    """The search replaying every trial over all T slots; replay: frequency
    rows -> the plan's T + 1 ledgers. Returns the final rows, the objective
    history and the number of plans replayed but for the inert moves, which
    it re-derives from its own ledgers and checks replay to them."""
    current = freqs
    ledgers = replay(current)
    history = [bl.delivered_packets(ledgers[-1])]
    evaluations = 1
    improved = True
    while improved and len(history) - 1 < max_iters:
        improved = False
        for t, trial in _reference_moves(current, oma, F):
            trial_ledgers = replay(trial)
            if _inert(options, current, ledgers, t, trial):
                assert trial_ledgers == ledgers
                continue
            evaluations += 1
            if bl.delivered_packets(trial_ledgers[-1]) > history[-1]:
                current, ledgers = trial, trial_ledgers
                history.append(bl.delivered_packets(ledgers[-1]))
                improved = True
                break
    return current, history, evaluations


def test_swap_matching_matches_full_replay_search(monkeypatch):
    # the search with both cuts follows the full-replay search move for move,
    # and replays every plan but the inert moves'; each trial reads a record
    # whose tails past the trial's slot are those of the trial's own plan
    cfg = ChannelConfig()
    workload = WorkloadConfig(deadline_len_slots=3)
    real_evaluate = bl.evaluate_plan

    def checked_evaluate(columns, scenario, link, record=None, start=0):
        if record is not None:
            assert record.tails[start + 1 :] == bl.plan_record(columns, scenario, link).tails[start + 1 :]
        return real_evaluate(columns, scenario, link, record, start)

    monkeypatch.setattr(bl, "evaluate_plan", checked_evaluate)
    accepted = 0
    for F, seed in [(2, seed) for seed in range(30)] + [(F, seed) for F in (1, 3) for seed in range(12)]:
        env_cfg = EnvConfig(m=5, n=4, F=F, T=6)
        sc, link = WorldStream(RoadConfig(), env_cfg, cfg, workload, seed, TAG_EVAL)(0)
        chan = link.chan
        for name in bl.BASELINE_NAMES:
            run = bl.run_baseline(name, sc, _link(chan, cfg), np.random.default_rng(seed), MAX_ITERS)
            rng = np.random.default_rng(seed)  # the same draws as run_baseline
            coverage, packet = bl.random_coverage_slice(env_cfg.m, env_cfg.T, rng)
            options = bl.slot_options(coverage, packet, bl.draw_powers(name, env_cfg.m, env_cfg.T, rng), env_cfg.F)
            oma = name.startswith("OMA")
            freqs = bl.initial_rb_allocation(_link(chan, cfg), coverage, oma)

            def replay(rows):
                return real_evaluate(bl.plan_columns(options, rows), sc, _link(chan, cfg))

            ref_freqs, ref_history, ref_evaluations = _reference_swap_matching(options, freqs, replay, oma, F)
            ref_columns = bl.plan_columns(options, ref_freqs)
            assert run.columns == ref_columns
            assert run.objective_history == ref_history
            assert run.evaluations == ref_evaluations
            assert run.stats == phy.reception_stats(replay(ref_freqs)[-1])
            accepted += len(ref_history) - 1
    assert accepted > 50


def test_run_baseline_counts_replayed_slots():
    cfg = RunConfig()
    sc, link = WorldStream(cfg.road, cfg.env, cfg.channel, cfg.workload, cfg.seed, TAG_EVAL)(0)
    rng = np.random.default_rng(0)
    run = bl.run_baseline("NOMA-MP", sc, link, rng, cfg.swap_max_iters)
    T = cfg.env.T
    assert run.evaluations > 1
    assert T <= run.slots_replayed < run.evaluations * T  # trials stop once they are dominated


def test_run_baseline_rejects_unknown_name():
    sc = hand_built_scenario([0.0], [100.0])
    chan = forced_channel(sc, -80.0, F=2)
    with pytest.raises(ValueError, match="OMA-MP"):
        bl.run_baseline("JUNK", sc, _link(chan, ChannelConfig()), np.random.default_rng(0), MAX_ITERS)


def test_run_baseline_zero_gains_zero_delivered():
    sc = hand_built_scenario([0.0, 300.0], [100.0, 400.0])
    chan = forced_channel(sc, -80.0, F=2)
    chan.gain_lin[:] = 0.0
    for name in bl.BASELINE_NAMES:
        run = bl.run_baseline(name, sc, _link(chan, ChannelConfig()), np.random.default_rng(1), MAX_ITERS)
        assert run.stats.packets == (0, 0)


def test_run_baseline_seeded_identical():
    sc = hand_built_scenario([0.0, 300.0], [100.0, 400.0])
    chan = forced_channel(sc, -85.0, F=2)
    a = bl.run_baseline("NOMA-RP", sc, _link(chan, ChannelConfig()), np.random.default_rng(7), MAX_ITERS)
    b = bl.run_baseline("NOMA-RP", sc, _link(chan, ChannelConfig()), np.random.default_rng(7), MAX_ITERS)
    assert a.stats == b.stats
    assert a.columns == b.columns  # frequencies and drawn powers alike


def test_mp_uses_max_power_rp_random():
    rng = np.random.default_rng(9)
    assert np.all(bl.draw_powers("NOMA-MP", 3, 50, rng) == 30.0)
    assert np.all(bl.draw_powers("OMA-MP", 3, 50, rng) == 30.0)
    rp = bl.draw_powers("NOMA-RP", 3, 400, rng)
    values, counts = np.unique(rp, return_counts=True)
    assert set(values.tolist()) == {15.0, 23.0, 30.0}
    assert counts.min() > 300  # roughly uniform over 1200 draws

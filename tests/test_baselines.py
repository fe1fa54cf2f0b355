import numpy as np
import pytest

from iovslice import baselines as bl
from iovslice import phy
from iovslice.channel import ChannelConfig, noise_lin_mw
from iovslice.config import RunConfig
from iovslice.env import COVERAGE_LEVELS_M, POWER_LEVELS_DBM, EnvConfig
from iovslice.scenario import Packet, RoadConfig, SLICE_SAFETY, SLICE_THROUGHPUT
from iovslice.worlds import TAG_EVAL, WorkloadConfig, WorldStream

from tests.conftest import forced_channel, hand_built_scenario


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
    run = bl.run_baseline("NOMA-MP", sc, chan, cfg, 0.005, rng)
    # replay the final plan and watch the safety packets outside their windows,
    # over a link with 1e-10 mW of noise and 1 MHz resource blocks
    quiet = ChannelConfig(noise_floor_dbm=-100.0, noise_figure_db=0.0)
    ledger = phy.DeliveryLedger.start(sc.packets)
    for t in range(20):
        before = ledger.leftover_bits
        actions = []
        for s in range(2):
            pkt = phy.mask_packet_choice(ledger, s, int(run.plan.packet[s, t]), t)
            f = int(run.plan.freq[s, t])
            if f == bl.INACTIVE:
                actions.append(phy.SlotAction(phy.PKT_NONE, 0.0, 0, phy.SILENCE_POWER_DBM))
            else:
                actions.append(
                    phy.SlotAction(pkt, float(run.plan.coverage_m[s, t]), f, float(run.plan.power_dbm[s, t]))
                )
        ledger, _ = phy.apply_slot(ledger, actions, _link(chan, quiet), t)
        for s in range(2):
            k = 2 * s + 1  # the source's safety packet
            pktdef = sc.packets[k]
            if not (pktdef.arrival_slot <= t <= pktdef.deadline_slot):
                assert ledger.leftover_bits[k] == before[k]


def test_initial_allocation_argmax_single_source():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0], [100.0])
    chan = forced_channel(sc, -80.0, F=2)
    chan.gain_lin[0, 0, 0, :] = 1e-9
    chan.gain_lin[0, 0, 1, :] = 2e-9
    coverage = np.full((1, 20), 400.0)
    packet = np.ones((1, 20), dtype=np.int64)
    power = np.full((1, 20), 30.0)
    plan = bl.initial_rb_allocation(_link(chan, cfg), coverage, packet, power, oma=False)
    assert np.all(plan.freq == 1)


def test_oma_pigeonhole_one_inactive():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0, 300.0, 600.0], [100.0, 400.0, 700.0])
    chan = forced_channel(sc, -80.0, F=2)
    rng = np.random.default_rng(3)
    coverage, packet = bl.random_coverage_slice(3, 20, rng)
    power = bl.draw_powers("OMA-MP", 3, 20, rng)
    plan = bl.initial_rb_allocation(_link(chan, cfg), coverage, packet, power, oma=True)
    for t in range(20):
        active = plan.freq[:, t][plan.freq[:, t] != bl.INACTIVE]
        assert len(active) == 2  # pigeonhole with m=3, F=2
        assert len(set(active.tolist())) == len(active)  # exclusivity


def test_noma_everyone_active():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0, 300.0, 600.0], [100.0, 400.0, 700.0])
    chan = forced_channel(sc, -80.0, F=2)
    rng = np.random.default_rng(4)
    coverage, packet = bl.random_coverage_slice(3, 20, rng)
    power = bl.draw_powers("NOMA-MP", 3, 20, rng)
    plan = bl.initial_rb_allocation(_link(chan, cfg), coverage, packet, power, oma=False)
    assert np.all(plan.freq != bl.INACTIVE)


def _two_source_conflict():
    """Two sources stuck on a frequency too weak for their safety payloads.

    Frequency 0 cannot carry 4800 bits in the single slot even without
    interference, frequency 1 can; the initial plan parks both sources on
    frequency 0, so retuning one of them strictly improves deliveries.
    """
    packets = []
    for i in range(2):
        packets.append(Packet(i, SLICE_THROUGHPUT, 5e9, 0, 0, 5e9))  # undeliverable
        packets.append(Packet(i, SLICE_SAFETY, 4800.0, 0, 0, 4800.0))
    sc = hand_built_scenario([0.0, 10.0], [100.0, 110.0], packets=packets)
    chan = forced_channel(sc, -80.0, F=2, T=1)
    cfg = ChannelConfig()
    noise = noise_lin_mw(cfg)
    p_mw = phy.power_lin_mw(30.0)
    chan.gain_lin[:, :, 0, 0] = 0.5 * noise / p_mw  # sinr 0.5: 2924 bits, short
    chan.gain_lin[:, :, 1, 0] = 1.2 * noise / p_mw  # sinr 1.2: 5687 bits, enough
    coverage = np.full((2, 1), 1400.0)
    packet = np.full((2, 1), phy.PKT_SLICE2, dtype=np.int64)
    power = np.full((2, 1), 30.0)
    plan = bl.OfflinePlan(coverage, packet, np.zeros((2, 1), dtype=np.int64), power)
    return sc, chan, cfg, plan


def _evaluator(sc, chan, cfg, seen=None):
    link = _link(chan, cfg)

    def evaluate(columns, record, start):
        if seen is not None:
            seen.append(columns)
        return bl.evaluate_plan(columns, sc, link, record, start)

    return evaluate


def test_swap_matching_finds_improvement():
    sc, chan, cfg, plan = _two_source_conflict()
    evaluate = _evaluator(sc, chan, cfg)
    columns = bl.plan_columns(plan)
    assert bl.delivered_packets(evaluate(columns, None, 0)[-1]) == 0  # both parked on the dud frequency
    run = bl.swap_matching(plan, evaluate, oma=False, F=2)
    history = run.objective_history
    assert history[0] == 0 and history[-1] >= 1  # a move converted 0 -> 1
    assert 1 in run.plan.freq[:, 0].tolist()
    assert all(a < b for a, b in zip(history, history[1:]))  # strictly improving
    assert sum(run.stats.packets) == history[-1]


def test_swap_matching_fixpoint_returns_unchanged():
    sc, chan, cfg, plan = _two_source_conflict()
    plan.freq[0, 0] = 1
    plan.freq[1, 0] = 1  # both on the good frequency: SIC saves one, local optimum
    run = bl.swap_matching(plan, _evaluator(sc, chan, cfg), oma=False, F=2)
    assert np.array_equal(run.plan.freq, plan.freq)
    assert len(run.objective_history) == 1  # no accepted moves


def test_swap_matching_respects_oma():
    cfg = ChannelConfig()
    sc = hand_built_scenario([0.0, 300.0, 600.0], [100.0, 400.0, 700.0])
    chan = forced_channel(sc, -85.0, F=2)
    rng = np.random.default_rng(8)
    coverage, packet = bl.random_coverage_slice(3, 20, rng)
    power = bl.draw_powers("OMA-MP", 3, 20, rng)
    plan = bl.initial_rb_allocation(_link(chan, cfg), coverage, packet, power, oma=True)

    history_plans = []  # every scored plan, as action columns
    final = bl.swap_matching(plan, _evaluator(sc, chan, cfg, history_plans), oma=True, F=2).plan
    for p in (plan, final):
        for t in range(20):
            active = p.freq[:, t][p.freq[:, t] != bl.INACTIVE]
            assert len(set(active.tolist())) == len(active)
    assert len(history_plans) > 1
    for columns in history_plans:
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
        yield WorldStream(RoadConfig(), env_cfg, ChannelConfig(), workload, seed, TAG_EVAL)(0)
    for gain_db in (-60.0, -85.0):
        sc = hand_built_scenario([0.0, 300.0, 600.0], [100.0, 400.0])  # slice-2 window 0..7
        yield sc, forced_channel(sc, gain_db, F=2, T=12)


def test_incremental_replay_matches_full_replay():
    # a plan edited at one slot, replayed from the record, scores as a replay from scratch
    rng = np.random.default_rng(31)
    cfg = ChannelConfig()
    rejoined = ran_to_end = inactive = closed = 0
    for sc, chan in _small_worlds():
        m, _, F, T = chan.gain_lin.shape
        link = _link(chan, cfg)  # shared by the world's incremental replays
        for k in range(12):
            if k % 2:  # OMA: exclusive frequencies, sources without one sit out
                coverage, packet = bl.random_coverage_slice(m, T, rng)
                plan = bl.initial_rb_allocation(
                    link, coverage, packet, bl.draw_powers("NOMA-RP", m, T, rng), oma=True
                )
            else:
                plan = bl.OfflinePlan(
                    coverage_m=rng.choice(COVERAGE_LEVELS_M, size=(m, T)),
                    packet=rng.integers(0, 3, size=(m, T)),
                    freq=rng.integers(bl.INACTIVE, F, size=(m, T)),
                    power_dbm=rng.choice(POWER_LEVELS_DBM, size=(m, T)),  # silence included
                )
            inactive += int((plan.freq == bl.INACTIVE).sum())
            for s in range(m):
                pkt = sc.packets[2 * s + 1]
                closed += sum(
                    plan.packet[s, t] == phy.PKT_SLICE2 and not pkt.arrival_slot <= t <= pkt.deadline_slot
                    for t in range(T)
                )
            columns = bl.plan_columns(plan)
            record = bl.evaluate_plan(columns, sc, link)
            assert len(record) == T + 1
            for _ in range(10):
                t = int(rng.integers(T))
                edited = plan.copy()
                if rng.random() < 0.5:
                    i, j = rng.choice(m, size=2, replace=False)
                    edited.freq[i, t], edited.freq[j, t] = plan.freq[j, t], plan.freq[i, t]
                else:
                    edited.freq[int(rng.integers(m)), t] = int(rng.integers(F))
                trial = columns.copy()  # the edited slot's column, every other one shared
                trial[t] = bl.plan_columns(edited)[t]
                ledgers = bl.evaluate_plan(trial, sc, link, record, t)
                full = bl.evaluate_plan(edited, sc, _link(chan, cfg))
                assert t < len(ledgers) - 1 and len(ledgers) <= T + 1
                # the prefix is the record's own ledgers, not copies of them
                assert all(ledgers[i] is record[i] for i in range(t + 1))
                for a, b in zip(ledgers, full):  # the shared prefix and every replayed slot
                    assert a == b
                if len(ledgers) <= T:  # rejoined the record: scores as the recorded plan
                    rejoined += 1
                    score = bl.delivered_packets(record[-1])
                    for a, b in zip(full[len(ledgers) - 1 :], record[len(ledgers) - 1 :]):
                        assert a.leftover_bits == b.leftover_bits  # and with them the delivery flags
                else:
                    ran_to_end += 1
                    score = bl.delivered_packets(ledgers[-1])
                assert score == bl.delivered_packets(full[-1])
    assert rejoined > 100 and ran_to_end > 100 and inactive > 0 and closed > 0


def _reference_moves(plan, oma, F):
    """(slot, trial plan) per candidate move, in search order, each trial a
    whole edited copy of the plan."""
    m, T = plan.freq.shape
    for t in range(T):
        for i in range(m):
            for j in range(i + 1, m):
                if plan.freq[i, t] != plan.freq[j, t]:
                    trial = plan.copy()
                    trial.freq[i, t], trial.freq[j, t] = plan.freq[j, t], plan.freq[i, t]
                    yield t, trial
        for i in range(m):
            for f in range(F):
                taken = oma and any(plan.freq[j, t] == f for j in range(m) if j != i)
                if plan.freq[i, t] != f and not taken:
                    trial = plan.copy()
                    trial.freq[i, t] = f
                    yield t, trial


def test_moves_edit_one_column_as_the_edited_plan():
    # a move rebuilds only the edited sources' actions, and the column it
    # yields is the one the whole edited plan converts to
    rng = np.random.default_rng(5)
    m, T, F = 4, 6, 3
    edits = 0
    for k in range(8):
        plan = bl.OfflinePlan(
            coverage_m=rng.choice(COVERAGE_LEVELS_M, size=(m, T)),
            packet=rng.integers(0, 3, size=(m, T)),
            freq=rng.integers(bl.INACTIVE, F, size=(m, T)),
            power_dbm=rng.choice(POWER_LEVELS_DBM, size=(m, T)),
        )
        oma = bool(k % 2)
        columns = bl.plan_columns(plan)
        moves = list(bl._moves(columns, bl._plan_rows(plan), oma, F))
        reference = list(_reference_moves(plan, oma, F))
        assert len(moves) == len(reference)
        for (t, column, row), (ref_t, trial) in zip(moves, reference):
            assert t == ref_t
            assert column == bl.plan_columns(trial)[t]
            assert row == trial.freq[:, t].tolist()
            kept = [a is b for a, b in zip(column, columns[t])]
            assert kept.count(False) <= 2  # only the edited sources' tuples are new
            edits += 1
    assert edits > 100


def _reference_swap_matching(plan, evaluate, oma, F, max_iters=1000):
    """The search scoring every trial by a replay of all T slots; evaluate:
    plan -> delivered count. Returns the plan, its objective history and the
    number of plans scored."""
    current = plan.copy()
    history = [int(evaluate(current))]
    evaluations = 1
    improved = True
    while improved and len(history) - 1 < max_iters:
        improved = False
        for _, trial in _reference_moves(current, oma, F):
            score = int(evaluate(trial))
            evaluations += 1
            if score > history[-1]:
                current = trial
                history.append(score)
                improved = True
                break
    return current, history, evaluations


def test_swap_matching_matches_full_replay_search():
    cfg = ChannelConfig()
    env_cfg = EnvConfig(m=5, n=4, F=2, T=6)
    workload = WorkloadConfig(deadline_len_slots=3)
    accepted = 0
    for seed in range(30):
        sc, chan = WorldStream(RoadConfig(), env_cfg, cfg, workload, seed, TAG_EVAL)(0)
        for name in bl.BASELINE_NAMES:
            run = bl.run_baseline(name, sc, chan, cfg, 0.005, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)  # the same draws as run_baseline
            coverage, packet = bl.random_coverage_slice(env_cfg.m, env_cfg.T, rng)
            powers = bl.draw_powers(name, env_cfg.m, env_cfg.T, rng)
            oma = name.startswith("OMA")
            plan = bl.initial_rb_allocation(_link(chan, cfg), coverage, packet, powers, oma)

            def full_score(p):
                return bl.delivered_packets(bl.evaluate_plan(p, sc, _link(chan, cfg))[-1])

            ref_plan, ref_history, ref_evaluations = _reference_swap_matching(
                plan, full_score, oma, env_cfg.F
            )
            for field in ("coverage_m", "packet", "freq", "power_dbm"):
                assert np.array_equal(getattr(run.plan, field), getattr(ref_plan, field))
            assert run.objective_history == ref_history
            assert run.evaluations == ref_evaluations
            assert run.stats == phy.reception_stats(bl.evaluate_plan(ref_plan, sc, _link(chan, cfg))[-1])
            accepted += len(ref_history) - 1
    assert accepted > 30


def test_run_baseline_counts_replayed_slots():
    cfg = RunConfig()
    sc, chan = WorldStream(cfg.road, cfg.env, cfg.channel, cfg.workload, cfg.seed, TAG_EVAL)(0)
    run = bl.run_baseline("NOMA-MP", sc, chan, cfg.channel, cfg.env.slot_duration_s, np.random.default_rng(0))
    T = cfg.env.T
    assert run.evaluations > 1
    assert T <= run.slots_replayed < run.evaluations * T  # trials stop once they rejoin


def test_run_baseline_rejects_unknown_name():
    sc = hand_built_scenario([0.0], [100.0])
    chan = forced_channel(sc, -80.0, F=2)
    with pytest.raises(ValueError, match="OMA-MP"):
        bl.run_baseline("JUNK", sc, chan, ChannelConfig(), 0.005, np.random.default_rng(0))


def test_run_baseline_zero_gains_zero_delivered():
    sc = hand_built_scenario([0.0, 300.0], [100.0, 400.0])
    chan = forced_channel(sc, -80.0, F=2)
    chan.gain_lin[:] = 0.0
    for name in bl.BASELINE_NAMES:
        run = bl.run_baseline(name, sc, chan, ChannelConfig(), 0.005, np.random.default_rng(1))
        assert run.stats.packets == (0, 0)


def test_run_baseline_seeded_identical():
    sc = hand_built_scenario([0.0, 300.0], [100.0, 400.0])
    chan = forced_channel(sc, -85.0, F=2)
    a = bl.run_baseline("NOMA-RP", sc, chan, ChannelConfig(), 0.005, np.random.default_rng(7))
    b = bl.run_baseline("NOMA-RP", sc, chan, ChannelConfig(), 0.005, np.random.default_rng(7))
    assert a.stats == b.stats
    assert np.array_equal(a.plan.freq, b.plan.freq)
    assert np.array_equal(a.plan.power_dbm, b.plan.power_dbm)


def test_mp_uses_max_power_rp_random():
    rng = np.random.default_rng(9)
    assert np.all(bl.draw_powers("NOMA-MP", 3, 50, rng) == 30.0)
    assert np.all(bl.draw_powers("OMA-MP", 3, 50, rng) == 30.0)
    rp = bl.draw_powers("NOMA-RP", 3, 400, rng)
    values, counts = np.unique(rp, return_counts=True)
    assert set(values.tolist()) == {15.0, 23.0, 30.0}
    assert counts.min() > 300  # roughly uniform over 1200 draws

from itertools import product

import numpy as np
import pytest

from iovslice import baselines as bl
from iovslice import phy
from iovslice.channel import ChannelConfig
from iovslice.env import (
    COVERAGE_LEVELS_M,
    POWER_LEVELS_DBM,
    EnvConfig,
    SlicingEnv,
    action_to_slot_action,
    encode_action,
    n_actions,
)
from iovslice.oracle import SearchSpaceTooLarge, brute_force_optimal, replay_actions
from iovslice.scenario import Packet, RoadConfig, SLICE_SAFETY, SLICE_THROUGHPUT
from iovslice.worlds import TAG_EVAL, WorkloadConfig, WorldStream

from tests.conftest import forced_channel, hand_built_scenario

COV = (0.0, 1400.0)
POW = (phy.SILENCE_POWER_DBM, 30.0)


def test_oracle_refuses_large_space():
    sc = hand_built_scenario([0.0, 300.0], [100.0])
    chan = forced_channel(sc, -80.0, F=2, T=20)
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_optimal(sc, chan, ChannelConfig(), 0.005, COV, POW)


def test_oracle_certain_single_delivery():
    # only the safety packet fits in a single-slot horizon over a strong link
    packets = [
        Packet(0, SLICE_THROUGHPUT, 5e9, 0, 0, 5e9),
        Packet(0, SLICE_SAFETY, 4800.0, 0, 0, 4800.0),
    ]
    sc = hand_built_scenario([0.0], [100.0], packets=packets)
    chan = forced_channel(sc, -60.0, F=1, T=1)
    res = brute_force_optimal(sc, chan, ChannelConfig(), 0.005, COV, POW)
    assert res.best_delivered == 1
    best = res.best_actions[0][0]
    assert best.packet_id == phy.PKT_SLICE2 and best.power_dbm == 30.0


def test_oracle_zero_gains_zero_optimum():
    packets = [
        Packet(0, SLICE_THROUGHPUT, 1e5, 0, 1, 1e5),
        Packet(0, SLICE_SAFETY, 4800.0, 0, 1, 4800.0),
    ]
    sc = hand_built_scenario([0.0], [100.0], packets=packets)
    chan = forced_channel(sc, -80.0, F=1, T=2)
    chan.gain_lin[:] = 0.0
    res = brute_force_optimal(sc, chan, ChannelConfig(), 0.005, COV, POW)
    assert res.best_delivered == 0


def _random_tiny_instance(seed, m=2, T=3, workload=WorkloadConfig(deadline_len_slots=2)):
    env_cfg = EnvConfig(m=m, n=2, F=1, T=T)
    stream = WorldStream(RoadConfig(), env_cfg, ChannelConfig(), workload, seed, TAG_EVAL)
    return env_cfg, *stream(0)


def test_policies_never_beat_oracle():
    # the baselines draw from every coverage and power level, so the bound must too
    for seed in range(6):
        env_cfg, sc, chan = _random_tiny_instance(seed)
        res = brute_force_optimal(sc, chan, ChannelConfig(), 0.005, COVERAGE_LEVELS_M, POWER_LEVELS_DBM)
        for name in bl.BASELINE_NAMES:
            run = bl.run_baseline(
                name, sc, chan, ChannelConfig(), 0.005, np.random.default_rng(seed)
            )
            assert sum(run.stats.packets) <= res.best_delivered


def _best_raw_count(sc, chan, env_cfg):
    """Best delivered count over every raw action sequence, by plain replay."""
    m, T = env_cfg.m, env_cfg.T
    raw = [action_to_slot_action(i, env_cfg.F) for i in range(n_actions(env_cfg.F))]
    best = 0
    for flat in product(raw, repeat=m * T):
        slots = [flat[t * m:(t + 1) * m] for t in range(T)]
        ledger = replay_actions(sc, chan, ChannelConfig(), 0.005, slots)
        best = max(best, int(ledger.delivered.sum()))
    return best


def test_oracle_pruning_is_exact():
    # small slice 1 payloads so that both slices, interference and group
    # choice all matter; 60 raw actions per source keeps m*T = 2 enumerable
    small = WorkloadConfig(slice1_bits_min=1e4, slice1_bits_max=2e5, deadline_len_slots=1)
    instances = [_random_tiny_instance(seed, m, 3 - m, small) for m in (1, 2) for seed in range(4)]
    # here both sources deliver only if one of them stays below 30 dBm
    instances.append(_random_tiny_instance(47, 2, 1, small))
    # acceptance criterion 6, instance 30: a 100/400/1000 m radius is needed
    instances.append(_random_tiny_instance(5030, 1, 2))
    # the throughput packet needs both slots at 23 dBm or more
    packets = [
        Packet(0, SLICE_THROUGHPUT, 1.5e5, 0, 1, 1.5e5),
        Packet(0, SLICE_SAFETY, 5e9, 0, 1, 5e9),
    ]
    sc = hand_built_scenario([0.0], [100.0], packets=packets)
    instances.append((EnvConfig(m=1, n=1, F=1, T=2), sc, forced_channel(sc, -80.0, F=1, T=2)))
    optima = []
    for env_cfg, sc, chan in instances:
        res = brute_force_optimal(sc, chan, ChannelConfig(), 0.005, COVERAGE_LEVELS_M, POWER_LEVELS_DBM)
        assert res.best_delivered == _best_raw_count(sc, chan, env_cfg)
        ledger = replay_actions(sc, chan, ChannelConfig(), 0.005, res.best_actions)
        assert int(ledger.delivered.sum()) == res.best_delivered
        optima.append(res.best_delivered)
    assert max(optima) == 2  # not a suite of empty instances


def test_oracle_replay_matches_env_ledger():
    for seed in range(4):
        env_cfg, sc, chan = _random_tiny_instance(seed)
        res = brute_force_optimal(sc, chan, ChannelConfig(), 0.005, COV, POW)
        ledger = replay_actions(sc, chan, ChannelConfig(), 0.005, res.best_actions)
        assert int(ledger.delivered.sum()) == res.best_delivered

        # drive the environment with the same action sequence
        env = SlicingEnv(env_cfg, ChannelConfig())
        env.reset(sc, chan)
        for slot_actions in res.best_actions:
            for act in slot_actions:
                cov_idx = {0.0: 0, 100.0: 1, 400.0: 2, 1000.0: 3, 1400.0: 4}[act.coverage_m]
                pow_idx = {phy.SILENCE_POWER_DBM: 0, 15.0: 1, 23.0: 2, 30.0: 3}[act.power_dbm]
                env.step(encode_action(cov_idx, act.packet_id, act.freq, pow_idx, env_cfg.F))
        assert np.array_equal(env.ledger.leftover_bits, ledger.leftover_bits)
        assert np.array_equal(env.ledger.delivered, ledger.delivered)
        assert env.ledger.reached == ledger.reached


def test_oracle_early_exit_on_full_delivery():
    packets = [
        Packet(0, SLICE_THROUGHPUT, 100.0, 0, 1, 100.0),  # trivially small
        Packet(0, SLICE_SAFETY, 100.0, 0, 1, 100.0),
    ]
    sc = hand_built_scenario([0.0], [100.0], packets=packets)
    chan = forced_channel(sc, -60.0, F=1, T=2)
    res = brute_force_optimal(sc, chan, ChannelConfig(), 0.005, COV, POW)
    assert res.best_delivered == 2


def test_replay_paths_agree():
    # the environment, the baselines' evaluator and the oracle's replay feed
    # the same raw choices to the shared link layer, masked choices included
    worlds = [_random_tiny_instance(seed, 2, 6) for seed in range(4)]
    for gain_db in (-60.0, -80.0):  # slice 2 delivers in one slot at -60 dB
        sc = hand_built_scenario([0.0, 300.0], [100.0, 400.0])  # slice 2 window 0..7
        worlds.append((EnvConfig(m=2, n=2, F=2, T=12), sc, forced_channel(sc, gain_db, F=2, T=12)))
    rng = np.random.default_rng(2718)
    delivered_picks = closed_picks = 0
    for env_cfg, sc, chan in worlds:
        m, F, T = env_cfg.m, env_cfg.F, env_cfg.T
        for _ in range(5):
            choices = rng.integers(n_actions(F), size=(T, m))
            acts = [[action_to_slot_action(int(i), F) for i in row] for row in choices]
            env = SlicingEnv(env_cfg, ChannelConfig())
            env.reset(sc, chan)
            for t in range(T):
                for s, act in enumerate(acts[t]):
                    if act.packet_id != phy.PKT_NONE:
                        k = env.ledger.index(s, act.packet_id)
                        pkt = sc.packets[k]
                        delivered_picks += bool(env.ledger.delivered[k])
                        closed_picks += act.packet_id == phy.PKT_SLICE2 and not (
                            pkt.arrival_slot <= t <= pkt.deadline_slot
                        )
                for idx in choices[t]:
                    env.step(int(idx))
            plan = bl.OfflinePlan(
                coverage_m=np.array([[a.coverage_m for a in row] for row in acts]).T,
                packet=np.array([[a.packet_id for a in row] for row in acts]).T,
                freq=np.array([[a.freq for a in row] for row in acts]).T,
                power_dbm=np.array([[a.power_dbm for a in row] for row in acts]).T,
            )
            for ledger in (
                bl.evaluate_plan(plan, sc, chan, ChannelConfig(), env_cfg.slot_duration_s),
                replay_actions(sc, chan, ChannelConfig(), env_cfg.slot_duration_s, acts),
            ):
                assert np.array_equal(ledger.leftover_bits, env.ledger.leftover_bits)
                assert np.array_equal(ledger.delivered, env.ledger.delivered)
                assert ledger.reached == env.ledger.reached
    assert delivered_picks > 0 and closed_picks > 0

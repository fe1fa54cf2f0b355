from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iovslice import baselines as bl
from iovslice import oracle, phy
from iovslice.channel import ChannelConfig
from iovslice.config import RunConfig
from iovslice.dqn import DuelingQNetwork, greedy_episode
from iovslice.env import EnvConfig, SlicingEnv
from iovslice.oracle import SearchSpaceTooLarge, brute_force_optimal
from iovslice.scenario import Packet, RoadConfig, SLICE_SAFETY
from iovslice.worlds import TAG_EVAL, WorkloadConfig, WorldStream, algorithm_rng

from conftest import forced_channel, hand_built_scenario, reference_useful


def _link(chan, slot_duration_s=0.005):
    """A fresh link table of this channel."""
    return phy.EpisodeLink(chan, ChannelConfig(), slot_duration_s)


def test_oracle_refuses_large_space():
    sc = hand_built_scenario([0.0, 300.0], [100.0])
    chan = forced_channel(sc, -80.0, F=2, T=20)
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_optimal(sc, _link(chan))


def test_oracle_certain_single_delivery():
    # only the safety packet fits in a single-slot horizon, and only at 30 dBm
    packets = [
        Packet(5e9, 0, 0),
        Packet(4800.0, 0, 0),
    ]
    sc = hand_built_scenario([0.0], [100.0], packets=packets)
    chan = forced_channel(sc, -132.0, F=1, T=1)
    res = brute_force_optimal(sc, _link(chan))
    assert res.best_delivered == 1
    best = res.best_actions[0][0]
    assert best.packet_id == SLICE_SAFETY and best.power_dbm == 30.0


def test_oracle_zero_gains_zero_optimum():
    packets = [
        Packet(1e5, 0, 1),
        Packet(4800.0, 0, 1),
    ]
    sc = hand_built_scenario([0.0], [100.0], packets=packets)
    chan = forced_channel(sc, -80.0, F=1, T=2)
    chan.gain_lin[:] = 0.0
    res = brute_force_optimal(sc, _link(chan))
    assert res.best_delivered == 0


def _replay(sc, chan, columns, slot_duration_s=0.005):
    """The ledger after replaying per-slot action columns from a fresh link."""
    return bl.evaluate_plan(columns, sc, _link(chan, slot_duration_s))[-1]


def _random_tiny_instance(seed, m=2, T=3, workload=WorkloadConfig(deadline_len_slots=2)):
    env_cfg = EnvConfig(m=m, n=2, F=1, T=T)
    sc, link = WorldStream(RoadConfig(), env_cfg, ChannelConfig(), workload, seed, TAG_EVAL)(0)
    return env_cfg, sc, link.chan


def test_policies_never_beat_oracle():
    # the baselines draw from the levels of the table the bound searches
    for seed in range(6):
        env_cfg, sc, chan = _random_tiny_instance(seed)
        res = brute_force_optimal(sc, _link(chan))
        for name in bl.BASELINE_NAMES:
            run = bl.run_baseline(name, sc, _link(chan), np.random.default_rng(seed), RunConfig().swap_max_iters)
            assert sum(run.stats.packets) <= res.best_delivered


def _best_raw_count(sc, chan, env_cfg):
    """Best delivered count over every raw action sequence, by plain replay."""
    m, T = env_cfg.m, env_cfg.T
    best = 0
    for flat in product(phy.action_table(env_cfg.F), repeat=m * T):
        slots = [flat[t * m:(t + 1) * m] for t in range(T)]
        best = max(best, _replay(sc, chan, slots).leftover_bits.count(0.0))
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
        Packet(1.5e5, 0, 1),
        Packet(5e9, 0, 1),
    ]
    sc = hand_built_scenario([0.0], [100.0], packets=packets)
    instances.append((EnvConfig(m=1, n=1, F=1, T=2), sc, forced_channel(sc, -80.0, F=1, T=2)))
    optima = []
    for env_cfg, sc, chan in instances:
        res = brute_force_optimal(sc, _link(chan))
        assert res.best_delivered == _best_raw_count(sc, chan, env_cfg)
        assert _replay(sc, chan, res.best_actions).leftover_bits.count(0.0) == res.best_delivered
        optima.append(res.best_delivered)
    assert max(optima) == 2  # not a suite of empty instances


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 3),
    n=st.integers(1, 4),
    F=st.integers(1, 2),
    T=st.integers(1, 4),
    deadline=st.integers(1, 4),
    seed=st.integers(0, 999),
)
def test_candidates_cover_every_useful_table_action(m, n, F, T, deadline, seed):
    """The same-effect rule on its own: per (source, slot), every table
    action that is useful on the start ledger, for a packet peak rates could
    deliver, has a candidate with its (packet, group, frequency, linear
    power), and no two candidates share one."""
    env_cfg = EnvConfig(m=m, n=n, F=F, T=T)
    workload = WorkloadConfig(slice1_bits_min=1e3, slice1_bits_max=2e5, deadline_len_slots=min(deadline, T))
    sc, link = WorldStream(RoadConfig(), env_cfg, ChannelConfig(), workload, seed, TAG_EVAL)(0)
    deliverable = oracle._peak_tails(sc, link)[0]
    cands = oracle.candidate_actions(sc, link, deliverable.keys())
    start = phy.DeliveryLedger.start(sc.packets)

    def effect(s, act):
        return act.packet_id, link.group(s, act.coverage_m), act.freq, phy.power_lin_mw(act.power_dbm)

    for s in range(m):
        for t in range(T):
            assert cands[t][s][0] == (-1, phy.OFF_AIR)
            assert all(k == 2 * s + (c.packet_id - 1) for k, c in cands[t][s][1:])
            have = [effect(s, c) for _, c in cands[t][s][1:]]
            assert len(set(have)) == len(have)
            for act in phy.action_table(F):
                if not reference_useful(start, s, act, t, link):
                    continue
                if 2 * s + (act.packet_id - 1) in deliverable:
                    assert effect(s, act) in have


def test_oracle_replay_matches_env_ledger():
    for seed in range(4):
        env_cfg, sc, chan = _random_tiny_instance(seed)
        res = brute_force_optimal(sc, _link(chan))
        ledger = _replay(sc, chan, res.best_actions)
        assert ledger.leftover_bits.count(0.0) == res.best_delivered

        # drive the environment with the same action sequence
        env = SlicingEnv(env_cfg)
        env.reset(sc, _link(chan))
        table = phy.action_table(env_cfg.F)
        for slot_actions in res.best_actions:
            for act in slot_actions:
                env.step(table.index(act))
        assert env.ledger == ledger


def test_oracle_early_exit_on_full_delivery():
    packets = [
        Packet(100.0, 0, 1),  # trivially small
        Packet(100.0, 0, 1),
    ]
    sc = hand_built_scenario([0.0], [100.0], packets=packets)
    chan = forced_channel(sc, -60.0, F=1, T=2)
    res = brute_force_optimal(sc, _link(chan))
    assert res.best_delivered == 2


def test_replay_paths_agree():
    # the environment, the baselines' plan form and a plain replay of the
    # raw choices feed the same choices to the shared link layer, masked
    # choices included
    worlds = [_random_tiny_instance(seed, 2, 6) for seed in range(4)]
    for gain_db in (-60.0, -80.0):  # slice 2 delivers in one slot at -60 dB
        sc = hand_built_scenario([0.0, 300.0], [100.0, 400.0])  # slice 2 window 0..7
        worlds.append((EnvConfig(m=2, n=2, F=2, T=12), sc, forced_channel(sc, gain_db, F=2, T=12)))
    rng = np.random.default_rng(2718)
    delivered_picks = closed_picks = 0
    for env_cfg, sc, chan in worlds:
        m, F, T = env_cfg.m, env_cfg.F, env_cfg.T
        table = phy.action_table(F)
        for _ in range(5):
            choices = rng.integers(len(table), size=(T, m))
            acts = [[table[i] for i in row] for row in choices]
            env = SlicingEnv(env_cfg)
            env.reset(sc, _link(chan, env_cfg.slot_duration_s))
            for t in range(T):
                for s, act in enumerate(acts[t]):
                    if act.packet_id != phy.PKT_NONE:
                        k = 2 * s + (act.packet_id - 1)
                        pkt = sc.packets[k]
                        delivered_picks += env.ledger.leftover_bits[k] == 0.0
                        closed_picks += act.packet_id == SLICE_SAFETY and not (
                            pkt.arrival_slot <= t <= pkt.deadline_slot
                        )
                for idx in choices[t]:
                    env.step(int(idx))
            options = bl.slot_options(
                np.array([[a.coverage_m for a in row] for row in acts]).T,
                np.array([[a.packet_id for a in row] for row in acts]).T,
                np.array([[a.power_dbm for a in row] for row in acts]).T,
                F,
            )
            columns = bl.plan_columns(options, [[a.freq for a in row] for row in acts])
            for ledger in (
                bl.evaluate_plan(columns, sc, _link(chan, env_cfg.slot_duration_s))[-1],
                _replay(sc, chan, acts, env_cfg.slot_duration_s),
            ):
                assert env.ledger == ledger
    assert delivered_picks > 0 and closed_picks > 0


@pytest.mark.parametrize("tiny", [True, False])
def test_shared_link_replays_match_fresh_links_across_policies(tiny, monkeypatch):
    """The three baselines, the oracle (on tiny instances, where it fits the
    budget) and a random network's greedy rollout, played in sequence on a
    world's one link in either order, each give what they give on a fresh
    link of that world: every `BaselineRun` field, the `OracleResult` and
    the rollout's stats. Sharing does save solves."""
    cfg = RunConfig()
    solves = []
    real_slot_rates = phy.slot_rates

    def counted(*args):
        solves[-1] += 1
        return real_slot_rates(*args)

    monkeypatch.setattr(phy, "slot_rates", counted)
    fresh_solves = shared_solves = 0
    for seed in range(8 if tiny else 4):
        if tiny:
            env_cfg, workload = EnvConfig(m=1 + seed % 2, n=2, F=1, T=3), WorkloadConfig(deadline_len_slots=2)
        else:
            env_cfg, workload = cfg.env, cfg.workload
        stream = WorldStream(cfg.road, env_cfg, cfg.channel, workload, seed, TAG_EVAL)
        sc = stream(0)[0]
        net = DuelingQNetwork(env_cfg.obs_dim, (16, 16), env_cfg.n_actions, np.random.default_rng(seed))
        plays = {
            name: lambda link, name=name, i=i: bl.run_baseline(
                name, sc, link, algorithm_rng(seed, workload, 0, i), cfg.swap_max_iters
            )
            for i, name in enumerate(bl.BASELINE_NAMES)
        }
        plays["DQL"] = lambda link: greedy_episode(net, SlicingEnv(env_cfg), sc, link)
        if tiny:
            plays["oracle"] = lambda link: brute_force_optimal(sc, link)
        want = {}
        for name, play in plays.items():
            solves.append(0)
            want[name] = play(stream(0)[1])
            fresh_solves += solves[-1]
        for order in (list(plays), list(reversed(plays))):
            link = stream(0)[1]
            solves.append(0)
            for name in order:
                assert plays[name](link) == want[name], (seed, name, order)
            shared_solves += solves[-1]
    assert 0 < shared_solves < 2 * fresh_solves

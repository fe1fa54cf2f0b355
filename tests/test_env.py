import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iovslice import phy
from iovslice.channel import ChannelConfig, noise_lin_mw
from iovslice.env import (
    FADE_CLIP,
    GAIN_DB_HI,
    GAIN_DB_LO,
    ContractViolation,
    EnvConfig,
    SlicingEnv,
    default_rate_norm_bps,
    episode_return,
    individual_reward,
)
from iovslice.config import RunConfig
from iovslice.scenario import SLICE_SAFETY, SLICE_THROUGHPUT, RoadConfig
from iovslice.worlds import TAG_EVAL, TAG_TRAIN, WorkloadConfig, WorldStream

from conftest import forced_channel, hand_built_scenario, reference_slot

# the level counts of the action space, in mixed-radix order: coverage (most
# significant), packet, frequency, power; the frequency count is F
RADIX = {"coverage": 5, "packet": 3, "power": 4}


def level_indices(index, F):
    """(coverage, packet, frequency, power) level indices of a flat action
    index: the mixed-radix digits, decoded here independently of the table."""
    index, pw = divmod(index, RADIX["power"])
    index, freq = divmod(index, F)
    cov, pkt = divmod(index, RADIX["packet"])
    return cov, pkt, freq, pw


def action_index(packet_id, coverage_m, freq, power_dbm, F=2):
    return phy.action_table(F).index(phy.SlotAction(packet_id, coverage_m, freq, power_dbm))


SILENT = action_index(phy.PKT_NONE, 0.0, 0, phy.SILENCE_POWER_DBM)
SLICE2_100M_30DBM = action_index(SLICE_SAFETY, 100.0, 0, 30.0)


def make_env(src_x, dst_x, gain_db=-80.0, m=None, n=None, F=2, T=20, **env_kw):
    sc = hand_built_scenario(src_x, dst_x)
    cfg = EnvConfig(m=len(src_x), n=len(dst_x), F=F, T=T, **env_kw)
    link = phy.EpisodeLink(forced_channel(sc, gain_db, F=F, T=T), ChannelConfig(), cfg.slot_duration_s)
    env = SlicingEnv(cfg)
    return env, sc, link


def test_action_table_index_order():
    """Entry i of the table holds the levels at i's mixed-radix digits, so
    the committed checkpoint's output i still means the same choice."""
    assert (len(phy.COVERAGE_LEVELS_M), len(phy.PACKET_CHOICES), len(phy.POWER_LEVELS_DBM)) == tuple(RADIX.values())
    for F in range(1, 5):
        table = phy.action_table(F)
        assert len(table) == EnvConfig(F=F).n_actions == 60 * F
        for i, act in enumerate(table):
            cov, pkt, freq, pw = level_indices(i, F)
            assert act == (phy.PACKET_CHOICES[pkt], phy.COVERAGE_LEVELS_M[cov], freq, phy.POWER_LEVELS_DBM[pw])


def test_observation_layout_on_reset():
    env, sc, link = make_env([0.0, 300.0, 600.0], [100.0, 400.0, 700.0, 1000.0])
    obs = env.reset(sc, link)
    assert obs.shape == (73,)
    assert np.all((obs >= 0.0) & (obs <= 1.0))
    m, n, F = 3, 4, 2
    leftovers = obs[m * n + m * n * F + 3 * m : m * n + m * n * F + 3 * m + 2 * m]
    assert np.all(leftovers == 1.0)
    slot_feature = obs[m * n * (1 + F) + 7 * m]
    assert slot_feature == 0.0
    # deciding vehicle one-hot points at vehicle 0
    deciding = obs[m * n * (1 + F) + 7 * m + 1 : m * n * (1 + F) + 8 * m + 1]
    assert list(deciding) == [1.0, 0.0, 0.0]


def test_reset_rejects_mismatched_world():
    # a scenario, gain shape or slot duration the config does not fit is
    # refused mid-episode, and the episode plays on as it was
    env, sc, link = make_env([0.0, 300.0], [100.0, 400.0])
    env.reset(sc, link)
    env.step(SLICE2_100M_30DBM)
    before = (env.scenario, env.link, env.slot, env.pending, env.ledger, env.observation().tobytes())
    cfg = ChannelConfig()
    for bad in (
        (hand_built_scenario([0.0], [100.0]), link),
        (sc, phy.EpisodeLink(forced_channel(sc, -80.0, F=1, T=20), cfg, env.cfg.slot_duration_s)),
        (sc, phy.EpisodeLink(forced_channel(sc, -80.0, F=2, T=19), cfg, env.cfg.slot_duration_s)),
        (sc, phy.EpisodeLink(link.chan, cfg, 2 * env.cfg.slot_duration_s)),
    ):
        with pytest.raises(ValueError):
            env.reset(*bad)
        assert (env.scenario, env.link, env.slot, env.pending, env.ledger, env.observation().tobytes()) == before


def test_micro_step_flow_and_terminal():
    env, sc, link = make_env([0.0, 300.0], [100.0, 400.0], T=3)
    env.reset(sc, link)
    steps = 0
    done = False
    while not done:
        res = env.step(SILENT)
        steps += 1
        if steps % 2 == 1:  # first vehicle of the slot: no slot resolution yet
            assert res.reward == 0.0 and not res.terminal
        done = res.terminal
    assert steps == 2 * 3
    with pytest.raises(ContractViolation):
        env.step(SILENT)


def test_step_before_reset_is_a_contract_violation():
    env, sc, link = make_env([0.0], [100.0])
    with pytest.raises(ContractViolation):
        env.step(SILENT)
    env.reset(sc, link)
    assert not env.step(SILENT).terminal


def test_rejected_action_index_changes_nothing():
    # a bad index mid-slot leaves the episode as an untouched twin's, and it
    # plays on to the same observation bytes and rewards
    env_cfg = EnvConfig()
    world = WorldStream(RoadConfig(), env_cfg, ChannelConfig(), WorkloadConfig(), 3, TAG_TRAIN)(0)
    env, twin = SlicingEnv(env_cfg), SlicingEnv(env_cfg)
    assert env.reset(*world).tobytes() == twin.reset(*world).tobytes()
    rng = np.random.default_rng(9)
    steps = 0
    done = False
    while not done:
        action = int(rng.integers(env_cfg.n_actions))
        if steps in (1, 7):  # a later vehicle of slot 0, the first of slot 2
            for bad, error in ((env_cfg.n_actions, ValueError), (-1, ValueError), (2.7, TypeError)):
                with pytest.raises(error):
                    env.step(bad)
            assert env.pending == twin.pending and env.deciding == twin.deciding
            assert env.observation().tobytes() == twin.observation().tobytes()
        res, want = env.step(action), twin.step(np.int64(action))
        assert res.reward == want.reward and res.terminal == want.terminal
        assert res.next_observation.tobytes() == want.next_observation.tobytes()
        steps += 1
        done = res.terminal
    assert steps == env_cfg.m * env_cfg.T
    assert env.slot_rewards == twin.slot_rewards and env.ledger == twin.ledger


def test_all_silent_episode_zero_reward():
    env, sc, link = make_env([0.0, 300.0, 600.0], [100.0, 400.0, 700.0, 1000.0])
    env.reset(sc, link)
    total = 0.0
    done = False
    while not done:
        res = env.step(SILENT)
        total += res.reward
        done = res.terminal
    assert total == 0.0
    assert env.stats().packets == (0, 0)


def _pin_rate(link, cfg, sinr):
    """Set all gains so a 30 dBm transmission sees exactly this sinr; only
    before the link resolves its first slot."""
    gain = sinr * noise_lin_mw(cfg) / phy.power_lin_mw(30.0)
    link.gain_lin[:] = gain


def test_delivery_reward_is_upper_bound():
    env, sc, link = make_env([0.0], [100.0])
    _pin_rate(link, ChannelConfig(), sinr=1.0)  # 1 Mbps: slice 2 fits one slot
    env.reset(sc, link)
    res = env.step(SLICE2_100M_30DBM)
    assert res.reward == pytest.approx(1.0)
    assert env.ledger.leftover_bits[1] == 0.0  # delivered


def test_unfinished_rate_reward_scaling():
    env, sc, link = make_env([0.0], [100.0])
    cfg = ChannelConfig()
    _pin_rate(link, cfg, sinr=1.0)  # 1 Mbps on slice 1: far from finishing
    env.reset(sc, link)
    res = env.step(action_index(SLICE_THROUGHPUT, 100.0, 0, 30.0))
    assert res.reward == pytest.approx(1e6 / default_rate_norm_bps(cfg))


def test_reward_normalizer_follows_the_world():
    """Unless the config fixes it, each reset reads the normalizer off the
    world's link: a world drawn under a 2 MHz, -110 dBm channel pays its
    rates against that channel's clean-channel rate, and the next world, a
    default one, on the same env against the default's."""
    env_cfg = EnvConfig()
    wide = ChannelConfig(rb_bandwidth_hz=2e6, noise_floor_dbm=-110.0)
    worlds = [
        (cfg, WorldStream(RoadConfig(), env_cfg, cfg, WorkloadConfig(), 0, TAG_EVAL)(0)) for cfg in (wide, ChannelConfig())
    ]
    column = [phy.SlotAction(SLICE_THROUGHPUT, 400.0, src % env_cfg.F, 30.0) for src in range(env_cfg.m)]
    env = SlicingEnv(env_cfg)
    for cfg, (sc, link) in worlds:
        env.reset(sc, link)
        assert env.rate_norm_bps.hex() == default_rate_norm_bps(cfg).hex()
        after, effects = phy.apply_slot(phy.DeliveryLedger.start(sc.packets), column, link, 0)
        norms = {default_rate_norm_bps(c) for c in (wide, ChannelConfig())}
        rewards = {
            norm: sum(
                individual_reward(k >= 0 and after.leftover_bits[k] == 0.0, group_mask, rate, norm, 1.0)
                for k, _, group_mask, rate in effects
            )
            for norm in norms
        }
        assert len(set(rewards.values())) == 2  # the normalizer shows in the reward
        assert env.step_slot(column).reward.hex() == rewards[default_rate_norm_bps(cfg)].hex()
    fixed = SlicingEnv(EnvConfig(rate_norm_bps=3e6))
    for _, world in worlds:
        fixed.reset(*world)
        assert fixed.rate_norm_bps == 3e6


def test_individual_reward_cases():
    # arguments: delivered now, group bitmask, rate, rate normalizer, upper bound
    norm = 2e6
    assert individual_reward(True, 0b1, 5e5, norm, 1.0) == 1.0  # delivered
    assert individual_reward(True, 0b1, 5e5, norm, 2.5) == 2.5
    assert individual_reward(False, 0b1, 1e6, norm, 1.0) == pytest.approx(0.5)  # half the normalizer
    assert individual_reward(False, 0b1, 4e6, norm, 1.0) == 1.0  # clipped
    assert individual_reward(False, 0, 0.0, norm, 1.0) == 0.0  # silent, or on the air to no one at rate 0
    assert individual_reward(False, 0, 1e6, norm, 1.0) == 0.0  # an empty group pays nothing, whatever the rate


def test_masking_blocks_double_delivery():
    env, sc, link = make_env([0.0], [100.0])
    _pin_rate(link, ChannelConfig(), sinr=1.0)
    env.reset(sc, link)
    act = SLICE2_100M_30DBM
    res = env.step(act)
    assert res.reward == 1.0
    # keep hammering the delivered packet: masked to silence, no reward
    for _ in range(5):
        res = env.step(act)
        assert res.reward == 0.0
    assert env.ledger.leftover_bits[1] == 0.0


def test_out_of_window_slice2_masked_not_fatal():
    env, sc, link = make_env([0.0], [100.0])
    _pin_rate(link, ChannelConfig(), sinr=1.0)
    env.reset(sc, link)
    act = SLICE2_100M_30DBM
    # slice 2 window for the hand-built scenario is slots 0..7
    for t in range(20):
        res = env.step(act)
        if t == 0:
            assert res.reward == 1.0
        else:
            assert res.reward == 0.0  # delivered already, then window closes


def test_reward_bounds():
    env, sc, link = make_env([0.0, 300.0, 600.0], [100.0, 400.0, 700.0, 1000.0], gain_db=-60.0)
    env.reset(sc, link)
    rng = np.random.default_rng(3)
    done = False
    while not done:
        res = env.step(int(rng.integers(120)))
        assert 0.0 <= res.reward <= 3.0  # m * reward_upper_bound
        done = res.terminal
    assert sum(env.slot_rewards) <= 3 * 20


def test_determinism_bitwise():
    def run():
        env, sc, link = make_env([0.0, 300.0], [100.0, 400.0])
        obs = env.reset(sc, link)
        rng = np.random.default_rng(17)
        rewards, observations = [], [obs.copy()]
        done = False
        while not done:
            res = env.step(int(rng.integers(env.cfg.n_actions)))
            rewards.append(res.reward)
            observations.append(res.next_observation.copy())
            done = res.terminal
        return rewards, observations, env.ledger.leftover_bits

    r1, o1, l1 = run()
    r2, o2, l2 = run()
    assert r1 == r2
    assert all(np.array_equal(a, b) for a, b in zip(o1, o2))
    assert np.array_equal(l1, l2)


def test_episode_return():
    assert episode_return([1.0, 2.0, 3.0], 1.0) == 6.0
    assert episode_return([1.0, 2.0], 0.5) == 2.0
    assert episode_return([0.0] * 7, 0.9) == 0.0


def test_peer_choices_visible_within_slot():
    env, sc, link = make_env([0.0, 300.0, 600.0], [100.0, 400.0, 700.0, 1000.0])
    env.reset(sc, link)
    res = env.step(action_index(SLICE_THROUGHPUT, 400.0, 1, 30.0))
    m, n, F = 3, 4, 2
    peer = res.next_observation[-4 * m :].reshape(m, 4)
    assert peer[0] == pytest.approx([2 / 4, 1 / 2, 1.0, 3 / 3])
    assert np.all(peer[1:] == 0.0)


def reference_observation(env):
    """The observation built from scratch out of the environment's state."""
    cfg = env.cfg
    m, F, T = cfg.m, cfg.F, cfg.T
    peer = np.zeros((m, 4))
    for src, idx in enumerate(env.pending):
        cov, pkt, freq, pw = level_indices(idx, F)
        peer[src] = (
            cov / (RADIX["coverage"] - 1),
            pkt / (RADIX["packet"] - 1),
            freq / (F - 1) if F > 1 else 0.0,
            pw / (RADIX["power"] - 1),
        )
    deciding = np.zeros(m)
    deciding[env.deciding] = 1.0
    parts = [
        np.clip((env.link.chan.large_scale_db.ravel() - GAIN_DB_LO) / (GAIN_DB_HI - GAIN_DB_LO), 0.0, 1.0),
        np.clip(env.link.chan.fastfade_pow[:, :, :, min(env.slot, T - 1)].ravel(), 0.0, FADE_CLIP) / FADE_CLIP,
        env.prev_choice.ravel().copy(),
        np.array(env.ledger.leftover_bits) / np.array([p.size_bits for p in env.ledger.packets]),
        np.array(
            [
                v / T
                for src in range(m)
                for v in (env.scenario.packet(src, 2).arrival_slot, env.scenario.packet(src, 2).deadline_slot)
            ]
        ),
        np.array([env.slot / T]),
        deciding,
        peer.ravel(),
    ]
    return np.concatenate(parts)


@pytest.mark.parametrize("env_cfg", [EnvConfig(), EnvConfig(m=2, n=3, F=1, T=5)])
def test_cached_observation_matches_from_scratch_build(env_cfg):
    workload = WorkloadConfig(deadline_len_slots=min(4, env_cfg.T))
    stream = WorldStream(RoadConfig(), env_cfg, ChannelConfig(), workload, 11, TAG_TRAIN)
    env = SlicingEnv(env_cfg)
    rng = np.random.default_rng(5)
    returned = []
    for episode in range(3):  # a new world per reset
        obs = env.reset(*stream(episode))
        returned.append((obs, obs.copy()))
        assert obs.tobytes() == reference_observation(env).tobytes()
        done = False
        while not done:
            res = env.step(int(rng.integers(env_cfg.n_actions)))
            assert res.next_observation.tobytes() == reference_observation(env).tobytes()
            assert not np.shares_memory(res.next_observation, returned[-1][0])
            returned.append((res.next_observation, res.next_observation.copy()))
            done = res.terminal
    assert env.observation().tobytes() == returned[-1][1].tobytes()
    # no later step or reset wrote into an array handed out earlier
    assert all(obs.tobytes() == snapshot.tobytes() for obs, snapshot in returned)


def test_action_mask_counts():
    # 4 radii above 0 x 2 packets x 2 frequencies x 3 powers above silence put
    # 48 of the 120 actions on the air at slot 0
    table = phy.action_table(2)
    env, sc, link = make_env([0.0], [300.0])
    env.reset(sc, link)
    mask = env.action_mask()
    assert mask.dtype == bool and mask.shape == (120,)
    assert mask.sum() == 36  # the 100 m radius reaches no one
    assert all(table[i].coverage_m >= 400.0 for i in np.flatnonzero(mask))
    # a destination beyond every radius: only the 72 off-air actions remain
    env, sc, link = make_env([0.0], [1500.0])
    env.reset(sc, link)
    mask = env.action_mask()
    assert mask.sum() == 72
    assert all(not phy.on_air(env.ledger, 0, table[i], 0) for i in np.flatnonzero(mask))
    for _ in range(env.cfg.T):
        env.step(SILENT)
    with pytest.raises(ContractViolation):
        env.action_mask()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_action_mask_matches_apply_slot(data):
    """Over random worlds, ledgers and slots: where some action is useful,
    action i is allowed exactly when `apply_slot`, fed i for the deciding
    vehicle, puts it on the air with a non-empty group; otherwise exactly
    the actions `apply_slot` resolves as `OFF_AIR` are allowed."""
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    F, T = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 6))
    env_cfg = EnvConfig(m=m, n=n, F=F, T=T)
    workload = WorkloadConfig(
        slice1_bits_min=1e3, slice1_bits_max=5e4, deadline_len_slots=data.draw(st.integers(1, T))
    )
    seed = data.draw(st.integers(0, 999))
    env = SlicingEnv(env_cfg)
    env.reset(*WorldStream(RoadConfig(), env_cfg, ChannelConfig(), workload, seed, TAG_TRAIN)(0))
    for _ in range(data.draw(st.integers(0, m * T - 1))):  # on to a random slot and vehicle
        env.step(data.draw(st.integers(0, env_cfg.n_actions - 1)))
    zeroed = data.draw(st.sets(st.integers(0, 2 * m - 1)))  # some packets delivered by hand
    env.ledger = env.ledger._replace(
        leftover_bits=tuple(0.0 if k in zeroed else left for k, left in enumerate(env.ledger.leftover_bits))
    )
    mask = env.action_mask()
    assert mask.dtype == bool and mask.shape == (env_cfg.n_actions,)
    src = env.deciding
    table = phy.action_table(F)
    earlier = [table[i] for i in env.pending]
    effects = []
    for act in table:
        column = earlier + [act] + [phy.OFF_AIR] * (m - src - 1)
        effects.append(phy.apply_slot(env.ledger, column, env.link, env.slot)[1][src])
    useful = [k >= 0 and group_mask != 0 for k, _, group_mask, _ in effects]
    if any(useful):
        assert mask.tolist() == useful
    else:
        assert mask.tolist() == [k < 0 for k, *_ in effects]  # resolved as OFF_AIR


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_slot_reward_matches_memo_free_reference(data):
    """Over random worlds and raw action indices, every slot's reward and the
    `prev` one-hot after it are, bit for bit, what `individual_reward` and
    `reference_slot` give: a source's packet is delivered now when the
    reference drains its leftover to 0.0, and the one-hot names the packet
    the reference put on the air, `PKT_NONE` for an off-air source."""
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    F, T = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 6))
    upper = data.draw(st.sampled_from([1.0, 0.7, 2.5]))
    env_cfg = EnvConfig(m=m, n=n, F=F, T=T, reward_upper_bound=upper)
    workload = WorkloadConfig(
        slice1_bits_min=1e3, slice1_bits_max=5e4, deadline_len_slots=data.draw(st.integers(1, T))
    )
    cfg = ChannelConfig()
    sc, link = WorldStream(RoadConfig(), env_cfg, cfg, workload, data.draw(st.integers(0, 999)), TAG_TRAIN)(0)
    env = SlicingEnv(env_cfg)
    env.reset(sc, link)
    table = phy.action_table(F)
    prev = slice(m * n * (1 + F), m * n * (1 + F) + m * len(phy.PACKET_CHOICES))
    ledger = env.ledger
    for t in range(T):
        column = data.draw(st.lists(st.integers(0, env_cfg.n_actions - 1), min_size=m, max_size=m))
        for index in column:
            res = env.step(index)
        ledger, effects = reference_slot(ledger, [table[i] for i in column], link.chan, cfg, t, env_cfg.slot_duration_s)
        reward = 0.0
        one_hot = np.zeros((m, len(phy.PACKET_CHOICES)))
        for src, (k, _, group_mask, rate) in enumerate(effects):
            delivered_now = k >= 0 and ledger.leftover_bits[k] == 0.0
            reward += individual_reward(delivered_now, group_mask, rate, env.rate_norm_bps, upper)
            one_hot[src, k - 2 * src + 1 if k >= 0 else phy.PKT_NONE] = 1.0
        assert res.reward.hex() == reward.hex()
        assert env.slot_rewards[-1].hex() == reward.hex()
        assert res.next_observation[prev].tobytes() == one_hot.ravel().tobytes()
        assert env.ledger == ledger


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_step_slot_matches_micro_steps(data):
    """Over random worlds and raw action columns, one `step_slot(column)` per
    slot plays the episode bit for bit as m `step` calls per slot do."""
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    F, T = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 6))
    env_cfg = EnvConfig(m=m, n=n, F=F, T=T, gamma=data.draw(st.sampled_from([1.0, 0.9])))
    workload = WorkloadConfig(
        slice1_bits_min=1e3, slice1_bits_max=5e4, deadline_len_slots=data.draw(st.integers(1, T))
    )
    world = WorldStream(RoadConfig(), env_cfg, ChannelConfig(), workload, data.draw(st.integers(0, 999)), TAG_TRAIN)(0)
    whole, micro = SlicingEnv(env_cfg), SlicingEnv(env_cfg)
    assert whole.reset(*world).tobytes() == micro.reset(*world).tobytes()
    table = phy.action_table(F)
    for _ in range(T):
        column = data.draw(st.lists(st.integers(0, env_cfg.n_actions - 1), min_size=m, max_size=m))
        got = whole.step_slot([table[i] for i in column])
        for index in column:
            want = micro.step(index)
        assert got.reward.hex() == want.reward.hex()
        assert got.next_observation.tobytes() == want.next_observation.tobytes()
        assert (got.discount, got.terminal) == (want.discount, want.terminal)
        assert whole.ledger == micro.ledger and whole.slot_rewards == micro.slot_rewards
    assert whole.terminal


def test_step_slot_contract_errors():
    env, sc, link = make_env([0.0, 300.0], [100.0, 400.0], T=2)
    silent = [phy.OFF_AIR] * 2
    with pytest.raises(ContractViolation):  # before reset
        env.step_slot(silent)
    env.reset(sc, link)
    env.step(SILENT)
    with pytest.raises(ContractViolation):  # mid-slot
        env.step_slot(silent)
    env.step(SILENT)
    before = (env.slot, env.ledger, list(env.slot_rewards), env.observation().tobytes())
    for wrong in ([], silent[:1], silent * 2):
        with pytest.raises(ValueError):
            env.step_slot(wrong)
    assert (env.slot, env.ledger, env.slot_rewards, env.observation().tobytes()) == before
    assert env.step_slot(silent).terminal
    with pytest.raises(ContractViolation):  # after the end
        env.step_slot(silent)


@pytest.mark.parametrize(
    "bad",
    [
        phy.SlotAction(3, 1400.0, 0, 30.0),  # no packet 3: would drain the next source's slice-1 packet
        phy.SlotAction(SLICE_THROUGHPUT, 1400.0, -1, 30.0),  # would play on the last frequency
        phy.SlotAction(SLICE_THROUGHPUT, 1400.0, 2, 30.0),  # frequency F
        phy.SlotAction(SLICE_THROUGHPUT, 250.0, 0, 30.0),  # not a coverage level
        phy.SlotAction(SLICE_THROUGHPUT, 1400.0, 0, 27.0),  # not a power level
    ],
)
def test_step_slot_rejects_a_choice_outside_the_action_table(bad):
    # on the default evaluation world, a choice that is not in
    # phy.action_table(F) is refused whichever source makes it, and the
    # episode is left as it was
    cfg = RunConfig()
    world = WorldStream(cfg.road, cfg.env, cfg.channel, cfg.workload, 0, TAG_EVAL)(0)
    env = SlicingEnv(cfg.env)
    env.reset(*world)
    env.step_slot([phy.SlotAction(SLICE_SAFETY, 400.0, 1, 30.0)] * cfg.env.m)
    before = (env.slot, env.ledger, list(env.slot_rewards), env.prev_choice.copy(), env.observation().tobytes())
    for src in range(cfg.env.m):
        column = [phy.OFF_AIR] * cfg.env.m
        column[src] = bad
        with pytest.raises(ValueError, match="action table"):
            env.step_slot(column)
        assert (env.slot, env.ledger, env.slot_rewards) == before[:3]
        assert np.array_equal(env.prev_choice, before[3]) and env.observation().tobytes() == before[4]

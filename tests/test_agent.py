import numpy as np
import pytest
from scipy import stats

from iovslice.channel import ChannelConfig
from iovslice.dqn import (
    DuelingQNetwork,
    TrainConfig,
    epsilon,
    greedy_episode,
    replay_beta,
    td_targets,
    train,
)
from iovslice.dqn import mlp
from iovslice.env import EnvConfig, SlicingEnv, episode_return
from iovslice.scenario import RoadConfig
from iovslice.worlds import TAG_TRAIN, WorkloadConfig, WorldStream

DEFAULTS = TrainConfig()


def tiny_world(m=2, n=2, F=2, T=6, seed=0, gamma=1.0):
    env_cfg = EnvConfig(m=m, n=n, F=F, T=T, gamma=gamma)
    channel_cfg = ChannelConfig()
    workload = WorkloadConfig(deadline_len_slots=min(4, T))
    stream = WorldStream(RoadConfig(), env_cfg, channel_cfg, workload, seed, TAG_TRAIN)
    env = SlicingEnv(env_cfg)
    return stream, env


def test_epsilon_schedule_endpoints():
    assert epsilon(0, DEFAULTS) == 1.0
    assert epsilon(2400, DEFAULTS) == 0.02
    assert epsilon(2999, DEFAULTS) == 0.02


def test_epsilon_monotone_and_bounded():
    values = [epsilon(e, DEFAULTS) for e in range(0, 3000, 7)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.02 <= v <= 1.0 for v in values)


def test_epsilon_rejects_negative():
    with pytest.raises(ValueError):
        epsilon(-1, DEFAULTS)


def test_replay_beta_anneal():
    assert replay_beta(0, DEFAULTS) == pytest.approx(0.4)
    assert replay_beta(2999, DEFAULTS) == pytest.approx(1.0)
    mid = replay_beta(1500, DEFAULTS)
    assert 0.4 < mid < 1.0


def test_td_targets():
    net = DuelingQNetwork(3, (4,), 2, np.random.default_rng(0))
    obs = np.random.default_rng(1).normal(size=(3, 3))
    q_max = net.forward(obs).max(axis=1)
    rewards = np.array([1.0, 2.0, 1.0])
    got = td_targets(net, rewards, obs, np.array([0.0, 1.0, 1.0]))
    assert got[0] == 1.0  # terminal keeps only the reward
    assert got[1] == pytest.approx(2.0 + q_max[1])
    zero_discount = td_targets(net, rewards, obs, np.zeros(3))
    assert np.allclose(zero_discount, rewards)


def test_td_target_hand_value():
    # discount 1, max_a Q = 0.5, r = 1 -> 1.5
    net = DuelingQNetwork(2, (2,), 2, rng=None)
    net.params[-3][...] = 0.5  # value-head bias: Q(s, a) = 0.5 everywhere
    got = td_targets(net, np.array([1.0]), np.zeros((1, 2)), np.array([1.0]))
    assert got[0] == pytest.approx(1.5)


def test_td_targets_discount_once_per_slot():
    """At gamma 0.5 a micro-step inside a slot bootstraps undiscounted, a
    slot's last micro-step by 0.5 and the episode's last not at all, so the
    step rewards folded back through the discounts give `episode_return`."""
    stream, env = tiny_world(m=3, T=4, gamma=0.5)
    env.reset(*stream(0))
    steps = [env.step(a) for a in np.random.default_rng(4).integers(env.cfg.n_actions, size=3 * 4)]
    assert [s.discount for s in steps] == [1.0, 1.0, 0.5] * 3 + [1.0, 1.0, 0.0]
    folded = 0.0
    for s in reversed(steps):
        folded = s.reward + s.discount * folded
    assert folded == pytest.approx(episode_return(env.slot_rewards, 0.5))
    net = DuelingQNetwork(env.cfg.obs_dim, (2,), env.cfg.n_actions, rng=None)
    net.params[-3][...] = 0.5  # value-head bias: Q(s, a) = 0.5 everywhere
    rewards = np.array([s.reward for s in steps])
    got = td_targets(net, rewards, np.array([s.next_observation for s in steps]), np.array([s.discount for s in steps]))
    assert got.tolist() == (rewards + np.array([0.5, 0.5, 0.25] * 3 + [0.5, 0.5, 0.0])).tolist()


def test_training_is_deterministic():
    cfg = TrainConfig(episodes=4, warmup=16, batch_size=8, seed=99)

    def run():
        stream, env = tiny_world()
        net, log = train(stream, env, cfg)
        return net, log

    net1, log1 = run()
    net2, log2 = run()
    assert log1 == log2  # bitwise: dataclass equality on floats
    for a, b in zip(net1.params, net2.params):
        assert np.array_equal(a, b)


def test_forced_exploration_is_uniform():
    cfg = TrainConfig(episodes=12, eps_start=1.0, eps_end=1.0, warmup=DEFAULTS.replay_capacity, seed=5)
    stream, env = tiny_world()
    actions = []

    real_step = env.step

    def spy(a):
        actions.append(a)
        return real_step(a)

    env.step = spy
    train(stream, env, cfg)
    counts = np.bincount(actions, minlength=env.cfg.n_actions)
    assert counts.sum() == 12 * env.cfg.m * env.cfg.T
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_updates_start_once_a_batch_is_stored(monkeypatch):
    """With a warmup below the batch size, the first update comes at the
    micro-step that stores the batch's worth of transitions: one Adam step
    per micro-step from the batch size-th on."""
    steps = []
    real_step = mlp.Adam.step

    def counting_step(opt, params, grads):
        steps.append(opt.t)
        real_step(opt, params, grads)

    monkeypatch.setattr(mlp.Adam, "step", counting_step)
    cfg = TrainConfig(episodes=2, warmup=4, batch_size=8, seed=3)
    stream, env = tiny_world()
    _, log = train(stream, env, cfg)
    micro_steps = cfg.episodes * env.cfg.m * env.cfg.T
    assert len(steps) == micro_steps - 8 + 1
    assert all(row.loss_mean is not None for row in log)


def test_warmup_gates_updates():
    cfg = TrainConfig(episodes=2, warmup=DEFAULTS.replay_capacity, seed=1)
    stream, env = tiny_world()
    net, log = train(stream, env, cfg)
    assert all(row.loss_mean is None for row in log)


def test_log_rows_shape():
    cfg = TrainConfig(episodes=3, warmup=16, batch_size=8, seed=2)
    stream, env = tiny_world()
    _, log = train(stream, env, cfg)
    assert [row.episode for row in log] == [1, 2, 3]
    assert all(row.moving_avg_200 is None for row in log)  # fewer than 200 episodes
    assert all(0.02 <= row.epsilon <= 1.0 for row in log)


def test_greedy_episode_zero_net_ties_to_action_zero():
    stream, env = tiny_world()
    net = DuelingQNetwork(env.cfg.obs_dim, (4,), env.cfg.n_actions, rng=None)
    actions = []
    real_step = env.step

    def spy(a):
        actions.append(a)
        return real_step(a)

    env.step = spy
    for ep in range(2):
        greedy_episode(net, env, *stream(ep))
    assert actions == [0] * (2 * env.cfg.m * env.cfg.T)  # argmax of all-zero Q, full episodes


def test_greedy_episode_packet_counts_bounded():
    stream, env = tiny_world()
    net = DuelingQNetwork(env.cfg.obs_dim, (8, 8), env.cfg.n_actions, np.random.default_rng(3))
    for ep in range(5):
        st = greedy_episode(net, env, *stream(ep))
        assert all(0 <= k <= env.cfg.m for k in st.packets)
        assert all(r <= env.cfg.m * env.cfg.n for r in st.receptions)
        if st.prr is not None:
            assert 0.0 <= st.prr <= 1.0

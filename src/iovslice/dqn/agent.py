"""Training loop and greedy rollout for the scheduling policy.

Training runs one gradient update per environment micro-step once the replay
memory is warm, copies the online network into the target every fixed number
of updates, and logs one row per episode. Everything is driven by a single
seeded generator, so runs are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Callable

import numpy as np

from ..channel import ChannelState
from ..env import SlicingEnv, episode_return
from ..phy import ReceptionStats
from ..scenario import Scenario
from .mlp import Adam, DuelingQNetwork
from .replay import PrioritizedReplay


class TrainingDiverged(RuntimeError):
    """Loss or parameters went non-finite; training cannot continue."""


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 3000
    lr: float = 1e-5
    batch_size: int = 32
    target_copy_period: int = 500  # gradient updates between target refreshes
    eps_start: float = 1.0
    eps_end: float = 0.02
    eps_anneal_frac: float = 0.8
    replay_capacity: int = 100_000
    alpha: float = 0.6
    beta_start: float = 0.4
    beta_end: float = 1.0
    priority_eps: float = 1e-3
    warmup: int = 1000  # stored experiences before updates begin
    updates_per_step: int = 1  # gradient updates per environment micro-step
    hidden: tuple[int, ...] = (256, 128, 120)
    huber_delta: float = 1.0
    double_q: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0 < self.eps_end <= self.eps_start <= 1:
            raise ValueError("need 0 < eps_end <= eps_start <= 1")
        if self.episodes < 1 or self.batch_size < 1:
            raise ValueError("episodes and batch size must be positive")
        if self.target_copy_period < 1:
            raise ValueError("target copy period must be at least 1 update")


def epsilon(episode_idx: int, cfg: TrainConfig) -> float:
    """Linear anneal from eps_start to eps_end over the first anneal fraction
    of training, then flat."""
    if episode_idx < 0:
        raise ValueError("episode index must be nonnegative")
    anneal_end = math.ceil(cfg.eps_anneal_frac * cfg.episodes)
    if anneal_end <= 0 or episode_idx >= anneal_end:
        return cfg.eps_end
    return cfg.eps_start + (cfg.eps_end - cfg.eps_start) * episode_idx / anneal_end


def replay_beta(episode_idx: int, cfg: TrainConfig) -> float:
    """Importance-weight exponent annealed linearly to 1 by the final episode."""
    if cfg.episodes <= 1:
        return cfg.beta_end
    frac = min(1.0, episode_idx / (cfg.episodes - 1))
    return cfg.beta_start + (cfg.beta_end - cfg.beta_start) * frac


def td_targets(
    target_net: DuelingQNetwork,
    rewards: np.ndarray,
    next_obs: np.ndarray,
    terminal: np.ndarray,
    gamma: float,
    online_net: DuelingQNetwork | None = None,
) -> np.ndarray:
    """r + gamma * max_a Q_target(s', a), truncated at terminals. If online_net
    is given, the action is argmaxed online and evaluated on the target."""
    q_next = target_net.forward(next_obs)
    if online_net is not None:
        picks = np.argmax(online_net.forward(next_obs), axis=1)
        bootstrap = q_next[np.arange(len(picks)), picks]
    else:
        bootstrap = q_next.max(axis=1)
    return rewards + gamma * bootstrap * (~terminal)


@dataclass(frozen=True)
class TrainLogRow:
    episode: int  # 1-based
    episode_return: float
    moving_avg_200: float | None  # defined once 200 episodes exist
    epsilon: float
    loss_mean: float | None  # None until updates start


WorldFn = Callable[[int], tuple[Scenario, ChannelState]]


def train(
    world_fn: WorldFn,
    env: SlicingEnv,
    cfg: TrainConfig,
    progress: Callable[[TrainLogRow], None] | None = None,
) -> tuple[DuelingQNetwork, list[TrainLogRow]]:
    """Run the full training schedule and return the online net plus the log."""
    rng = np.random.default_rng(cfg.seed)
    n_act = env.cfg.n_actions
    net = DuelingQNetwork(env.cfg.obs_dim, cfg.hidden, n_act, rng)
    target = net.clone()
    opt = Adam(net.params, cfg.lr)
    memory = PrioritizedReplay(
        cfg.replay_capacity, env.cfg.obs_dim, alpha=cfg.alpha, priority_eps=cfg.priority_eps
    )
    gamma = env.cfg.gamma
    updates = 0
    returns: list[float] = []
    log: list[TrainLogRow] = []

    for ep in range(cfg.episodes):
        scenario, chan = world_fn(ep)
        obs = env.reset(scenario, chan)
        eps = epsilon(ep, cfg)
        beta = replay_beta(ep, cfg)
        losses: list[float] = []
        done = False
        while not done:
            if rng.random() < eps:
                action = int(rng.integers(n_act))
            else:
                action = int(np.argmax(net.forward(obs)))
            result = env.step(action)
            memory.add(obs, action, result.reward, result.next_observation, result.terminal)
            obs = result.next_observation
            done = result.terminal

            if len(memory) >= cfg.warmup:
                for _ in range(cfg.updates_per_step):
                    batch = memory.sample(cfg.batch_size, beta, rng)
                    if batch is None:
                        break
                    targets = td_targets(
                        target,
                        batch.rewards,
                        batch.next_obs,
                        batch.terminal,
                        gamma,
                        online_net=net if cfg.double_q else None,
                    )
                    loss, grads, td_abs = net.loss_and_grads(
                        batch.obs, batch.actions, targets, batch.weights, cfg.huber_delta
                    )
                    if not np.isfinite(loss):
                        raise TrainingDiverged(
                            f"non-finite loss at episode {ep + 1} after {updates} updates"
                        )
                    opt.step(net.params, grads)
                    memory.update_priorities(batch.indices, td_abs)
                    updates += 1
                    if updates % cfg.target_copy_period == 0:
                        target.copy_from(net)
                    losses.append(loss)

        ret = episode_return(env.slot_rewards, gamma)
        returns.append(ret)
        row = TrainLogRow(
            episode=ep + 1,
            episode_return=ret,
            moving_avg_200=(float(np.mean(returns[-200:])) if len(returns) >= 200 else None),
            epsilon=eps,
            loss_mean=(float(np.mean(losses)) if losses else None),
        )
        log.append(row)
        if progress is not None:
            progress(row)
    return net, log


def greedy_episode(
    net: DuelingQNetwork, env: SlicingEnv, scenario: Scenario, chan: ChannelState
) -> ReceptionStats:
    """One greedy rollout (argmax Q, ties to the lowest action index)."""
    obs = env.reset(scenario, chan)
    done = False
    while not done:
        step = env.step(int(np.argmax(net.forward(obs))))
        obs = step.next_observation
        done = step.terminal
    return env.stats()

"""Prioritized experience replay over a sum tree.

Leaves hold priority^alpha so proportional sampling is a single O(log N)
prefix descent; a fresh transition gets `max_priority`, the running max of
the raw priorities. A transition stores the `StepResult.discount` of its
step. Eviction is strictly FIFO through a ring pointer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SumTree:
    """Fixed-capacity binary tree where every node stores the sum of its leaves.

    `nodes` is a float64 array in heap layout (children of i at 2i+1, 2i+2;
    leaf j at capacity - 1 + j). The methods read and write it through a
    memoryview held beside it: indexing a memoryview gives a plain Python
    float where indexing the array boxes a numpy scalar, and the per-node
    walks are pure Python. Every add, subtract and compare is the same IEEE
    double operation either way, so the sums match the array's bit for bit.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.nodes = np.zeros(2 * capacity - 1, dtype=np.float64)
        self._view = memoryview(self.nodes)

    def set(self, leaf: int, value: float) -> None:
        nodes = self._view
        idx = leaf + self.capacity - 1
        change = value - nodes[idx]
        nodes[idx] = value
        while idx > 0:
            idx = (idx - 1) // 2
            nodes[idx] += change

    def get(self, leaf: int) -> float:
        return self._view[leaf + self.capacity - 1]

    def total(self) -> float:
        return self._view[0]

    def find(self, prefix: float) -> int:
        """Leaf index whose cumulative range contains the prefix sum."""
        nodes = self._view
        inner = self.capacity - 1
        idx = 0
        while idx < inner:
            left = 2 * idx + 1
            if prefix < nodes[left]:
                idx = left
            else:
                prefix -= nodes[left]
                idx = left + 1
        return idx - inner


@dataclass
class ReplayBatch:
    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_obs: np.ndarray
    discount: np.ndarray
    indices: np.ndarray
    weights: np.ndarray


class PrioritizedReplay:
    """Ring buffer of transitions sampled proportionally to priority^alpha."""

    def __init__(
        self,
        capacity: int,
        obs_dim: int,
        alpha: float,
        priority_eps: float,
    ):
        self.capacity = capacity
        self.alpha = alpha
        self.priority_eps = priority_eps
        self.tree = SumTree(capacity)
        self.obs = np.zeros((capacity, obs_dim), dtype=np.float64)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=np.float64)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=np.float64)
        self.discount = np.zeros(capacity, dtype=np.float64)
        self.size = 0
        self.write = 0
        self.max_priority = 1.0  # fresh experiences get the running max

    def __len__(self) -> int:
        return self.size

    def add(self, obs, action: int, reward: float, next_obs, discount: float) -> None:
        i = self.write
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.discount[i] = discount
        self.tree.set(i, self.max_priority**self.alpha)
        self.write = (self.write + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, beta: float, rng: np.random.Generator) -> ReplayBatch:
        """Proportional draw with importance weights; ValueError when asked
        for more transitions than the buffer holds."""
        if self.size < batch:
            raise ValueError(f"cannot sample {batch} transitions from a buffer holding {self.size}")
        tree = self.tree
        total = tree.total()
        last = self.size - 1  # rounding in the inner sums can steer a draw into the zero-mass tail
        picks = [min(tree.find(u * total), last) for u in rng.random(batch).tolist()]
        indices = np.array(picks, dtype=np.int64)
        probs = np.array([tree.get(i) for i in picks]) / total
        weights = (self.size * probs) ** (-beta)
        weights /= weights.max()
        return ReplayBatch(
            obs=self.obs[indices],
            actions=self.actions[indices],
            rewards=self.rewards[indices],
            next_obs=self.next_obs[indices],
            discount=self.discount[indices],
            indices=indices,
            weights=weights,
        )

    def update_priorities(self, indices: np.ndarray, td_abs: np.ndarray) -> None:
        """Priority tracks |td error| with a floor so nothing starves."""
        for i, err in zip(indices.tolist(), td_abs.tolist()):
            raw = abs(err) + self.priority_eps
            self.tree.set(i, raw**self.alpha)
            if raw > self.max_priority:
                self.max_priority = raw

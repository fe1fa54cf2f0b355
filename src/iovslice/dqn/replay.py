"""Prioritized experience replay over a sum tree.

Leaves hold priority^alpha so proportional sampling is a single O(log N)
prefix descent; a fresh transition gets `max_priority`, the running max of
the raw priorities. A transition stores the `StepResult.discount` of its
step. Eviction is strictly FIFO through a ring pointer. The tree's batched
walks run in `_kernels.c` where it can be built (`kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels


class SumTree:
    """Fixed-capacity binary tree where every node stores the sum of its leaves.

    `nodes` is a float64 array in heap layout (children of i at 2i+1, 2i+2;
    leaf j at capacity - 1 + j). `set_many`, `find` and `find_many` walk it
    in `_kernels.c`; `set` of one leaf, and all of them where
    `kernels.library` builds nothing, walk it in Python through a memoryview
    held beside it, whose indexing gives plain Python floats.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.nodes = np.zeros(2 * capacity - 1, dtype=np.float64)
        self._view = memoryview(self.nodes)
        self._address = self.nodes.ctypes.data

    def set(self, leaf: int, value: float) -> None:
        if not 0 <= leaf < self.capacity:
            raise IndexError(f"leaf {leaf} outside a tree of capacity {self.capacity}")
        self._walk_set([leaf], [value])  # one path; a ctypes call would save about 1 us

    def set_many(self, leaves: list[int], values: list[float]) -> None:
        """`set(leaf, value)` for each pair, in order; IndexError, with
        nothing written, when a leaf lies outside the tree."""
        if len(leaves) != len(values):
            raise ValueError(f"{len(leaves)} leaves but {len(values)} values")
        lib = kernels.library()
        if lib is not None:
            try:
                idx = np.array(leaves, dtype=np.int64)
            except OverflowError:  # past int64, so outside the tree: refused below as without kernels
                lib = None
        if lib is not None:
            val = np.array(values, dtype=np.float64)
            bad = lib.tree_set_many(self._address, self.capacity, idx.ctypes.data, val.ctypes.data, len(idx))
        else:
            bad = next((k for k, leaf in enumerate(leaves) if not 0 <= leaf < self.capacity), -1)
            if bad < 0:
                self._walk_set(leaves, values)
        if bad >= 0:
            raise IndexError(f"leaf {leaves[bad]} outside a tree of capacity {self.capacity}")

    def _walk_set(self, leaves: list[int], values: list[float]) -> None:
        nodes = self._view
        for leaf, value in zip(leaves, values):
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
        leaves, _ = self.find_many(np.array([prefix], dtype=np.float64), 1.0, self.capacity - 1)  # prefix * 1.0 is prefix
        return int(leaves[0])

    def find_many(self, u: np.ndarray, total: float, last: int) -> tuple[np.ndarray, np.ndarray]:
        """For each draw u[k]: the leaf `min(find(u[k] * total), last)` and
        its value, as an int64 and a float64 array."""
        if not 0 <= last < self.capacity:
            raise ValueError(f"last leaf {last} outside a tree of capacity {self.capacity}")
        u = np.ascontiguousarray(u, dtype=np.float64)
        lib = kernels.library()
        if lib is None:
            leaves = [min(self._walk_find(x * total), last) for x in u.tolist()]
            return np.array(leaves, dtype=np.int64), np.array([self.get(i) for i in leaves], dtype=np.float64)
        leaves = np.empty(len(u), dtype=np.int64)
        values = np.empty(len(u), dtype=np.float64)
        lib.tree_find_many(
            self._address, self.capacity, u.ctypes.data, total, len(u), last, leaves.ctypes.data, values.ctypes.data
        )
        return leaves, values

    def _walk_find(self, prefix: float) -> int:
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
        total = self.tree.total()
        last = self.size - 1  # rounding in the inner sums can steer a draw into the zero-mass tail
        indices, leaf_values = self.tree.find_many(rng.random(batch), total, last)
        probs = leaf_values / total
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
        """Priority tracks |td error| with a floor so nothing starves. Every
        leaf is checked and every value computed before anything is written,
        so a ValueError, an OverflowError (a priority^alpha past the largest
        double) or an IndexError leaves the tree and `max_priority` as they
        were."""
        values = []
        top = self.max_priority
        for err in td_abs.tolist():
            raw = abs(err) + self.priority_eps
            values.append(raw**self.alpha)
            if raw > top:
                top = raw
        self.tree.set_many(indices.tolist(), values)
        self.max_priority = top

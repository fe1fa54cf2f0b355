import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from iovslice.dqn.replay import PrioritizedReplay, ReplayBatch, SumTree


def filled_buffer(n, obs_dim=3, capacity=64, **kw):
    buf = PrioritizedReplay(capacity, obs_dim, **kw)
    for i in range(n):
        buf.add(np.full(obs_dim, i, dtype=float), i % 5, float(i), np.zeros(obs_dim), False)
    return buf


def test_sum_tree_totals_and_find():
    tree = SumTree(8)
    values = [3.0, 1.0, 0.5, 2.0, 0.0, 4.0, 1.5, 0.25]
    for i, v in enumerate(values):
        tree.set(i, v)
    assert tree.total() == pytest.approx(sum(values))
    # prefix search lands on the leaf owning that cumulative range
    assert tree.find(0.0) == 0
    assert tree.find(2.999) == 0
    assert tree.find(3.0) == 1
    assert tree.find(sum(values) - 1e-9) == 7
    tree.set(0, 10.0)
    assert tree.total() == pytest.approx(sum(values) + 7.0)


def test_fifo_eviction():
    buf = filled_buffer(10, capacity=8)
    assert len(buf) == 8
    # oldest two rows (0, 1) were overwritten by 8 and 9
    stored = {float(buf.obs[i][0]) for i in range(8)}
    assert stored == {8.0, 9.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}


def test_underfull_returns_not_ready():
    buf = filled_buffer(4)
    assert buf.sample(8, beta=0.4, rng=np.random.default_rng(0)) is None


def collect_draws(buf, total, batch, rng, beta=1.0):
    out = []
    while len(out) < total:
        out.extend(buf.sample(batch, beta=beta, rng=rng).indices)
    return np.array(out[:total])


def test_equal_priorities_sample_uniformly():
    buf = filled_buffer(64, capacity=64)
    rng = np.random.default_rng(123)
    draws = collect_draws(buf, 100_000, 50, rng)
    counts = np.bincount(draws, minlength=64)
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_dominant_priority_concentrates():
    buf = filled_buffer(16, capacity=16)
    buf.update_priorities(np.array([5]), np.array([1e6]))
    rng = np.random.default_rng(7)
    draws = collect_draws(buf, 20_000, 16, rng)
    assert np.mean(draws == 5) > 0.99


def test_beta_zero_unit_weights():
    buf = filled_buffer(32)
    buf.update_priorities(np.arange(10), np.linspace(0.0, 5.0, 10))
    batch = buf.sample(16, beta=0.0, rng=np.random.default_rng(1))
    assert np.all(batch.weights == 1.0)


def test_priority_floor_and_monotonicity():
    buf = filled_buffer(8, priority_eps=1e-3)
    buf.update_priorities(np.array([0, 1, 2]), np.array([0.0, 0.5, 2.0]))
    assert buf.priorities[0] == pytest.approx(1e-3)  # zero error never starves
    assert buf.priorities[0] < buf.priorities[1] < buf.priorities[2]
    assert np.all(buf.priorities[: len(buf)] > 0)


def test_update_leaves_other_priorities_alone():
    buf = filled_buffer(8)
    before = buf.priorities.copy()
    buf.update_priorities(np.array([3]), np.array([9.0]))
    untouched = [i for i in range(8) if i != 3]
    assert np.array_equal(buf.priorities[untouched], before[untouched])


def test_sampling_probabilities_follow_alpha():
    buf = filled_buffer(4, capacity=4, alpha=0.6)
    buf.update_priorities(np.arange(4), np.array([0.1, 0.4, 1.2, 3.0]))
    raw = buf.priorities[:4]
    expected = raw**0.6 / np.sum(raw**0.6)
    draws = collect_draws(buf, 100_000, 4, np.random.default_rng(5), beta=0.5)
    freqs = np.bincount(draws, minlength=4) / len(draws)
    assert np.allclose(freqs, expected, atol=0.01)


def test_new_experience_gets_max_priority():
    buf = filled_buffer(8)
    buf.update_priorities(np.array([2]), np.array([7.0]))
    buf.add(np.zeros(3), 0, 0.0, np.zeros(3), False)
    newest = (buf.write - 1) % buf.capacity
    assert buf.priorities[newest] == pytest.approx(7.0 + buf.priority_eps)


def test_weights_correct_for_bias():
    # weights follow (N * P)^-beta normalized by the batch max
    buf = filled_buffer(16, capacity=16)
    buf.update_priorities(np.arange(16), np.linspace(0.1, 3.0, 16))
    rng = np.random.default_rng(2)
    batch = buf.sample(16, beta=0.7, rng=rng)
    probs = np.array([buf.tree.get(int(i)) for i in batch.indices]) / buf.tree.total()
    manual = (16 * probs) ** -0.7
    manual /= manual.max()
    assert np.allclose(batch.weights, manual)
    assert batch.weights.max() == 1.0


# -- the sum tree against exact prefix sums, at any capacity ------------------


def leaves_in_prefix_order(capacity):
    """Leaf indices in the order their ranges follow each other: the heap's
    leaves from left to right. Unless capacity is a power of two the leaves sit
    at two depths, and this is not index order (capacity 3 gives 1, 2, 0)."""
    order, stack, node = [], [], 0
    while stack or node < 2 * capacity - 1:
        if node < 2 * capacity - 1:
            stack.append(node)
            node = 2 * node + 1
        else:
            node = stack.pop()
            if node >= capacity - 1:
                order.append(node - (capacity - 1))
            node = 2 * node + 2
    return order


@settings(max_examples=120, deadline=None)
@given(capacity=st.sampled_from([1, 2, 3, 5, 8, 100_000]), data=st.data())
def test_sum_tree_matches_exact_prefix_sums(capacity, data):
    # Integer masses keep every sum exact, so nodes and prefixes compare with ==.
    tree = SumTree(capacity)
    mass = np.zeros(capacity)
    last = data.draw(st.integers(0, capacity - 1))  # leaves after it: a zero-mass tail
    pool = data.draw(st.lists(st.integers(0, last), min_size=1, max_size=3))
    leaf = st.sampled_from(pool) | st.integers(0, last)  # so that leaves get rewritten
    for j, value in data.draw(st.lists(st.tuples(leaf, st.integers(0, 1000)), min_size=1, max_size=40)):
        tree.set(j, float(value))
        mass[j] = value
    inner = capacity - 1
    assert tree.nodes[inner:].tolist() == mass.tolist()
    assert tree.nodes[:inner].tolist() == (tree.nodes[1 : 2 * inner : 2] + tree.nodes[2 : 2 * inner + 1 : 2]).tolist()
    assert tree.total() == mass.sum()
    start = 0.0
    for j in leaves_in_prefix_order(capacity):
        if mass[j] > 0:  # its range is [start, start + mass); check both ends and the middle
            for prefix in (start, start + mass[j] / 2, start + mass[j] - 0.5):
                assert tree.find(prefix) == j
        start += mass[j]


# -- byte identity with the numpy-scalar reference ----------------------------


class ScalarSumTree(SumTree):
    """The sum tree with every node read as a boxed numpy scalar, as it was
    written before node access went through a memoryview. Kept as the
    reference the tree must match bit for bit."""

    def set(self, leaf, value):
        idx = leaf + self.capacity - 1
        change = value - self.nodes[idx]
        self.nodes[idx] = value
        while idx > 0:
            idx = (idx - 1) // 2
            self.nodes[idx] += change

    def get(self, leaf):
        return float(self.nodes[leaf + self.capacity - 1])

    def total(self):
        return float(self.nodes[0])

    def find(self, prefix):
        idx = 0
        while idx < self.capacity - 1:
            left = 2 * idx + 1
            if prefix < self.nodes[left]:
                idx = left
            else:
                prefix -= self.nodes[left]
                idx = left + 1
        return idx - (self.capacity - 1)


class ScalarReplay(PrioritizedReplay):
    """sample and update_priorities as loops over numpy scalars, over the
    reference tree."""

    def __init__(self, capacity, obs_dim, **kw):
        super().__init__(capacity, obs_dim, **kw)
        self.tree = ScalarSumTree(capacity)

    def sample(self, batch, beta, rng):
        if self.size < batch:
            return None
        total = self.tree.total()
        indices = np.empty(batch, dtype=np.int64)
        for k, u in enumerate(rng.random(batch)):
            leaf = self.tree.find(u * total)
            indices[k] = min(leaf, self.size - 1)
        probs = np.array([self.tree.get(int(i)) for i in indices]) / total
        weights = (self.size * probs) ** (-beta)
        weights /= weights.max()
        return ReplayBatch(
            obs=self.obs[indices],
            actions=self.actions[indices],
            rewards=self.rewards[indices],
            next_obs=self.next_obs[indices],
            terminal=self.terminal[indices],
            indices=indices,
            weights=weights,
        )

    def update_priorities(self, indices, td_abs):
        for i, err in zip(indices, td_abs):
            raw = float(abs(err)) + self.priority_eps
            self.priorities[i] = raw
            self.tree.set(int(i), raw**self.alpha)
            if raw > self.max_priority:
                self.max_priority = raw


def assert_same_state(fast, ref):
    assert fast.tree.nodes.tobytes() == ref.tree.nodes.tobytes()
    assert fast.priorities.tobytes() == ref.priorities.tobytes()
    assert fast.max_priority.hex() == ref.max_priority.hex()
    assert (fast.size, fast.write) == (ref.size, ref.write)


# td errors over 33 decades: rewriting a huge priority with a much smaller
# one leaves rounding drift in the inner sums, which can steer a draw into the
# zero-mass tail of an underfull buffer
_TD = st.one_of(
    st.sampled_from([0.0, -0.1, 2.5]),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 30.0)).map(lambda se: se[0] * 10.0 ** se[1]),
)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.sampled_from([1, 3, 5, 8, 100]),
    alpha=st.sampled_from([0.6, 1.0, 0.35]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_replay_matches_numpy_scalar_reference(capacity, alpha, seed, data):
    fast = PrioritizedReplay(capacity, 1, alpha=alpha)
    ref = ScalarReplay(capacity, 1, alpha=alpha)
    rng_fast, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    last = None  # the indices of the latest batch, which an update may reuse

    def sample(batch):
        nonlocal last
        beta = data.draw(st.sampled_from([0.0, 0.4, 0.73, 1.0]), label="beta")
        with np.errstate(divide="ignore", invalid="ignore"):  # a drifted total may read 0
            got = fast.sample(batch, beta, rng_fast)
            want = ref.sample(batch, beta, rng_ref)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.indices.dtype == want.indices.dtype
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            last = want.indices

    def update(idx, td):
        fast.update_priorities(idx, td)
        ref.update_priorities(idx, td)

    ops = st.sampled_from(["add", "sample", "update", "update-batch", "drift"])
    for op in data.draw(st.lists(ops, min_size=3, max_size=25), label="ops"):
        if op == "add":
            for _ in range(data.draw(st.integers(1, capacity + 1), label="adds")):  # may evict
                for buf in (fast, ref):
                    buf.add(np.zeros(1), 0, 0.0, np.zeros(1), False)
        elif op == "sample":
            sample(data.draw(st.integers(1, 8), label="batch"))
        elif len(fast) == 0:
            pass
        elif op == "drift":
            # Lift the last stored leaf far above the rest, then lower it to
            # between a half and one ulp of that height: the inner sums round
            # up to a full ulp, so a draw after it can land in the zero-mass
            # tail of an underfull buffer.
            i = np.array([len(fast) - 1])
            top = 2.0 ** data.draw(st.integers(80, 120), label="top")
            drop = 53.0 + data.draw(st.integers(1, 99), label="drop") / 100.0
            for leaf in (top, top * 2.0**-drop):
                update(i, np.array([leaf ** (1.0 / alpha)]))
            sample(min(len(fast), 8))
        else:
            if op == "update-batch" and last is not None:
                idx = last
            else:
                idx = np.array(data.draw(st.lists(st.integers(0, len(fast) - 1), min_size=1, max_size=8)))
            update(idx, np.array(data.draw(st.lists(_TD, min_size=len(idx), max_size=len(idx)), label="td")))
        assert_same_state(fast, ref)
        # prefixes on the root's split, at both ends and inside the range
        total = ref.tree.total()
        probes = [0.0, total, *(u * total for u in data.draw(st.lists(st.floats(0.0, 1.0), max_size=3)))]
        if capacity > 1:
            probes.append(float(ref.tree.nodes[1]))
        for prefix in probes:
            assert fast.tree.find(prefix) == ref.tree.find(prefix)

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from iovslice.dqn.replay import PrioritizedReplay, ReplayBatch, SumTree

from conftest import forced_fallback


def filled_buffer(n, obs_dim=3, capacity=64, alpha=0.6, priority_eps=1e-3):
    buf = PrioritizedReplay(capacity, obs_dim, alpha, priority_eps)
    for i in range(n):
        buf.add(np.full(obs_dim, i, dtype=float), i % 5, float(i), np.zeros(obs_dim), 1.0)
    return buf


def leaf_priorities(buf):
    """priority^alpha of every slot, read off the tree's leaves."""
    return np.array([buf.tree.get(i) for i in range(buf.capacity)])


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


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
def test_out_of_range_leaf_is_refused_with_nothing_written(fallback):
    tree = SumTree(4)
    tree.set(1, 2.0)
    before = tree.nodes.tobytes()
    buf = filled_buffer(5, capacity=8, alpha=40.0)
    buf_before = (buf.tree.nodes.tobytes(), buf.max_priority.hex())
    with forced_fallback() if fallback else contextlib.nullcontext():
        for leaves in ([-1], [4], [0, 2, -3], [2**64 + 1], [-(2**64)], [0, 2**63]):
            with pytest.raises(IndexError, match=f"leaf {leaves[-1]} outside a tree of capacity 4"):
                tree.set_many(leaves, [1.0] * len(leaves))
        for leaf in (-1, 4, 2**64 + 1):  # 2**64 + 1 is leaf 1 modulo 2**64
            with pytest.raises(IndexError, match=f"leaf {leaf} outside a tree of capacity 4"):
                tree.set(leaf, 1.0)
        # each refusal comes after a raw priority (50.001) above max_priority
        with pytest.raises(IndexError, match="leaf 99 outside a tree of capacity 8"):
            buf.update_priorities(np.array([1, 99]), np.array([50.0, 1.0]))
        with pytest.raises(OverflowError):  # (1e10 + 1e-3) ** 40 is past the largest double
            buf.update_priorities(np.array([1, 2]), np.array([50.0, 1e10]))
        with pytest.raises(ValueError, match="1 leaves but 2 values"):
            buf.update_priorities(np.array([1]), np.array([50.0, 1.0]))
    assert tree.nodes.tobytes() == before
    assert (buf.tree.nodes.tobytes(), buf.max_priority.hex()) == buf_before


def test_fifo_eviction():
    buf = filled_buffer(10, capacity=8)
    assert len(buf) == 8
    # oldest two rows (0, 1) were overwritten by 8 and 9
    stored = {float(buf.obs[i][0]) for i in range(8)}
    assert stored == {8.0, 9.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}


def test_underfull_sample_raises():
    buf = filled_buffer(4)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="holding 4"):
        buf.sample(8, beta=0.4, rng=rng)
    assert rng.random() == np.random.default_rng(0).random()  # no draw taken
    assert len(buf.sample(4, beta=0.4, rng=rng).indices) == 4


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
    leaves = leaf_priorities(buf)
    assert leaves[0] == 1e-3**buf.alpha  # zero error never starves
    assert leaves[0] < leaves[1] < leaves[2]
    assert np.all(leaves[: len(buf)] > 0)
    assert buf.max_priority == 2.0 + 1e-3


def test_update_leaves_other_priorities_alone():
    buf = filled_buffer(8)
    before = leaf_priorities(buf)
    buf.update_priorities(np.array([3]), np.array([9.0]))
    after = leaf_priorities(buf)
    untouched = [i for i in range(8) if i != 3]
    assert np.array_equal(after[untouched], before[untouched])
    assert after[3] == (9.0 + buf.priority_eps) ** buf.alpha


def test_sampling_probabilities_follow_alpha():
    buf = filled_buffer(4, capacity=4, alpha=0.6)
    td = [0.1, 0.4, 1.2, 3.0]
    buf.update_priorities(np.arange(4), np.array(td))
    assert leaf_priorities(buf).tolist() == [(e + buf.priority_eps) ** 0.6 for e in td]
    raw = np.array(td) + buf.priority_eps
    expected = raw**0.6 / np.sum(raw**0.6)
    draws = collect_draws(buf, 100_000, 4, np.random.default_rng(5), beta=0.5)
    freqs = np.bincount(draws, minlength=4) / len(draws)
    assert np.allclose(freqs, expected, atol=0.01)


def test_new_experience_gets_max_priority():
    buf = filled_buffer(8)
    buf.update_priorities(np.array([2]), np.array([7.0]))
    buf.add(np.zeros(3), 0, 0.0, np.zeros(3), 1.0)
    newest = (buf.write - 1) % buf.capacity
    assert buf.max_priority == 7.0 + buf.priority_eps
    assert buf.tree.get(newest) == buf.max_priority**buf.alpha


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
    # The tree runs on the kernels where they build; `slow` on the fallback.
    tree, slow = SumTree(capacity), SumTree(capacity)
    mass = np.zeros(capacity)
    last = data.draw(st.integers(0, capacity - 1))  # leaves after it: a zero-mass tail
    pool = data.draw(st.lists(st.integers(0, last), min_size=1, max_size=3))
    leaf = st.sampled_from(pool) | st.integers(0, last)  # so that leaves get rewritten
    for j, value in data.draw(st.lists(st.tuples(leaf, st.integers(0, 1000)), min_size=1, max_size=40)):
        tree.set(j, float(value))
        with forced_fallback():
            slow.set(j, float(value))
        mass[j] = value
    inner = capacity - 1
    assert tree.nodes.tobytes() == slow.nodes.tobytes()
    assert tree.nodes[inner:].tolist() == mass.tolist()
    assert tree.nodes[:inner].tolist() == (tree.nodes[1 : 2 * inner : 2] + tree.nodes[2 : 2 * inner + 1 : 2]).tolist()
    assert tree.total() == mass.sum()
    start = 0.0
    for j in leaves_in_prefix_order(capacity):
        if mass[j] > 0:  # its range is [start, start + mass); check both ends and the middle
            for prefix in (start, start + mass[j] / 2, start + mass[j] - 0.5):
                assert tree.find(prefix) == j
                with forced_fallback():
                    assert slow.find(prefix) == j
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

    def __init__(self, capacity, obs_dim, alpha, priority_eps):
        super().__init__(capacity, obs_dim, alpha, priority_eps)
        self.tree = ScalarSumTree(capacity)

    def sample(self, batch, beta, rng):
        if self.size < batch:
            raise ValueError("underfull")
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
            discount=self.discount[indices],
            indices=indices,
            weights=weights,
        )

    def update_priorities(self, indices, td_abs):
        for i, err in zip(indices, td_abs):
            raw = float(abs(err)) + self.priority_eps
            self.tree.set(int(i), raw**self.alpha)
            if raw > self.max_priority:
                self.max_priority = raw


def draw_or_none(buf, batch, beta, rng):
    """The buffer's sample, or None where it raises for being underfull."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # a drifted total may read 0
            return buf.sample(batch, beta, rng)
    except ValueError:
        return None


def assert_same_state(fast, ref):
    assert fast.tree.nodes.tobytes() == ref.tree.nodes.tobytes()
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
    capacity=st.sampled_from([1, 3, 5, 8, 100, 100_000]),
    alpha=st.sampled_from([0.6, 1.0, 0.35, 0.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_replay_matches_numpy_scalar_reference(capacity, alpha, seed, data):
    # `fast` runs on the kernels where they build, `slow` on the fallback
    fast = PrioritizedReplay(capacity, 1, alpha, 1e-3)
    slow = PrioritizedReplay(capacity, 1, alpha, 1e-3)
    ref = ScalarReplay(capacity, 1, alpha, 1e-3)
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    last = None  # the indices of the latest batch, which an update may reuse

    def each(call):
        """call(buffer, its rng) on fast, slow and ref, in that order."""
        out = [call(fast, rngs[0])]
        with forced_fallback():
            out.append(call(slow, rngs[1]))
        return out + [call(ref, rngs[2])]

    def sample(batch):
        nonlocal last
        beta = data.draw(st.sampled_from([0.0, 0.4, 0.73, 1.0]), label="beta")
        *got, want = each(lambda buf, rng: draw_or_none(buf, batch, beta, rng))
        for out in got:
            assert (out is None) == (want is None) == (batch > len(ref))
            if out is not None:
                assert out.indices.dtype == want.indices.dtype
                assert out.indices.tobytes() == want.indices.tobytes()
                assert out.weights.tobytes() == want.weights.tobytes()
        if want is not None:
            last = want.indices

    def update(idx, td):
        each(lambda buf, rng: buf.update_priorities(idx, td))

    kinds = ["add", "sample", "update", "update-batch", "drift"]
    ops = st.sampled_from(kinds if alpha > 0 else kinds[:-1])  # at alpha 0 every leaf is 1.0, so none drifts
    for op in data.draw(st.lists(ops, min_size=3, max_size=25), label="ops"):
        if op == "add":
            for _ in range(data.draw(st.integers(1, min(capacity + 1, 101)), label="adds")):  # may evict
                each(lambda buf, rng: buf.add(np.zeros(1), 0, 0.0, np.zeros(1), 1.0))
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
        assert_same_state(slow, ref)
        # prefixes on the root's split, at both ends and inside the range
        total = ref.tree.total()
        probes = [0.0, total, *(u * total for u in data.draw(st.lists(st.floats(0.0, 1.0), max_size=3)))]
        if capacity > 1:
            probes.append(float(ref.tree.nodes[1]))
        for prefix in probes:
            assert fast.tree.find(prefix) == ref.tree.find(prefix)
            with forced_fallback():
                assert slow.tree.find(prefix) == ref.tree.find(prefix)

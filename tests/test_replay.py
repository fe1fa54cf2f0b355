import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from iovslice.dqn.replay import PrioritizedReplay, SumTree


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

"""Layer harness for one gradient update of the learner, on pytest-benchmark.

Four pieces of `dqn.train`'s update at the default configuration's sizes
(73 inputs, hidden (256, 128, 120), 120 actions, batch 32, a prioritized
replay of 100,000 transitions with alpha 0.6):

- `PrioritizedReplay.sample` of one batch (beta 0.4) from a full buffer;
- `PrioritizedReplay.update_priorities` of one sampled batch;
- one `Adam` step over every parameter, early (t < 356, both bias
  corrections divide) and late (t > 37,412, both have rounded to 1.0);
- `DuelingQNetwork.loss_and_grads` on one batch.

The buffer's tree and priorities are filled to capacity; its observation rows
stay zero, so setting it up writes no 117 MB of transitions. Each timed round
is one call.

Run from the repository root (tier-1 does not collect this directory):

    python -m pytest bench/test_learner_update.py --benchmark-json=BENCH_learner.json
"""

import numpy as np
import pytest

from iovslice.config import RunConfig
from iovslice.dqn import Adam, DuelingQNetwork, PrioritizedReplay

CFG = RunConfig()
OBS, ACTIONS, BATCH = CFG.env.obs_dim, CFG.env.n_actions, CFG.train.batch_size
ROUNDS = 300

# sample and loss_and_grads allocate their batches; a collection inside a
# timed round would charge its sweep to whichever call triggered it
pytestmark = pytest.mark.benchmark(disable_gc=True)


@pytest.fixture(scope="module")
def replay():
    tc = CFG.train
    buf = PrioritizedReplay(tc.replay_capacity, OBS, alpha=tc.alpha, priority_eps=tc.priority_eps)
    buf.size = tc.replay_capacity
    buf.update_priorities(np.arange(buf.size), np.random.default_rng(0).exponential(size=buf.size))
    return buf


@pytest.fixture(scope="module")
def net():
    return DuelingQNetwork(OBS, CFG.train.hidden, ACTIONS, np.random.default_rng(1))


def test_replay_sample(benchmark, replay):
    rng = np.random.default_rng(2)
    batch = benchmark.pedantic(replay.sample, args=(BATCH, 0.4, rng), rounds=ROUNDS, warmup_rounds=5)
    assert batch.indices.shape == (BATCH,)


def test_replay_update_priorities(benchmark, replay):
    rng = np.random.default_rng(3)

    def setup():
        return (replay.sample(BATCH, 0.4, rng).indices, rng.exponential(size=BATCH)), {}

    benchmark.pedantic(replay.update_priorities, setup=setup, rounds=ROUNDS, warmup_rounds=5)
    assert replay.max_priority > 1.0


@pytest.mark.parametrize("t0", [0, 40_000], ids=["early", "late"])
def test_adam_step(benchmark, net, t0):
    params = net.clone().params
    opt = Adam(params, CFG.train.lr)
    opt.t = t0
    grads = net.clone().params
    grads.flat[...] = np.random.default_rng(4).normal(size=grads.flat.size)
    benchmark.pedantic(opt.step, args=(params, grads), rounds=ROUNDS, warmup_rounds=5)
    assert t0 < opt.t < 356 or opt.t > 37_412


def test_loss_and_grads(benchmark, net):
    rng = np.random.default_rng(5)
    obs = rng.uniform(size=(BATCH, OBS))
    actions = rng.integers(ACTIONS, size=BATCH)
    targets = rng.normal(size=BATCH)
    weights = rng.uniform(0.5, 1.0, size=BATCH)
    loss, grads, _ = benchmark.pedantic(
        net.loss_and_grads, args=(obs, actions, targets, weights), rounds=ROUNDS, warmup_rounds=5
    )
    assert np.isfinite(loss) and grads.flat.size == net.params.flat.size

import contextlib
import hashlib
import os
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from iovslice import cli
from iovslice.config import RunConfig, serialize_config
from iovslice.env import EnvConfig, SlicingEnv
from iovslice.worlds import TAG_EVAL, WorldStream
from iovslice.dqn import kernels
from iovslice.dqn.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CHECKPOINT_MAGIC,
    Adam,
    CheckpointFormatError,
    DuelingQNetwork,
    FlatParams,
    UnsupportedVersionError,
    load_checkpoint,
    save_checkpoint,
)

from conftest import forced_fallback, require_kernels

ROOT = Path(__file__).resolve().parent.parent


def toy_net(seed=0, obs=4, hidden=(2,), actions=3):
    return DuelingQNetwork(obs, hidden, actions, np.random.default_rng(seed))


def on_path(fallback):
    """The numpy passes when `fallback`, else the C passes where they run."""
    return forced_fallback() if fallback else contextlib.nullcontext()


def require_passes(fallback):
    if not fallback and kernels.blas() is None:
        pytest.skip("the network's C passes cannot run here")


def huber_loss(net, obs, actions, targets, weights):
    q = net.forward(obs)
    delta = q[np.arange(len(actions)), actions] - targets
    loss = np.where(np.abs(delta) <= 1.0, 0.5 * delta**2, np.abs(delta) - 0.5)
    return float(np.mean(weights * loss))


def test_zero_net_outputs_zero():
    net = DuelingQNetwork(4, (2,), 3, rng=None)
    assert np.all(net.forward(np.ones(4)) == 0.0)


def test_constant_advantage_collapses_to_value():
    net = toy_net()
    wa, ba = net.params[-2], net.params[-1]
    wa[...] = 0.0
    ba[...] = 3.7
    x = np.random.default_rng(1).normal(size=(5, 4))
    q = net.forward(x)
    h = np.maximum(x @ net.params[0] + net.params[1], 0.0)  # the one hidden layer
    v = h @ net.params[-4] + net.params[-3]
    assert np.allclose(q, v)  # Q == V for every action
    assert np.allclose(q[:, 0:1], q)  # identical across actions


def test_advantage_shift_preserves_argmax():
    net = toy_net(seed=2)
    x = np.random.default_rng(3).normal(size=(6, 4))
    before = np.argmax(net.forward(x), axis=1)
    net.params[-1][...] += 41.5  # shift every advantage by a constant
    after = np.argmax(net.forward(x), axis=1)
    assert np.array_equal(before, after)


def test_gradients_match_finite_differences():
    """On the C passes where they build and on the numpy passes."""
    for fallback in (False, True):
        check_gradients_by_finite_differences(fallback)


def check_gradients_by_finite_differences(fallback):
    rng = np.random.default_rng(42)
    net = toy_net(seed=5)
    batch = 7
    obs = rng.normal(size=(batch, 4))
    actions = rng.integers(0, 3, size=batch)
    # targets spread so both Huber branches are exercised
    targets = rng.normal(scale=3.0, size=batch)
    weights = rng.uniform(0.2, 1.0, size=batch)
    with on_path(fallback):
        _, grads, _ = net.loss_and_grads(obs, actions, targets, weights, 1.0)
    eps = 1e-6
    for p_idx, p in enumerate(net.params):
        flat = p.ravel()
        g = grads[p_idx].ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up = huber_loss(net, obs, actions, targets, weights)
            flat[k] = orig - eps
            down = huber_loss(net, obs, actions, targets, weights)
            flat[k] = orig
            fd = (up - down) / (2 * eps)
            if abs(fd) < 1e-12 and abs(g[k]) < 1e-12:
                continue
            assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-10), f"param {p_idx} entry {k}"


def test_zero_td_error_zero_gradients():
    net = toy_net(seed=6)
    obs = np.random.default_rng(7).normal(size=(4, 4))
    actions = np.array([0, 1, 2, 0])
    targets = net.forward(obs)[np.arange(4), actions]
    loss, grads, td = net.loss_and_grads(obs, actions, targets, np.ones(4), 1.0)
    assert loss == 0.0
    assert np.all(td == 0.0)
    for g in grads:
        assert np.all(g == 0.0)


def test_importance_weights_scale_gradients():
    net = toy_net(seed=8)
    rng = np.random.default_rng(9)
    obs = rng.normal(size=(5, 4))
    actions = rng.integers(0, 3, size=5)
    targets = rng.normal(size=5)
    w = rng.uniform(0.5, 1.5, size=5)
    _, g1, _ = net.loss_and_grads(obs, actions, targets, w, 1.0)
    _, g2, _ = net.loss_and_grads(obs, actions, targets, 3.0 * w, 1.0)
    for a, b in zip(g1, g2):
        assert np.allclose(3.0 * a, b)


def test_adam_zero_gradient_no_move():
    net = toy_net(seed=10)
    opt = Adam(net.params, lr=0.1)
    before = [p.copy() for p in net.params]
    opt.step(net.params, FlatParams(np.zeros_like(net.params.flat), net.params.shapes))
    for p, b in zip(net.params, before):
        assert np.array_equal(p, b)


def test_adam_reduces_simple_loss():
    net = toy_net(seed=11)
    opt = Adam(net.params, lr=1e-2)
    rng = np.random.default_rng(12)
    obs = rng.normal(size=(16, 4))
    actions = rng.integers(0, 3, size=16)
    targets = rng.normal(size=16)
    w = np.ones(16)
    first, *_ = net.loss_and_grads(obs, actions, targets, w, 1.0)
    for _ in range(200):
        _, grads, _ = net.loss_and_grads(obs, actions, targets, w, 1.0)
        opt.step(net.params, grads)
    last, *_ = net.loss_and_grads(obs, actions, targets, w, 1.0)
    assert last < first * 0.1


def test_clone_and_copy_from():
    net = toy_net(seed=13)
    target = net.clone()
    for a, b in zip(net.params, target.params):
        assert np.array_equal(a, b) and a is not b
        assert not np.shares_memory(a, b)
    net.params[0][0, 0] += 1.0
    assert target.params[0][0, 0] != net.params[0][0, 0]
    target.copy_from(net)
    assert target.params[0][0, 0] == net.params[0][0, 0]
    assert not np.shares_memory(target.params.flat, net.params.flat)
    net.params[-1][0] += 1.0  # a later change of the source stays out of the copy
    assert target.params[-1][0] != net.params[-1][0]


def test_row_forward_equals_one_row_batch():
    net = DuelingQNetwork(73, (256, 128, 120), 120, np.random.default_rng(21))
    for fallback in (False, True):
        with on_path(fallback):
            for x in np.random.default_rng(22).uniform(size=(20, 73)):
                assert net.forward(x).tobytes() == net.forward(x[None])[0].tobytes()


# -- the C passes against the numpy passes ------------------------------------


def default_net(seed, hidden=None, F=2, rng=True):
    """A network of the default env's shapes at F resource blocks (F = 3:
    85 inputs, 180 actions), with the default hidden widths unless given."""
    env = EnvConfig(F=F)
    hidden = hidden or RunConfig().train.hidden
    return DuelingQNetwork(env.obs_dim, hidden, env.n_actions, np.random.default_rng(seed) if rng else None)


def batch_inputs(net, rows, seed):
    """Observations, actions, targets spread over both Huber branches, and
    importance weights."""
    rng = np.random.default_rng(seed)
    return [
        rng.uniform(-1.0, 1.0, size=(rows, net.obs_dim)),
        rng.integers(net.n_actions, size=rows),
        rng.normal(scale=3.0, size=rows),
        rng.uniform(0.2, 1.0, size=rows),
    ]


def passes(net, obs, actions, targets, weights, huber_delta=1.0):
    """forward's Q and loss_and_grads' loss, gradients and |td error|, as bytes."""
    loss, grads, td = net.loss_and_grads(obs, actions, targets, weights, huber_delta)
    return net.forward(obs).tobytes(), loss.hex(), grads.flat.tobytes(), td.tobytes()


def outcome(call):
    """What `call` returns, or the type and message of the IndexError,
    TypeError or ValueError it raises."""
    try:
        return call()
    except (IndexError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def batches(rows):
    def case():
        net = default_net(30 + rows)
        return net, *batch_inputs(net, rows, 31 + rows)

    return case


def shaped(hidden, F=2):
    def case():
        net = default_net(32, hidden, F)
        return net, *batch_inputs(net, 32, 33)

    return case


def huber_edges():
    """Q exact in binary (zero head weights, dyadic biases), so the targets
    put |delta| at exactly 0, exactly huber_delta and on both sides of it."""
    net = default_net(34, (16, 8))
    net.params[-4][...] = 0.0
    net.params[-2][...] = 0.0
    net.params[-3][...] = 0.5
    net.params[-1][...] = (np.arange(net.n_actions) - (net.n_actions - 1) / 2) * 0.25
    obs, actions, _, weights = batch_inputs(net, 12, 35)
    offsets = np.array([0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -3.0, 1.0, -1.0, 0.0, 2.5, -0.25])
    q = 0.5 + net.params[-1][actions]
    targets = q + offsets
    assert np.array_equal(np.abs(net.forward(obs)[np.arange(12), actions] - targets), np.abs(offsets))
    return net, obs, actions, targets, weights


def zero_importance_weights():
    net = default_net(36)
    obs, actions, targets, weights = batch_inputs(net, 32, 37)
    weights[::3] = 0.0  # their gradient rows are 0.0 * clip(delta), signed zeros
    return net, obs, actions, targets, weights


def zero_network():
    net = default_net(0, rng=False)
    return net, *batch_inputs(net, 32, 38)


def negative_zero_observations():
    net = default_net(39)
    obs, actions, targets, weights = batch_inputs(net, 32, 40)
    obs[obs < 0.0] = -0.0
    return net, obs, actions, targets, weights


def zero_pre_activations():
    """Units whose pre-activation is exactly zero: zero incoming weights with
    a +0.0 or -0.0 bias, and an all-zero observation row."""
    net = default_net(41, (16, 8))
    w1, b1 = net.params[0], net.params[1]
    w1[:, :3] = 0.0
    b1[:2] = 0.0
    b1[2] = -0.0
    obs, actions, targets, weights = batch_inputs(net, 8, 42)
    obs[0] = 0.0
    return net, obs, actions, targets, weights


def float32_observations():
    net = default_net(43)
    obs, actions, targets, weights = batch_inputs(net, 32, 44)
    return net, obs.astype(np.float32), actions, targets, weights


def list_inputs():
    net = default_net(68)
    return net, *(a.tolist() for a in batch_inputs(net, 32, 69))


def strided_observations(step_axis):
    def case():
        net = default_net(45)
        _, actions, targets, weights = batch_inputs(net, 32, 46)
        wide = np.random.default_rng(47).uniform(size=(64, 2 * net.obs_dim))
        obs = wide[::2, : net.obs_dim] if step_axis == 0 else wide[:32, ::2]
        return net, obs, actions, targets, weights

    return case


PASS_CASES = {
    "B=1": batches(1),
    "B=2": batches(2),
    "B=32": batches(32),
    "B=200": batches(200),  # np.mean's pairwise sum splits past 128
    "F=3": shaped(None, F=3),  # 180 actions: the row sums split too
    "one-hidden-layer": shaped((64,)),
    "four-hidden-layers": shaped((64, 48, 32, 16)),
    "last-hidden-width-1": shaped((1,)),
    "middle-hidden-width-1": shaped((8, 1, 8)),
    "huber-edges": huber_edges,
    "zero-importance-weights": zero_importance_weights,
    "zero-network": zero_network,
    "negative-zero-observations": negative_zero_observations,
    "zero-pre-activations": zero_pre_activations,
    "float32-observations": float32_observations,
    "list-inputs": list_inputs,
    "row-strided-observations": strided_observations(0),
    "column-strided-observations": strided_observations(1),
}


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
@pytest.mark.parametrize("case", list(PASS_CASES))
def test_network_passes_match_the_numpy_passes(case, fallback, monkeypatch):
    """forward and loss_and_grads on the path under test against the numpy
    passes, bit for bit. On the kernels no case reaches the numpy passes:
    each input is converted to the one form the C passes take."""
    require_passes(fallback)
    net, *inputs = PASS_CASES[case]()
    with forced_fallback():
        expected = passes(net, *inputs)
    if not fallback:
        monkeypatch.setattr(DuelingQNetwork, "_forward", None)
    with on_path(fallback):
        assert passes(net, *inputs) == expected


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
@pytest.mark.parametrize("hidden, F", [(None, 2), (None, 3), ((1,), 2), ((8, 1, 8), 2), ((64, 48, 32, 16), 2)])
def test_row_forward_matches_the_numpy_passes(hidden, F, fallback, monkeypatch):
    """One-row forwards, as `greedy_episode` makes them, including float32,
    strided, list and signed-zero rows and an all-zero row; on the kernels
    none reaches the numpy passes."""
    require_passes(fallback)
    net = default_net(48, hidden, F)
    rows = list(np.random.default_rng(49).uniform(-1.0, 1.0, size=(20, net.obs_dim)))
    rows[1] = np.where(rows[1] < 0.0, -0.0, rows[1])
    rows[2] = np.zeros(net.obs_dim)
    rows[3] = rows[3].astype(np.float32)
    rows[4] = np.random.default_rng(50).uniform(size=2 * net.obs_dim)[::2]
    rows[5] = rows[5].tolist()
    with forced_fallback():
        expected = [net.forward(x).tobytes() for x in rows]
    if not fallback:
        monkeypatch.setattr(DuelingQNetwork, "_forward", None)
    with on_path(fallback):
        assert [net.forward(x).tobytes() for x in rows] == expected


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
def test_non_finite_observations_give_numpys_q_and_loss(fallback):
    """NaN and infinite entries give numpy's Q, loss and |td error| bytes,
    and NaN gradients where numpy's are NaN; a NaN gradient's sign bit may
    differ (the header of `_kernels.c`)."""
    require_passes(fallback)
    net = default_net(64, (16, 8))
    obs, actions, targets, weights = batch_inputs(net, 8, 65)
    obs[2, 5], obs[4], obs[5, 0] = np.nan, np.inf, -np.inf

    def run():
        loss, grads, td = net.loss_and_grads(obs, actions, targets, weights, 1.0)
        qs = [net.forward(obs).tobytes()] + [net.forward(x).tobytes() for x in obs]
        return qs, loss.hex(), td.tobytes(), np.isnan(grads.flat), np.where(np.isnan(grads.flat), 0.0, grads.flat)

    with np.errstate(all="ignore"):
        with forced_fallback():
            expected = run()
        with on_path(fallback):
            got = run()
    assert got[:3] == expected[:3]
    assert np.array_equal(got[3], expected[3]) and got[4].tobytes() == expected[4].tobytes()


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
def test_one_network_serves_rows_batches_and_updates_in_any_order(fallback):
    """The C passes' buffers grow with the batch and read the parameters in
    place, so an Adam step or a new parameter vector is seen at once."""
    require_passes(fallback)
    net, ref = default_net(51, (16, 8)), default_net(51, (16, 8))
    opt, ref_opt = Adam(net.params, 1e-2), Adam(ref.params, 1e-2)
    for step, rows in enumerate((1, 32, 2, 200, 32)):
        inputs = batch_inputs(net, rows, 52 + step)
        with forced_fallback():
            expected = ref.forward(inputs[0][0]).tobytes(), passes(ref, *inputs)
            ref_opt.step(ref.params, ref.loss_and_grads(*inputs, 1.0)[1])
        with on_path(fallback):
            assert (net.forward(inputs[0][0]).tobytes(), passes(net, *inputs)) == expected
            opt.step(net.params, net.loss_and_grads(*inputs, 1.0)[1])
    flat = np.random.default_rng(53).normal(size=net.params.flat.size)
    net.params = FlatParams(flat.copy(), net.params.shapes)
    ref.params = FlatParams(flat.copy(), ref.params.shapes)
    inputs = batch_inputs(net, 32, 54)
    with forced_fallback():
        expected = passes(ref, *inputs)
    with on_path(fallback):
        assert passes(net, *inputs) == expected


# Inputs outside the one form are refused alike on both paths; nothing reads
# outside an array.


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
@pytest.mark.parametrize(
    "bad",
    [lambda k: k, lambda k: 2**62, lambda k: -1, lambda k: -k, lambda k: -k - 1],
    ids=["n_actions", "2**62", "-1", "-n_actions", "-n_actions-1"],
)
def test_an_action_outside_the_network_is_refused(bad, fallback):
    require_passes(fallback)
    net = default_net(57, (16, 8))
    obs, actions, targets, weights = batch_inputs(net, 8, 58)
    actions[6] = bad(net.n_actions)
    with on_path(fallback), pytest.raises(IndexError, match="of row 6 is outside"):
        net.loss_and_grads(obs, actions, targets, weights, 1.0)


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
@pytest.mark.parametrize("which", ["targets", "weights"])
@pytest.mark.parametrize("length", [1, 7, 9])
def test_targets_or_weights_of_another_length_behave_as_numpy(length, which, fallback):
    """Any length but the batch's, 1 included, is refused on the path under
    test as on the numpy path, with the same message."""
    require_passes(fallback)
    net = default_net(59, (16, 8))
    obs, actions, targets, weights = batch_inputs(net, 8, 60)
    inputs = {"targets": targets, "weights": weights}
    inputs[which] = np.random.default_rng(61).uniform(size=length)

    def call():
        return passes(net, obs, actions, inputs["targets"], inputs["weights"])

    with forced_fallback():
        expected = outcome(call)
    with on_path(fallback):
        assert outcome(call) == expected
    assert expected[0] is ValueError


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
def test_an_empty_batch_is_refused(fallback, monkeypatch):
    """loss_and_grads refuses an empty batch, and forward of zero rows gives
    zero Q rows; on the kernels neither reaches the numpy passes."""
    require_passes(fallback)
    net = default_net(62, (16, 8))
    obs, actions, targets, weights = (a[:0] for a in batch_inputs(net, 8, 63))
    if not fallback:
        monkeypatch.setattr(DuelingQNetwork, "_forward", None)
    with on_path(fallback):
        assert net.forward(obs).shape == (0, net.n_actions)
        with pytest.raises(ValueError, match="one or more rows"):
            net.loss_and_grads(obs, actions, targets, weights, 1.0)


def refusals(net):
    """Calls outside the passes' one input form, by name."""
    obs, actions, targets, weights = batch_inputs(net, 8, 66)
    opt = Adam(net.params, 1e-3)

    def train(**change):
        inputs = {"obs": obs, "actions": actions, "targets": targets, "weights": weights, "huber_delta": 1.0}
        return lambda: net.loss_and_grads(**{**inputs, **change})

    def adam(vector):
        return lambda: opt.step(net.params, FlatParams(vector, net.params.shapes))

    return {  # the tests above take out-of-range actions, other lengths and the empty batch
        "float-actions": train(actions=actions.astype(np.float64)),
        "actions-of-another-length": train(actions=actions[:7]),
        "a-row-to-train": train(obs=obs[0]),
        "another-width-to-train": train(obs=obs[:, 1:]),
        "an-array-huber-delta": train(huber_delta=np.ones(8)),
        "3-D-forward": lambda: net.forward(obs[None]),
        "another-width-forward": lambda: net.forward(obs[:, 1:]),
        "greedy-on-a-batch": lambda: net.greedy_action(obs),
        "greedy-on-a-3-D-input": lambda: net.greedy_action(obs[None, :1]),
        "adam-longer-vector": adam(np.zeros(net.params.flat.size + 1)),
        "adam-float32-vector": adam(np.zeros(net.params.flat.size, np.float32)),
    }


@pytest.mark.parametrize("case", list(refusals(default_net(0, (4,)))))
def test_a_refusal_is_the_same_on_both_paths(case, monkeypatch):
    """Every input outside the one form raises the same exception and
    message on the kernels, without reaching the numpy passes, as on the
    fallback."""
    require_passes(False)
    net = default_net(67, (16, 8))
    with forced_fallback():
        expected = outcome(refusals(net)[case])
    monkeypatch.setattr(DuelingQNetwork, "_forward", None)
    assert outcome(refusals(net)[case]) == expected
    assert isinstance(expected, tuple) and expected[0] in (IndexError, TypeError, ValueError)


# -- greedy_action: forward and argmax in one call ----------------------------


def rollout_rows(net, episode):
    """The observations of a greedy rollout of the default world `episode`."""
    cfg = RunConfig()
    env = SlicingEnv(cfg.env)
    rows = [env.reset(*WorldStream(cfg.road, cfg.env, cfg.channel, cfg.workload, cfg.seed, TAG_EVAL)(episode))]
    while True:
        step = env.step(int(net.forward(rows[-1]).argmax()))
        if step.terminal:
            return rows
        rows.append(step.next_observation)


def committed_network():
    cfg = RunConfig()
    key = hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
    return load_checkpoint(ROOT / "tests" / ".acceptance-cache" / key / "checkpoint.bin")


def tied_network():
    """Q ties at its largest value on actions 7 and 30, and at a lower one elsewhere."""
    net = default_net(0, rng=False)
    net.params[-1][[3, 7, 30, 90]] = [1.0, 2.0, 2.0, 1.0]
    return net


def nan_network():
    """Q is NaN on action 40 (inf - inf) and -inf elsewhere, so only a NaN
    rule picks it; a NaN in the row makes every Q NaN."""
    net = default_net(70, (16, 8))
    net.params[-1][40] = np.inf
    return net


def greedy_rows(net):
    """Rows `greedy_action` meets and rows it hands to `forward`: float32,
    strided, signed-zero and all-zero rows beside uniform ones."""
    rows = list(np.random.default_rng(71).uniform(-1.0, 1.0, size=(8, net.obs_dim)))
    rows[1] = np.where(rows[1] < 0.0, -0.0, rows[1])
    rows[2] = np.zeros(net.obs_dim)
    rows[3] = rows[3].astype(np.float32)
    rows[4] = np.random.default_rng(72).uniform(size=2 * net.obs_dim)[::2]
    rows[5] = list(rows[5])
    rows[6][9] = np.nan
    return rows


GREEDY_CASES = {
    "committed-checkpoint-rollout": lambda: (committed_network(), rollout_rows(committed_network(), 0)),
    "tied-maxima": lambda: (tied_network(), greedy_rows(tied_network())),
    "zero-network": lambda: (default_net(0, rng=False), greedy_rows(default_net(0, rng=False))),
    "nan-row": lambda: (nan_network(), greedy_rows(nan_network())),
    "random-network": lambda: (default_net(73, F=3), greedy_rows(default_net(73, F=3))),
}


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
@pytest.mark.parametrize("case", list(GREEDY_CASES))
def test_greedy_action_is_the_argmax_of_forward(case, fallback, monkeypatch):
    """`greedy_action` on the path under test against numpy's argmax of the
    numpy passes' Q: the first of tied maxima, the first NaN. On the
    kernels, no row reaches the numpy passes."""
    require_passes(fallback)
    net, rows = GREEDY_CASES[case]()
    with np.errstate(invalid="ignore"), forced_fallback():
        expected = [int(net.forward(x).argmax()) for x in rows]
    if case in ("tied-maxima", "nan-row"):  # 0 for the row holding a NaN
        top = 7 if case == "tied-maxima" else 40
        assert expected == [top] * 6 + [0, top]
    if not fallback:
        monkeypatch.setattr(DuelingQNetwork, "_forward", None)
    with np.errstate(invalid="ignore"), on_path(fallback):
        assert [net.greedy_action(x) for x in rows] == expected
        assert all(type(net.greedy_action(x)) is int for x in rows)


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
def test_greedy_action_takes_what_forward_takes(fallback):
    """float32, strided, list and NaN rows give forward's argmax; a row of
    another width is refused as forward refuses it."""
    require_passes(fallback)
    net = default_net(74)
    with forced_fallback():
        expected = [int(net.forward(x).argmax()) for x in greedy_rows(net)]
    assert expected[6] == 0  # the NaN row
    with on_path(fallback):
        assert [net.greedy_action(x) for x in greedy_rows(net)] == expected
        for bad in (np.zeros(net.obs_dim + 1), np.zeros(net.obs_dim - 1, np.float32)):
            with pytest.raises(ValueError) as refused:
                net.greedy_action(bad)
            with pytest.raises(ValueError) as by_forward:
                net.forward(bad)
            assert str(refused.value) == str(by_forward.value)


def test_greedy_action_calls_a_replaced_forward(monkeypatch):
    """A forward replaced on the class, as a tracer wraps it, is the one
    `greedy_action` takes the argmax of."""
    net = default_net(75)
    calls = []
    plain = DuelingQNetwork.forward

    def traced(self, obs):
        calls.append(1)
        return plain(self, obs)

    x = np.random.default_rng(76).uniform(size=net.obs_dim)
    expected = int(net.forward(x).argmax())
    monkeypatch.setattr(DuelingQNetwork, "forward", traced)
    assert net.greedy_action(x) == expected and calls == [1]


def test_numpy_blas_resolves_where_numpy_is_built_on_scipy_openblas():
    """A lookup that failed unnoticed would send every network pass to numpy,
    and the identity tests above would compare the numpy passes with
    themselves."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas" or "USE64BITINT" not in blas.get("openblas configuration", ""):
        pytest.skip("numpy is not built on the ILP64 scipy-openblas")
    require_kernels()
    assert kernels.blas() is not None


def test_adam_matches_per_tensor_formula():
    """50 steps, some with all-zero and some with partly zero gradients,
    against the per-tensor update p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)."""
    net = DuelingQNetwork(6, (5, 4), 3, np.random.default_rng(23))
    lr, b1, b2, eps = 1e-3, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    opt = Adam(net.params, lr)
    ref = [p.copy() for p in net.params]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    rng = np.random.default_rng(24)
    for t in range(1, 51):
        grads = FlatParams(rng.normal(size=net.params.flat.size), net.params.shapes)
        if t % 7 == 0:
            grads.flat[...] = 0.0
        elif t % 3 == 0:
            grads.flat[rng.random(grads.flat.size) < 0.5] = 0.0
        opt.step(net.params, grads)
        b1t, b2t = 1.0 - b1**t, 1.0 - b2**t
        for p_ref, g, m_, v_ in zip(ref, grads, m, v):
            m_ *= b1
            m_ += (1.0 - b1) * g
            v_ *= b2
            v_ += (1.0 - b2) * g**2
            p_ref -= lr * (m_ / b1t) / (np.sqrt(v_ / b2t) + eps)
        for p, p_ref in zip(net.params, ref):
            assert p.tobytes() == p_ref.tobytes()


@pytest.mark.parametrize("beta, cutoff", [(0.9, 356), (0.999, 37_412)])
def test_adam_matches_per_tensor_formula_across_bias_cutoffs(beta, cutoff):
    """Steps from just below to past the step where a bias correction rounds
    to 1.0, from nonzero moments, against the per-tensor formula."""
    assert 1.0 - beta ** (cutoff - 1) != 1.0 == 1.0 - beta**cutoff
    net = DuelingQNetwork(6, (5, 4), 3, np.random.default_rng(25))
    lr, b1, b2, eps = 1e-3, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    opt = Adam(net.params, lr)
    rng = np.random.default_rng(26)
    opt.m[...] = rng.normal(size=opt.m.size)
    opt.v[...] = rng.uniform(0.0, 2.0, size=opt.v.size)
    opt.t = cutoff - 4
    ref = [p.copy() for p in net.params]
    m = FlatParams(opt.m.copy(), net.params.shapes)
    v = FlatParams(opt.v.copy(), net.params.shapes)
    for t in range(cutoff - 3, cutoff + 4):
        grads = FlatParams(rng.normal(size=net.params.flat.size), net.params.shapes)
        opt.step(net.params, grads)
        assert opt.t == t
        b1t, b2t = 1.0 - b1**t, 1.0 - b2**t
        for p_ref, g, m_, v_ in zip(ref, grads, m, v):
            m_ *= b1
            m_ += (1.0 - b1) * g
            v_ *= b2
            v_ += (1.0 - b2) * g**2
            p_ref -= lr * (m_ / b1t) / (np.sqrt(v_ / b2t) + eps)
        for p, p_ref in zip(net.params, ref):
            assert p.tobytes() == p_ref.tobytes()


def test_kernels_build_where_the_interpreter_names_a_compiler():
    """A build that fails where a compiler is installed would send every
    kernel test to the fallback unnoticed."""
    cc = kernels.compiler()
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("the interpreter names no installed C compiler")
    assert kernels.library() is not None


def require_compiler():
    cc = kernels.compiler()
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("the interpreter names no installed C compiler")


def cached_libraries(directory):
    return sorted(path.name for path in directory.glob("*"))


def test_a_second_process_loads_the_cached_library_without_the_compiler(tmp_path, monkeypatch):
    require_compiler()
    cache = tmp_path / "cache"
    monkeypatch.setattr(kernels, "CACHE_DIR", cache)
    assert kernels._build() is not None
    name = f"_kernels-{kernels.cache_key(kernels.compiler())}.so"
    assert cached_libraries(cache) == [name]
    script = (
        "import shutil, sys; from pathlib import Path; from iovslice.dqn import kernels; "
        "kernels.CACHE_DIR = Path(sys.argv[1]); "
        "assert shutil.which(kernels.compiler()[0]) is None; "
        "lib = kernels.library(); assert lib is not None and lib.adam_step.restype is not None; print(lib._name)"
    )
    src = Path(kernels.__file__).resolve().parents[2]
    env = {"PATH": str(tmp_path / "no-compiler"), "PYTHONPATH": str(src), "HOME": str(tmp_path)}
    run = subprocess.run([sys.executable, "-c", script, str(cache)], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == str(cache / name)


def test_a_changed_key_builds_a_new_library(tmp_path, monkeypatch):
    require_compiler()
    cache, source = tmp_path / "cache", tmp_path / "_kernels.c"
    monkeypatch.setattr(kernels, "CACHE_DIR", cache)
    built = []
    for change in ("none", "source", "flags"):
        if change == "source":
            source.write_bytes(kernels.SOURCE.read_bytes() + b"/* another source */\n")
            monkeypatch.setattr(kernels, "SOURCE", source)
        if change == "flags":
            monkeypatch.setattr(kernels, "FLAGS", (*kernels.FLAGS, "-DANOTHER_FLAG"))
        assert kernels._build() is not None
        built.append(cached_libraries(cache))
    assert [len(names) for names in built] == [1, 2, 3]


def test_a_build_deletes_only_libraries_unloaded_for_the_age_limit(tmp_path, monkeypatch):
    """A miss deletes a stale library and keeps a recent one and other
    files; a hit refreshes the loaded library's time, so it never ages out."""
    require_compiler()
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(kernels, "CACHE_DIR", cache)
    now = time.time()
    ages = {"_kernels-stale.so": kernels.MAX_AGE_S + 60, "_kernels-recent.so": kernels.MAX_AGE_S - 3600, "notes": 10**9}
    for name, age in ages.items():
        (cache / name).write_bytes(b"")
        os.utime(cache / name, (now - age, now - age))
    assert kernels._build() is not None
    built = f"_kernels-{kernels.cache_key(kernels.compiler())}.so"
    assert cached_libraries(cache) == sorted([built, "_kernels-recent.so", "notes"])
    os.utime(cache / built, (now - 2 * kernels.MAX_AGE_S, now - 2 * kernels.MAX_AGE_S))
    assert kernels._build() is not None
    assert (cache / built).stat().st_mtime > now - 60


@pytest.mark.parametrize("where", ["under-a-file", "holding-a-bad-library"])
def test_a_cache_that_cannot_serve_still_builds(tmp_path, monkeypatch, where):
    """A cache directory that cannot be made, or whose library for the key
    does not load, leaves the build to a temporary directory."""
    require_compiler()
    if where == "under-a-file":
        (tmp_path / "file").write_bytes(b"")
        cache = tmp_path / "file" / "cache"
    else:
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / f"_kernels-{kernels.cache_key(kernels.compiler())}.so").write_bytes(b"not a library")
    monkeypatch.setattr(kernels, "CACHE_DIR", cache)
    lib = kernels._build()
    assert lib is not None and lib.dueling_greedy.restype is not None
    assert not lib._name.startswith(str(tmp_path))


@pytest.mark.parametrize("t0", [0, 353, 37_409], ids=["both-divide", "b1t-is-one-from-356", "both-one-from-37412"])
def test_adam_kernels_match_the_numpy_path(t0):
    """Eight steps at the default network size from step t0 + 1, on the
    kernels and on the fallback, from the same nonzero moments: parameters and
    both moments stay identical bit for bit. The gradients mix normal values
    with zeros, subnormals and values near the float64 extremes."""
    cfg = RunConfig()
    net = DuelingQNetwork(cfg.env.obs_dim, cfg.train.hidden, cfg.env.n_actions, np.random.default_rng(27))
    rng = np.random.default_rng(28)
    fast, ref = Adam(net.params, 1e-3), Adam(net.params, 1e-3)
    fast.t = ref.t = t0
    fast.m[...] = ref.m[...] = rng.normal(size=fast.m.size)
    fast.v[...] = ref.v[...] = rng.uniform(0.0, 2.0, size=fast.v.size)
    p_fast, p_ref = net.params, net.clone().params
    special = np.array([0.0, -0.0, 5e-324, -1e-310, 1e-160, 1e150, -1e150])
    require_kernels()
    for _ in range(8):
        grads = FlatParams(rng.normal(size=p_fast.flat.size), p_fast.shapes)
        grads.flat[rng.integers(grads.flat.size, size=64)] = rng.choice(special, size=64)
        fast.step(p_fast, grads)
        with forced_fallback():
            ref.step(p_ref, grads)
        assert fast.t == ref.t
        for a, b in ((p_fast.flat, p_ref.flat), (fast.m, ref.m), (fast.v, ref.v)):
            assert a.tobytes() == b.tobytes()


TINY = 5e-324  # 2**-1074, the least subnormal
# the largest k with every k' * TINY, 1 <= k' <= k, a fixed point of m * beta1
KFIX = next(k for k in range(1, 1 << 10) if (k + 1) * TINY * ADAM_BETA1 != (k + 1) * TINY)


def stuck_state(seed, size):
    """Moments, gradients and parameters where every fourth element has
    g = +-0 and m = +-k * 2^-1074 for k = 1..8 KFIX, so moments above KFIX
    decay through KFIX + 1 step by step, beside stuck-looking moments with
    a nonzero gradient, zero gradients on normal moments, and subnormal
    second moments. `SIGNED_ZEROS` of the stuck elements are the
    parameters a step leaves at -0.0 or turns to +0.0, by num's sign."""
    rng = np.random.default_rng(seed)
    p, m = rng.normal(size=size), rng.normal(scale=1e-3, size=size)
    v, g = rng.uniform(0.0, 1e-4, size=size), rng.normal(scale=1e-2, size=size)
    sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    stuck = np.arange(0, size, 4)
    m[stuck] = sign[stuck] * (1 + np.arange(stuck.size) % (8 * KFIX)) * TINY
    g[stuck] = sign[stuck[::-1]] * 0.0
    m[1::16] = sign[1::16] * (1 + np.arange(m[1::16].size) % KFIX) * TINY  # nonzero g: not stuck
    g[2::16] = -0.0
    v[5::16] = rng.integers(0, 50, size=v[5::16].size) * TINY
    return p, m, v, g


SIGNED_ZEROS = slice(0, None, 8)


@pytest.mark.parametrize("fallback", [False, True], ids=["kernels", "fallback"])
@pytest.mark.parametrize("lr", [1e-5, 1e-3, 0.5], ids=["lr-1e-5", "lr-1e-3", "lr-0.5-no-zero-step"])
@pytest.mark.parametrize("t0", [0, 353, 37_409], ids=["both-divide", "b1t-is-one-from-356", "both-one-from-37412"])
def test_adam_on_stuck_moments_matches_the_numpy_path(t0, lr, fallback):
    """Twelve steps from stuck first moments, with gradients that keep them
    stuck, then free them, then from stuck moments again, so the kernel's
    pass switches both ways: parameters and both moments match the numpy
    path bit for bit. At lr 0.5 a stuck moment's step is not zero, so the
    kernel never reads a moment as stuck."""
    if not fallback:
        require_kernels()
    size = 4099
    p, m, v, g = stuck_state(77, size)
    shapes = [(size,)]
    fast, ref = Adam(FlatParams(p, shapes), lr), Adam(FlatParams(p, shapes), lr)
    fast.t = ref.t = t0
    fast.m[...], fast.v[...], ref.m[...], ref.v[...] = m, v, m, v
    p_fast, p_ref = FlatParams(p.copy(), shapes), FlatParams(p.copy(), shapes)
    free = FlatParams(np.random.default_rng(78).normal(size=size), shapes)
    careful = []
    for step in range(12):
        grads = free if step in (5, 6) else FlatParams(g, shapes)
        if step == 7:  # stuck again, after a plain pass
            fast.m[...] = ref.m[...] = m
        p_fast.flat[SIGNED_ZEROS] = p_ref.flat[SIGNED_ZEROS] = -0.0  # the caller's parameters
        with on_path(fallback):
            fast.step(p_fast, grads)
        with forced_fallback():
            ref.step(p_ref, grads)
        careful.append(fast._careful)
        for a, b in ((p_fast.flat, p_ref.flat), (fast.m, ref.m), (fast.v, ref.v)):
            assert a.tobytes() == b.tobytes(), step
        if step == 4:  # the stuck moments stayed, the others decayed
            tiny = (g == 0.0) & (np.abs(m) <= 8 * KFIX * TINY)
            held = tiny & (np.abs(m) <= KFIX * TINY)
            assert held.sum() > 100 and ref.m[held].tobytes() == m[held].tobytes()
            assert np.all(np.abs(ref.m[tiny & ~held]) < np.abs(m[tiny & ~held]))
            assert set(np.signbit(p_ref.flat[SIGNED_ZEROS])) == {True, False}
    if not fallback:  # the plain pass, then the careful one until step 6 finds nothing stuck, then both again
        assert careful == [1] * 6 + [0] + [1] * 5


def test_adam_kernels_refuse_a_mismatched_vector():
    """On the kernels and on the fallback alike, leaving the step count."""
    net = toy_net(seed=29)
    opt = Adam(net.params, lr=0.1)
    require_kernels()
    for fallback in (False, True):
        for bad in (np.zeros(net.params.flat.size + 1), np.zeros(net.params.flat.size, np.float32)):
            with on_path(fallback), pytest.raises(ValueError, match="contiguous float64"):
                opt.step(net.params, FlatParams(bad, net.params.shapes))
    assert opt.t == 0


def test_checkpoint_roundtrip_bitwise(tmp_path):
    net = DuelingQNetwork(73, (256, 128, 120), 120, np.random.default_rng(14))
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    x = np.random.default_rng(15).uniform(size=(9, 73))
    assert np.array_equal(net.forward(x), loaded.forward(x))  # bit identical


def test_checkpoint_bytes_of_seeded_network(tmp_path):
    """The parameter layout and the order of the He draws decide these
    bytes; a seeded network's checkpoint is pinned."""
    net = DuelingQNetwork(73, (256, 128, 120), 120, np.random.default_rng(14))
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "befb9650e5442162ab0e124d37a6c584e7ff91d6d539ff46e8e2788bc5491d8f"


def test_checkpoint_truncation_detected(tmp_path):
    net = toy_net(seed=16)
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "obs_dim, hidden, n_actions",
    [(4, (2**31,), 3), (4_000_000_000, (4_000_000_000,), 4_000_000_000)],
)
def test_checkpoint_absurd_header_dims_rejected_before_allocation(tmp_path, capsys, obs_dim, hidden, n_actions):
    payload = toy_net(seed=18).params.flat.tobytes()
    header = CHECKPOINT_MAGIC + struct.pack(f"<3I{len(hidden)}II", 1, obs_dim, len(hidden), *hidden, n_actions)
    path = tmp_path / "net.bin"
    path.write_bytes(header + payload)
    with pytest.raises(CheckpointFormatError, match="payload"):
        load_checkpoint(path)
    assert cli.main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "eval.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "eval.csv").exists()


def test_checkpoint_zero_width_hidden_layer_rejected(tmp_path, capsys):
    """A header whose hidden layer has width 0 would load as a network whose
    Q is the advantage biases for every observation; it is refused instead,
    though the payload size matches the header."""
    cfg = RunConfig()
    obs_dim, hidden, n_actions = cfg.env.obs_dim, (0,), cfg.env.n_actions
    header = CHECKPOINT_MAGIC + struct.pack("<3I1II", 1, obs_dim, 1, *hidden, n_actions)
    payload = np.arange(n_actions + 1, dtype="<f8").tobytes()  # bv and ba: the only nonempty parameters
    path = tmp_path / "net.bin"
    path.write_bytes(header + payload)
    with pytest.raises(CheckpointFormatError, match="zero-width"):
        load_checkpoint(path)
    assert cli.main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "eval.csv"), "--episodes", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "eval.csv").exists()


def test_checkpoint_non_finite_parameter_rejected(tmp_path, capsys):
    """A payload holding a NaN would load and score every row's argmax as
    action 0; it is refused instead, and `eval` writes nothing."""
    cfg = RunConfig()
    net = DuelingQNetwork(cfg.env.obs_dim, (4,), cfg.env.n_actions, np.random.default_rng(0))  # shapes eval accepts
    net.params.flat[7] = np.nan
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    with pytest.raises(CheckpointFormatError, match="non-finite"):
        load_checkpoint(path)
    assert cli.main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "eval.csv"), "--episodes", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "eval.csv").exists()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTANETX" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    net = toy_net(seed=17)
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99  # bump the version field
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(path)

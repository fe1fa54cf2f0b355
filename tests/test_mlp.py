import hashlib
import shutil
import struct

import numpy as np
import pytest

from iovslice import cli
from iovslice.config import RunConfig
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


def toy_net(seed=0, obs=4, hidden=(2,), actions=3):
    return DuelingQNetwork(obs, hidden, actions, np.random.default_rng(seed))


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
    rng = np.random.default_rng(42)
    net = toy_net(seed=5)
    batch = 7
    obs = rng.normal(size=(batch, 4))
    actions = rng.integers(0, 3, size=batch)
    # targets spread so both Huber branches are exercised
    targets = rng.normal(scale=3.0, size=batch)
    weights = rng.uniform(0.2, 1.0, size=batch)
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
    for x in np.random.default_rng(22).uniform(size=(20, 73)):
        assert net.forward(x).tobytes() == net.forward(x[None])[0].tobytes()


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


def test_adam_kernels_refuse_a_mismatched_vector():
    net = toy_net(seed=29)
    opt = Adam(net.params, lr=0.1)
    require_kernels()
    for bad in (np.zeros(net.params.flat.size + 1), np.zeros(net.params.flat.size, np.float32)):
        with pytest.raises(ValueError, match="contiguous float64"):
            opt.step(net.params, FlatParams(bad, net.params.shapes))


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

"""Dueling Q-network as a plain numpy MLP, with Adam and a binary checkpoint format.

ReLU hidden stack feeding two linear heads: a scalar state value and one
advantage per action, combined as Q = V + A - mean(A). All parameters live in
one contiguous float64 vector with per-layer views, so an Adam step, a target
copy and a checkpoint read or write each touch that one vector. Everything is
float64 and single-threaded so a seed pins training bit-for-bit.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"IOVDQNCK"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(ValueError):
    """Corrupt header, wrong magic, or truncated parameter payload."""


class UnsupportedVersionError(CheckpointFormatError):
    """Well-formed checkpoint written by an incompatible format version."""


class FlatParams(list):
    """Per-layer arrays that are views, in order, into one contiguous float64
    vector `flat`: writing a layer writes `flat`, and one copy of `flat`
    copies every layer."""

    def __init__(self, flat: np.ndarray, shapes: list[tuple[int, ...]]):
        views = []
        pos = 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[pos : pos + size].reshape(shape))
            pos += size
        super().__init__(views)
        self.flat = flat
        self.shapes = shapes


class DuelingQNetwork:
    """MLP with hidden ReLU layers and dueling value/advantage heads.

    Parameters live in self.params, a FlatParams of per-layer views
    [W1, b1, ..., Wk, bk, Wv, bv, Wa, ba] into the one vector
    self.params.flat; weight matrices are (in, out). Gradients come back in
    the same layout.
    """

    def __init__(
        self,
        obs_dim: int,
        hidden: tuple[int, ...],
        n_actions: int,
        rng: np.random.Generator | None = None,
    ):
        if obs_dim < 1 or n_actions < 1 or not hidden:
            raise ValueError("need positive dims and at least one hidden layer")
        self.obs_dim = obs_dim
        self.hidden = tuple(int(h) for h in hidden)
        self.n_actions = n_actions
        dims = [obs_dim, *self.hidden]
        shapes: list[tuple[int, ...]] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            shapes += [(fan_in, fan_out), (fan_out,)]
        last = self.hidden[-1]
        shapes += [(last, 1), (1,), (last, n_actions), (n_actions,)]  # value, advantage heads
        self.params = FlatParams(np.zeros(sum(math.prod(s) for s in shapes)), shapes)
        if rng is not None:  # He-normal weights, drawn layer by layer; biases stay zero
            for w in self.params[::2]:
                w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)

    # -- inference -------------------------------------------------------

    def forward(self, obs: np.ndarray) -> np.ndarray:
        """Q values for one observation (1-D) or a batch of rows (2-D).

        A 1-D row takes the same BLAS path (gemv) as a one-row batch, so its
        Q values equal forward(obs[None])[0] bit for bit.
        """
        x = np.asarray(obs, dtype=np.float64)
        if x.shape[-1] != self.obs_dim:
            raise ValueError(f"observation dim {x.shape[-1]} != network input {self.obs_dim}")
        return self._forward(x)[0]

    def forward_cached(self, obs: np.ndarray):
        """Batch forward pass that also returns the activations backward needs."""
        x = np.asarray(obs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.obs_dim:
            raise ValueError(f"observation batch shape {x.shape} != (B, {self.obs_dim})")
        acts = [x]
        q, v, a = self._forward(x, acts)
        return q, (acts, v, a)

    def _forward(self, x: np.ndarray, acts: list | None = None):
        """The one layer loop, returning (Q, V, A); appends each hidden
        activation to `acts` when given one."""
        p = self.params
        h = x
        for i in range(0, 2 * len(self.hidden), 2):
            h = h @ p[i]
            h += p[i + 1]
            np.maximum(h, 0.0, out=h)
            if acts is not None:
                acts.append(h)
        v = h @ p[-4]
        v += p[-3]
        a = h @ p[-2]
        a += p[-1]
        # Q = V + A - mean(A); np.mean is this sum divided by the count
        return v + a - a.sum(axis=-1, keepdims=True) / self.n_actions, v, a

    # -- gradients ---------------------------------------------------------

    def backward(self, cache, dq: np.ndarray) -> FlatParams:
        """Gradients for every parameter given dLoss/dQ, in a fresh FlatParams
        with the layout of self.params."""
        acts, _, _ = cache
        n_hidden = len(self.hidden)
        grads = FlatParams(np.empty(self.params.flat.size), self.params.shapes)
        h_last = acts[-1]
        k = self.n_actions
        dv = dq.sum(axis=1, keepdims=True)  # (B, 1)
        da = dq - dq.sum(axis=1, keepdims=True) / k  # mean-subtraction backprop
        wv = self.params[2 * n_hidden]
        wa = self.params[2 * n_hidden + 2]
        np.matmul(h_last.T, dv, out=grads[-4])
        np.sum(dv, axis=0, out=grads[-3])
        np.matmul(h_last.T, da, out=grads[-2])
        np.sum(da, axis=0, out=grads[-1])
        dh = dv @ wv.T + da @ wa.T
        for i in range(n_hidden - 1, -1, -1):
            dh *= acts[i + 1] > 0.0  # ReLU: activation > 0 iff pre-activation > 0
            np.sum(dh, axis=0, out=grads[2 * i + 1])
            np.matmul(acts[i].T, dh, out=grads[2 * i])
            if i > 0:  # nothing reads the gradient of the observation
                dh = dh @ self.params[2 * i].T
        return grads

    def loss_and_grads(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        huber_delta: float = 1.0,
    ):
        """Importance-weighted Huber loss on the chosen actions' Q values.

        Returns (mean loss, gradients as a FlatParams, |td error| per sample).
        Every call returns new gradient arrays.
        """
        q, cache = self.forward_cached(obs)
        batch = q.shape[0]
        rows = np.arange(batch)
        delta = q[rows, actions] - targets
        abs_delta = np.abs(delta)
        quadratic = abs_delta <= huber_delta
        loss_per = np.where(
            quadratic, 0.5 * delta**2, huber_delta * (abs_delta - 0.5 * huber_delta)
        )
        loss = float(np.mean(weights * loss_per))
        dq = np.zeros_like(q)
        dq[rows, actions] = weights * np.clip(delta, -huber_delta, huber_delta) / batch
        return loss, self.backward(cache, dq), abs_delta

    # -- copies ------------------------------------------------------------

    def clone(self) -> "DuelingQNetwork":
        dup = DuelingQNetwork.__new__(DuelingQNetwork)
        dup.obs_dim = self.obs_dim
        dup.hidden = self.hidden
        dup.n_actions = self.n_actions
        dup.params = FlatParams(self.params.flat.copy(), self.params.shapes)
        return dup

    def copy_from(self, other: "DuelingQNetwork") -> None:
        self.params.flat[...] = other.params.flat


class Adam:
    """Standard Adam with bias correction over one flat parameter vector.

    The moments and two scratch vectors are allocated once; a step is a fixed
    sequence of in-place ufuncs over FlatParams.flat, in the order of the
    per-tensor formula p -= lr * (m / b1t) / (sqrt(v / b2t) + eps).

    A bias correction 1 - beta**t rounds to exactly 1.0 once beta**t <= 2**-54
    (for the default betas, b1t from t = 356 and b2t from t = 37,412 on).
    From then on its divide pass is skipped: x / 1.0 is x, so the step's
    bytes are unchanged.
    """

    def __init__(self, params: FlatParams, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        size = params.flat.size
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._num = np.empty(size)
        self._den = np.empty(size)

    def step(self, params: FlatParams, grads: FlatParams) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        p, g, m, v = params.flat, grads.flat, self.m, self.v
        num, den = self._num, self._den
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=num)
        m += num
        v *= self.beta2
        np.square(g, out=num)
        num *= 1.0 - self.beta2
        v += num
        if b1t == 1.0:
            np.multiply(m, self.lr, out=num)
        else:
            np.divide(m, b1t, out=num)
            num *= self.lr
        if b2t == 1.0:
            np.sqrt(v, out=den)
        else:
            np.divide(v, b2t, out=den)
            np.sqrt(den, out=den)
        den += self.eps
        num /= den
        p -= num


# -- checkpoint format -------------------------------------------------------
#
# magic (8 bytes) | version u32 | obs_dim u32 | n_hidden u32 | hidden dims u32...
# | n_actions u32 | the flat parameter vector as little-endian float64 (layers
# in params order, each in C order). Written atomically (temp file then rename).


def save_checkpoint(net: DuelingQNetwork, path: str | Path) -> None:
    path = Path(path)
    header = CHECKPOINT_MAGIC + struct.pack(
        f"<3I{len(net.hidden)}II",
        CHECKPOINT_VERSION,
        net.obs_dim,
        len(net.hidden),
        *net.hidden,
        net.n_actions,
    )
    payload = net.params.flat.astype("<f8", copy=False).tobytes()
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(header + payload)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> DuelingQNetwork:
    raw = Path(path).read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) + 4 or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic, not a checkpoint")
    off = len(CHECKPOINT_MAGIC)
    (version,) = struct.unpack_from("<I", raw, off)
    off += 4
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: checkpoint version {version}, this build reads {CHECKPOINT_VERSION}"
        )
    try:
        obs_dim, n_hidden = struct.unpack_from("<2I", raw, off)
        off += 8
        hidden = struct.unpack_from(f"<{n_hidden}I", raw, off)
        off += 4 * n_hidden
        (n_act,) = struct.unpack_from("<I", raw, off)
        off += 4
    except struct.error as exc:
        raise CheckpointFormatError(f"{path}: truncated header") from exc
    net = DuelingQNetwork(obs_dim, hidden, n_act, rng=None)
    expected = net.params.flat.size * 8
    if len(raw) - off != expected:
        raise CheckpointFormatError(
            f"{path}: parameter payload is {len(raw) - off} bytes, expected {expected}"
        )
    net.params.flat[...] = np.frombuffer(raw, dtype="<f8", offset=off)
    return net

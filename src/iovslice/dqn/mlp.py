"""Dueling Q-network as a plain numpy MLP, with Adam and a binary checkpoint format.

ReLU hidden stack feeding two linear heads: a scalar state value and one
advantage per action, combined as Q = V + A - mean(A). All parameters live in
one contiguous float64 vector with per-layer views, so an Adam step, a target
copy and a checkpoint read or write each touch that one vector. Everything is
float64 and single-threaded so a seed pins training bit-for-bit. The network's
passes, a row's greedy action and Adam's step each run as one call into
`_kernels.c` where `kernels` builds it, and as numpy code elsewhere; the
header of `_kernels.c` says why both paths write the same bytes.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
from pathlib import Path

import numpy as np

from . import kernels

CHECKPOINT_MAGIC = b"IOVDQNCK"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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


def _param_shapes(obs_dim: int, hidden: tuple[int, ...], n_actions: int) -> list[tuple[int, ...]]:
    """Shapes of [W1, b1, ..., Wk, bk, Wv, bv, Wa, ba] in parameter order, as
    Python ints, so a size can be checked before anything is allocated."""
    dims = [obs_dim, *hidden]
    shapes: list[tuple[int, ...]] = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    last = hidden[-1]
    return shapes + [(last, 1), (1,), (last, n_actions), (n_actions,)]  # value, advantage heads


class DuelingQNetwork:
    """MLP with hidden ReLU layers and dueling value/advantage heads.

    Parameters live in self.params, a FlatParams of per-layer views
    [W1, b1, ..., Wk, bk, Wv, bv, Wa, ba] into the one vector
    self.params.flat; weight matrices are (in, out). `loss_and_grads` is the
    one training entry: it keeps each hidden activation of its forward pass
    and backpropagates through them, returning gradients in the same layout.

    Each pass converts its input once to one form, and both paths refuse
    any other alike: C-contiguous float64 rows of obs_dim columns; to train,
    a nonempty batch of them with an integer action in [0, n_actions), a
    float64 target and weight per row, and a float huber_delta. Then
    `kernels.blas()` alone picks the C pass or the numpy one.
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
        shapes = _param_shapes(obs_dim, self.hidden, n_actions)
        self.params = FlatParams(np.zeros(sum(math.prod(s) for s in shapes)), shapes)
        if rng is not None:  # He-normal weights, drawn layer by layer; biases stay zero
            for w in self.params[::2]:
                w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
        self._buffers: _Buffers | None = None  # the C passes' buffers, made on their first call

    # -- inference -------------------------------------------------------

    def forward(self, obs: np.ndarray) -> np.ndarray:
        """Q values for one observation row (1-D) or a batch of rows (2-D).
        A row is a one-row batch: its Q equals forward(obs[None])[0] bit for bit."""
        x = self._observations(obs, (1, 2))
        lib = kernels.blas()
        if lib is None:
            return self._forward(x)
        rows, at = (len(x), slice(len(x))) if x.ndim == 2 else (1, 0)  # a row is row 0 of a one-row batch
        buf = self._buffers_for(lib, rows)
        buf.x[at] = x
        lib.dueling_forward(buf.address, rows)
        return buf.q[at].copy()

    def greedy_action(self, obs: np.ndarray) -> int:
        """int(self.forward(obs).argmax()) of one observation row: the
        lowest index among the largest Q values, or the first NaN, in one
        call of `_kernels.c` on the kernels. A `forward` replaced on the
        class (a subclass, or a wrapper such as a tracer's) is called."""
        x = self._observations(obs, (1,))
        lib = kernels.blas()
        if lib is None or type(self).forward is not _FORWARD:
            return int(self.forward(x).argmax())
        buf = self._buffers_for(lib, 1)
        buf.x[0] = x
        return lib.dueling_greedy(buf.address)

    def _observations(self, obs: object, ranks: tuple[int, ...]) -> np.ndarray:
        x = np.asarray(obs, dtype=np.float64, order="C")
        if x.ndim not in ranks or x.shape[-1] != self.obs_dim:
            raise ValueError(f"obs {x.shape}: greedy_action takes a row of {self.obs_dim}, loss_and_grads a batch")
        return x

    def _buffers_for(self, lib, rows: int) -> "_Buffers":
        """Buffers for `rows` rows of the C passes, made anew when the
        parameter vector is not the one they point to or holds fewer rows."""
        buf = self._buffers
        if buf is None or buf.rows < rows or buf.flat is not self.params.flat:
            buf = self._buffers = _Buffers(lib, self, max(rows, buf.rows if buf is not None else 0))
        return buf

    def _forward(self, x: np.ndarray, acts: list | None = None) -> np.ndarray:
        """The one layer loop, returning Q; appends each hidden activation to
        `acts` when given one."""
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
        return v + a - a.sum(axis=-1, keepdims=True) / self.n_actions

    # -- gradients ---------------------------------------------------------

    def _backward(self, acts: list, dq: np.ndarray) -> FlatParams:
        """Gradients for every parameter given dLoss/dQ and the forward pass's
        activations [x, h1, ..., hk], in a fresh FlatParams with the layout of
        self.params."""
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
        huber_delta: float,
    ):
        """Importance-weighted Huber loss on the chosen actions' Q values.

        Returns (mean loss, gradients as a FlatParams, |td error| per sample).
        Every call returns new gradient arrays.
        """
        x = self._observations(obs, (2,))
        batch = len(x)
        actions = np.asarray(actions)
        targets = np.asarray(targets, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (batch and actions.dtype.kind in "iu" and actions.shape == targets.shape == weights.shape == (batch,)):
            raise ValueError(
                f"{batch} rows, {actions.dtype} actions {actions.shape}, targets {targets.shape}, weights"
                f" {weights.shape}: a batch takes one or more rows and an integer action, target and weight each"
            )
        huber_delta = float(huber_delta)
        lib = kernels.blas()
        if lib is not None:
            buf = self._buffers_for(lib, batch)
            buf.x[:batch] = x
            buf.actions[:batch] = actions
            buf.targets[:batch] = targets
            buf.weights[:batch] = weights
            grads = FlatParams(np.empty(self.params.flat.size), self.params.shapes)
            row = lib.dueling_loss_and_grads(buf.address, batch, huber_delta, grads.flat.ctypes.data)
        else:  # the C pass's own check: the first row outside
            outside = (actions < 0) | (actions >= self.n_actions)
            row = int(outside.argmax()) if outside.any() else -1
        if row >= 0:
            raise IndexError(f"action {actions[row]} of row {row} is outside [0, {self.n_actions})")
        if lib is not None:
            return buf.net.loss, grads, buf.abs_delta[:batch].copy()
        acts = [x]
        q = self._forward(x, acts)
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
        return loss, self._backward(acts, dq), abs_delta

    # -- copies ------------------------------------------------------------

    def clone(self) -> "DuelingQNetwork":
        dup = DuelingQNetwork(self.obs_dim, self.hidden, self.n_actions)
        dup.params.flat[...] = self.params.flat
        return dup

    def copy_from(self, other: "DuelingQNetwork") -> None:
        self.params.flat[...] = other.params.flat


_FORWARD = DuelingQNetwork.forward  # the one `greedy_action` may run in C


class _Buffers:
    """One network's `kernels.Net` and the arrays it points to, for `rows`
    rows: the inputs a call copies in, the outputs it copies out, and the
    passes' scratch. Their addresses are resolved here, once."""

    def __init__(self, lib, net: DuelingQNetwork, rows: int):
        self.flat, self.rows = net.params.flat, rows
        self.x = np.empty((rows, net.obs_dim))
        self.q = np.empty((rows, net.n_actions))
        self.actions = np.empty(rows, dtype=np.int64)
        self.targets, self.weights, self.abs_delta = np.empty(rows), np.empty(rows), np.empty(rows)
        self.dims = np.array([net.obs_dim, *net.hidden, net.n_actions], dtype=np.int64)
        arrays = ("dims", "x", "q", "actions", "targets", "weights", "abs_delta")
        self.net = kernels.Net(
            n_hidden=len(net.hidden),
            params=self.flat.ctypes.data,
            rows=rows,
            **{name: getattr(self, name).ctypes.data for name in arrays},
        )
        self.address = ctypes.addressof(self.net)
        self.scratch = np.empty(lib.dueling_scratch_size(self.address))
        self.net.scratch = self.scratch.ctypes.data


class Adam:
    """Standard Adam with bias correction over one flat parameter vector.

    A step is the per-tensor formula p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
    over FlatParams.flat, in one pass of `_kernels.c` that reads and writes
    each element once and skips the subnormal arithmetic of first moments
    stuck at a fixed point of m * beta1, with the same bytes (`_kernels.c`'s
    header says why). Where `kernels.library` builds nothing it is a fixed
    sequence of in-place ufuncs over two scratch vectors, allocated on its
    first step.

    The moment decay rates and eps are ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.
    A bias correction 1 - beta**t rounds to exactly 1.0 once beta**t <= 2**-54
    (b1t from t = 356 and b2t from t = 37,412 on).
    From then on its divide is skipped: x / 1.0 is x, so the step's
    bytes are unchanged.
    """

    def __init__(self, params: FlatParams, lr: float):
        self.lr = lr
        self.t = 0
        size = params.flat.size
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, params: FlatParams, grads: FlatParams) -> None:
        p, g, m, v = params.flat, grads.flat, self.m, self.v
        for a in (p, g):  # the kernels read raw memory; both paths take this one form
            if a.dtype != np.float64 or a.shape != m.shape or not a.flags.c_contiguous:
                raise ValueError(f"Adam needs contiguous float64 vectors of {m.size} parameters")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        lib = kernels.library()
        if lib is not None:
            lib.adam_step(
                p.ctypes.data, m.ctypes.data, v.ctypes.data, g.ctypes.data, m.size,
                ADAM_BETA1, 1.0 - ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA2, self.lr, b1t, b2t, ADAM_EPS,
            )
            return
        if self._scratch is None:
            self._scratch = (np.empty(m.size), np.empty(m.size))
        num, den = self._scratch
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=num)
        m += num
        v *= ADAM_BETA2
        np.square(g, out=num)
        num *= 1.0 - ADAM_BETA2
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
        den += ADAM_EPS
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
    if n_hidden < 1:
        raise CheckpointFormatError(f"{path}: header lists no hidden layer")
    if 0 in hidden:
        raise CheckpointFormatError(f"{path}: header lists a zero-width hidden layer {hidden}")
    # checked before the network is built, so absurd header dims allocate nothing
    expected = 8 * sum(math.prod(s) for s in _param_shapes(obs_dim, hidden, n_act))
    if len(raw) - off != expected:
        raise CheckpointFormatError(
            f"{path}: parameter payload is {len(raw) - off} bytes, expected {expected}"
        )
    params = np.frombuffer(raw, dtype="<f8", offset=off)
    if not np.isfinite(params).all():
        raise CheckpointFormatError(f"{path}: parameter payload holds a non-finite value")
    net = DuelingQNetwork(obs_dim, hidden, n_act, rng=None)
    net.params.flat[...] = params
    return net

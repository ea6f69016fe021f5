"""A from-scratch bidirectional LSTM regressor.

Two stacked bidirectional LSTM layers feed a dense head. Each direction runs
the standard LSTM recurrences

    i_t = sigmoid(x_t Wx_i + h_{t-1} Wh_i + b_i)
    f_t = sigmoid(x_t Wx_f + h_{t-1} Wh_f + b_f)
    g_t = tanh   (x_t Wx_g + h_{t-1} Wh_g + b_g)
    o_t = sigmoid(x_t Wx_o + h_{t-1} Wh_o + b_o)
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

with the four gate blocks stored stacked column-wise in order [i, f, g, o].
Layer 1 consumes the input window; its per-step forward/backward states are
concatenated (2H features per step) and fed to layer 2. The head consumes
each direction's final processed state of layer 2: the forward state at the
last step and the backward state at the first step. Gradients come from full
backpropagation through time; updates use Adam. Everything is float64 numpy
and fully deterministic for a fixed seed and BLAS thread count. Importing
the package sets one BLAS thread, unless the environment already names a
count or numpy was imported first (README, "Determinism").

Both directions of a layer run as one stacked recurrence, after Appleyard et
al., "Optimizing Performance of Recurrent Neural Networks on GPUs"
(arXiv:1604.01946). The backward direction is fed the time-reversed input,
so at each step s both directions take one (2, B, H) @ (2, H, 4H) matmul;
the input projection for the whole window is one GEMM per direction before
the loop. All four gates come from a single tanh over the (2, B, 4H) block,
using sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 on the i/f/o columns (the halving
is folded into the weights, which is exact). Per-step caches are arrays indexed
[direction, step, batch, unit], each direction in its own processing order;
the gates are activated in place in the pre-activation buffer, and BPTT
overwrites them with the gate gradients so that the weight and input
gradients are whole-sequence GEMMs after the loop. The stacking happens per
call: parameters stay in the named ``params`` dict (``l1_fwd_Wx``, ...), and
the .npz model format is unchanged.

Appleyard et al. also run the two directions' independent work at once. Here
that work is the whole-sequence GEMMs, which release the GIL, and three pairs
of them run at once (``_both``): one half on the calling thread, the other on
one module-level helper thread that serves every model. Per layer, the
caller stacks direction 0's input into the ``c`` role and projects it while
the helper does the same for direction 1 in the ``h`` role (taken at one
direction's input size when that is larger than the hidden states); after
BPTT the caller takes both dWx GEMMs in the ``c`` role while the helper
writes both dWh into a fresh (2, H, 4H) array; and for layer 2's input
gradient the caller writes direction 0's into ``c`` and the helper direction
1's into ``h``. ``_both`` returns only once both halves have ended, so no
half writes a role after the caller moves on. Each GEMM still runs whole, on
one BLAS thread, with the same operands, so the bytes do not depend on the
helper. A pair whose smaller half has fewer than ``_MIN_OVERLAP`` = 2**21
multiply-adds runs on the caller: on 2 vCPUs with OpenBLAS on one thread,
two (1920, 100) @ (100, 200) GEMMs took 1.72 ms at once against 3.23 ms in
turn and two (1920, 8) @ (8, 200) 0.39 against 0.73 ms, while two
(160, 8) @ (8, 200), 256k multiply-adds each, took 49 against 25 us.

Every batch-sized array lives in the model's scratch arena (``_Arena``): one
grow-only float64 buffer per role, each call carving its arrays from the
front, so a training step allocates only parameter-sized arrays (the stacked
weights and the gradients). Per layer it holds the gates, cell states (``c``)
and hidden states; besides those, the head's input and the per-step scratch
of the recurrence and of BPTT, which includes tanh(c): BPTT recomputes it
from ``c``. No role holds a stacked layer input: each direction's input (the
window, or layer 1's states side by side) is rebuilt whenever a GEMM reads
it, in a role that holds nothing live: in ``c`` and ``h`` before the
recurrence writes them (input projection), and in ``c`` after BPTT has read
it for the last time (dWx). Dead roles are reused: layer 2's input gradient
goes to its ``c`` (direction 0) and ``h`` (direction 1) roles, and layer 1's
output gradient over layer 2's gates (dZ, once both input-gradient GEMMs have
read it). The head reads only layer 2's last step, so layer 2's BPTT takes
that one step's output gradient and no (2, w, B, H) buffer of zeros. ``c``
and ``h`` zero only their initial state; every other value is written before
it is read. forward and predict run in the same arena, so validation inside
``train`` reuses the training buffers; ``train`` empties the arena when it
returns, and a model keeps the buffers of its largest later forward chunk
until the next ``train`` or until it is dropped. The arena is not saved in
the .npz and not shown in the model's repr. Because of it, one model must not
run on two threads at once; separate models may, and share the one helper.
"""

from __future__ import annotations

import json
import math
import os
from concurrent import futures
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyTrainingSetError,
    InvalidShapeError,
    NonFiniteLossError,
    ShapeMismatchError,
    ZeroVarianceError,
    check_field_types,
)
from . import evalmetrics
from .dataset import check_split

LAYERS = ("l1", "l2")
DIRECTIONS = ("fwd", "bwd")
MODEL_FORMAT_VERSION = 2
_TRAINED_ON = ("split_ratio", "fit_scope", "columns")  # __meta__ keys from format 2: what train fitted on
_MIN_OVERLAP = 2**21  # multiply-adds per half below which _both runs both halves on the caller


def _start_helper() -> None:
    global _HELPER
    _HELPER = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="sentistock-gemm")


_start_helper()
os.register_at_fork(after_in_child=_start_helper)  # a forked child has no helper thread


def _both(job, work: int) -> None:
    """Run job(1) on the helper thread and job(0) on the caller; ``work`` is the smaller
    half's multiply-adds. Returns, or raises the caller's error, else the helper's, only
    once both halves have ended."""
    if work < _MIN_OVERLAP:
        job(0)
        job(1)
        return
    helper = _HELPER.submit(job, 1)
    try:
        job(0)
    finally:
        futures.wait([helper])
    helper.result()


@dataclass
class ModelConfig:
    """Architecture and initialization parameters; each field holds exactly its annotation's type."""

    hidden_units: int = 50
    input_shape: tuple[int, int] = (60, 5)  # (lookback, n_features)
    seed: int = 0

    def __post_init__(self):
        """ValueError for a wrong type or a negative seed, InvalidShapeError for a dimension below 1."""
        check_field_types(self)
        if len(self.input_shape) != 2:
            raise ValueError(f"input_shape must be a pair of integers, not {self.input_shape!r}")
        if self.seed < 0:  # numpy's generators reject a negative seed
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if self.hidden_units < 1:
            raise InvalidShapeError(f"hidden_units must be >= 1, not {self.hidden_units}")
        w, n_features = self.input_shape
        if w < 1 or n_features < 1:
            raise InvalidShapeError(f"input_shape dims must be >= 1, not {self.input_shape}")


@dataclass
class TrainConfig:
    """Optimization parameters."""

    epochs: int = 100
    batch_size: int = 32
    validation_split: float = 0.1
    patience: int = 10
    learning_rate: float = 1e-3

    def __post_init__(self):
        check_field_types(self)
        for name, least in (("epochs", 1), ("batch_size", 1), ("patience", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, not {getattr(self, name)!r}")
        if not 0.0 <= self.validation_split <= 0.5:
            raise ValueError(f"validation_split must lie in [0, 0.5], not {self.validation_split!r}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, not {self.learning_rate!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, not {self.learning_rate!r}")


class _Arena:
    """Grow-only float64 scratch: one flat buffer per role, arrays carved from its front.

    Arrays taken are not zeroed, and are overwritten by the next taker of their role.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if role not in self._buffers or self._buffers[role].size < size:
            self._buffers.pop(role, None)  # free the smaller buffer before growing
            self._buffers[role] = np.empty(size)
        return self._buffers[role][:size].reshape(shape)

    def reset(self) -> None:
        self._buffers.clear()


@dataclass
class BiLstmModel:
    """Named parameter tensors plus the configuration that shaped them."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    trained_on: dict = field(default_factory=dict)  # the _TRAINED_ON keys its file records, if any
    _arena: _Arena = field(default_factory=_Arena, init=False, repr=False, compare=False)


@dataclass
class TrainingHistory:
    """Per-epoch metric record with the early-stopping outcome."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_r2: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)


def _layer_dims(config: ModelConfig, layer: str) -> int:
    """Input feature count of a layer."""
    return config.input_shape[1] if layer == "l1" else 2 * config.hidden_units


def init_model(config: ModelConfig) -> BiLstmModel:
    """Create a model with seeded Glorot-uniform weights.

    Biases start at 0 except the forget-gate block, which starts at 1.
    Identical configs (same seed) produce bit-identical parameters.
    """
    rng = np.random.default_rng(config.seed)
    H = config.hidden_units
    params: dict[str, np.ndarray] = {}
    for layer in LAYERS:
        in_dim = _layer_dims(config, layer)
        for direction in DIRECTIONS:
            limit_x = math.sqrt(6.0 / (in_dim + H))
            limit_h = math.sqrt(6.0 / (H + H))
            params[f"{layer}_{direction}_Wx"] = rng.uniform(-limit_x, limit_x, (in_dim, 4 * H))
            params[f"{layer}_{direction}_Wh"] = rng.uniform(-limit_h, limit_h, (H, 4 * H))
            b = np.zeros(4 * H)
            b[H : 2 * H] = 1.0  # forget gate
            params[f"{layer}_{direction}_b"] = b
    limit = math.sqrt(6.0 / (2 * H + 1))
    params["head_W"] = rng.uniform(-limit, limit, (2 * H, 1))
    params["head_b"] = np.zeros(1)
    return BiLstmModel(config=config, params=params)


def _gate_affine(H: int) -> tuple[np.ndarray, np.ndarray]:
    """Column scale and shift that turn one tanh into the [i, f, g, o] gates.

    sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 on the i/f/o blocks; g is a plain
    tanh. Halving is exact in floating point, so it is folded into the weights.
    """
    scale = np.full(4 * H, 0.5)
    scale[2 * H : 3 * H] = 1.0
    shift = np.full(4 * H, 0.5)
    shift[2 * H : 3 * H] = 0.0
    return scale, shift


class _LayerCache(NamedTuple):
    """Per-step state of one layer, direction-major and in processing order.

    Index [d, s] is direction d at its s-th step; the backward direction's
    step s is input time w - 1 - s. ``c`` and ``h`` carry a leading zero state,
    so step s reads [d, s] and writes [d, s + 1].
    """

    inputs: tuple[np.ndarray, ...]  # time-major (w, B, .) pieces of the input, side by side
    gates: np.ndarray  # (2, w, B, 4H) activated gates; BPTT overwrites them with dZ
    c: np.ndarray  # (2, w + 1, B, H) cell states, at the front of c_role; BPTT recomputes their tanh
    h: np.ndarray  # (2, w + 1, B, H) hidden states
    c_role: np.ndarray  # flat, holding c or one direction's (w, B, in) input, whichever is live


def _direction_input(inputs, d: int, in_dim: int, buffer: np.ndarray) -> np.ndarray:
    """Direction d's input as a (w * B, in_dim) matrix written at the front of a flat buffer:
    the time-major ``inputs`` side by side, time-reversed for the backward direction."""
    w, B, _ = inputs[0].shape
    x = buffer[: w * B * in_dim].reshape(w, B, in_dim)
    np.concatenate([part[::-1] for part in inputs] if d else inputs, axis=2, out=x)
    return x.reshape(w * B, in_dim)


def _layer_forward(inputs, Wx, Wh, b, arena: _Arena, layer: str) -> _LayerCache:
    """Run both directions of one layer over its input, the time-major (w, B, .)
    ``inputs`` side by side.

    Wx (2, in, 4H), Wh (2, H, 4H) and b (2, 4H) stack the forward and backward
    direction's parameters, so both directions advance together: one (2, B, H)
    @ (2, H, 4H) matmul and one tanh over the (2, B, 4H) gate block per step.
    Direction 0's input is stacked into the cell-state role and direction 1's
    into the hidden-state role, before the recurrence writes them, and the two
    input-projection GEMMs run at once (``_both``). The cache is carved from
    the arena's roles for ``layer``.
    """
    w, B = inputs[0].shape[:2]
    H = Wh.shape[1]
    scale, shift = _gate_affine(H)
    gates = arena.take(f"{layer}_gates", (2, w, B, 4 * H))
    in_dim = Wx.shape[1]
    c_role, h_role = (arena.take(f"{layer}_{role}", (max(2 * (w + 1) * B * H, w * B * in_dim),))
                      for role in ("c", "h"))
    Wx_scaled = Wx * scale
    _both(lambda d: np.matmul(_direction_input(inputs, d, in_dim, (c_role, h_role)[d]), Wx_scaled[d],
                              out=gates[d].reshape(w * B, 4 * H)), w * B * in_dim * 4 * H)
    gates += (b * scale)[:, None, None, :]
    Wh_scaled = Wh * scale
    c, h = (role[: 2 * (w + 1) * B * H].reshape(2, w + 1, B, H) for role in (c_role, h_role))
    c[:, 0] = 0.0
    h[:, 0] = 0.0
    tc = arena.take("tanh_c", (2, B, H))
    recurrent = arena.take("recurrent", (2, B, 4 * H))
    ig = arena.take("ig", (2, B, H))
    for s in range(w):
        z = gates[:, s]
        z += np.matmul(h[:, s], Wh_scaled, out=recurrent)
        np.tanh(z, out=z)
        z *= scale
        z += shift
        c_new = np.multiply(z[..., H : 2 * H], c[:, s], out=c[:, s + 1])
        c_new += np.multiply(z[..., :H], z[..., 2 * H : 3 * H], out=ig)
        np.multiply(z[..., 3 * H :], np.tanh(c_new, out=tc), out=h[:, s + 1])
    return _LayerCache(inputs, gates, c, h, c_role)


def _layer_backward(cache: _LayerCache, dh_last, Wh, arena: _Arena):
    """BPTT through both directions of a layer.

    dh_last (2, k, B, H) is the gradient of each direction's output at its
    last k processed steps, indexed like the cache; the outputs of the steps
    before those get no gradient from above (k = w for layer 1, whose every
    output feeds layer 2, and k = 1 for layer 2, whose last outputs feed the
    head). Overwrites ``cache.gates`` with the gate pre-activation gradients
    dZ, and ``cache.c`` with the input of each direction in turn, stacked
    again for its dWx GEMM once the loop has read c for the last time. The
    caller runs both dWx GEMMs while the helper runs both dWh GEMMs.
    Returns (dWx, dWh, db), each stacked over directions.
    """
    inputs, dz_all, c, h, c_role = cache
    _, w, B, H4 = dz_all.shape
    H = H4 // 4
    first_fed = w - dh_last.shape[1]
    # tanh'(g) = (1 - g)(1 + g) and sigmoid'(z) = s(1 - s): (1 - a)(a + g_cols)
    g_cols = np.zeros(4 * H)
    g_cols[2 * H : 3 * H] = 1.0
    Wh_T = np.ascontiguousarray(Wh.transpose(0, 2, 1))  # matmul on the view: other bytes, slower
    upstream = arena.take("upstream", (2, B, 4 * H))
    one_minus = arena.take("one_minus", (2, B, 4 * H))
    tc, dh, dc, dtanh, dh_carry, dc_carry = (arena.take(role, (2, B, H)) for role in (
        "tanh_c", "dh", "dc", "dtanh", "dh_carry", "dc_carry"))
    dh_carry[...] = 0.0
    dc_carry[...] = 0.0
    for s in range(w - 1, -1, -1):
        z = dz_all[:, s]
        i, f, g, o = (z[..., k * H : (k + 1) * H] for k in range(4))
        np.tanh(c[:, s + 1], out=tc)
        if s >= first_fed:
            np.add(dh_last[:, s - first_fed], dh_carry, out=dh)
        else:  # the float operation of adding a zero output gradient
            np.add(dh_carry, 0.0, out=dh)
        np.multiply(dh, o, out=dc)
        np.multiply(tc, tc, out=dtanh)
        dc *= np.subtract(1.0, dtanh, out=dtanh)
        dc += dc_carry
        np.multiply(dc, f, out=dc_carry)
        np.multiply(dc, g, out=upstream[..., :H])
        np.multiply(dc, c[:, s], out=upstream[..., H : 2 * H])
        np.multiply(dc, i, out=upstream[..., 2 * H : 3 * H])
        np.multiply(dh, tc, out=upstream[..., 3 * H :])
        np.subtract(1.0, z, out=one_minus)
        z += g_cols
        z *= one_minus
        z *= upstream
        np.matmul(z, Wh_T, out=dh_carry)
    dz = dz_all.reshape(2, w * B, 4 * H)
    in_dim = sum(part.shape[2] for part in inputs)
    dWx, dWh = np.empty((2, in_dim, 4 * H)), np.empty((2, H, 4 * H))

    def job(half):
        for d in range(2):
            if half:
                np.matmul(h[d, :w].reshape(w * B, H).T, dz[d], out=dWh[d])
            else:
                np.matmul(_direction_input(inputs, d, in_dim, c_role).T, dz[d], out=dWx[d])

    _both(job, 2 * w * B * min(in_dim, H) * 4 * H)
    return dWx, dWh, dz.sum(axis=1)


def _input_gradient(cache: _LayerCache, Wx) -> np.ndarray:
    """The (2, w, B, in / 2) output gradient of the layer below, after _layer_backward.

    Indexed like that layer's cache, each direction in its processing order.
    Direction 0's input gradient is written over ``cache.c`` and direction 1's
    over ``cache.h`` (dWx and dWh have been taken), and the result over
    ``cache.gates``, whose dZ both GEMMs have read; all three are dead by then.
    The two GEMMs run at once.
    """
    _, w, B, H4 = cache.gates.shape
    in_dim = Wx.shape[1]
    Wx_T = np.ascontiguousarray(Wx.transpose(0, 2, 1))  # the view gives other bytes at some shapes
    dx0, dx1 = (buffer[: w * B * in_dim].reshape(w, B, in_dim) for buffer in (cache.c_role, cache.h.reshape(-1)))
    _both(lambda d: np.matmul(cache.gates[d].reshape(w * B, H4), Wx_T[d],
                              out=(dx0, dx1)[d].reshape(w * B, in_dim)), w * B * H4 * in_dim)
    # time-major input gradient dx0 + dx1[::-1], split by the lower layer's direction
    half = in_dim // 2
    dh_lower = cache.gates.reshape(-1)[: 2 * w * B * half].reshape(2, w, B, half)
    np.add(dx0[..., :half], dx1[::-1, ..., :half], out=dh_lower[0])
    np.add(dx0[::-1, ..., half:], dx1[..., half:], out=dh_lower[1])
    return dh_lower


def _check_batch(model: BiLstmModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    w, n_features = model.config.input_shape
    if X.ndim != 3 or X.shape[1] != w or X.shape[2] != n_features:
        raise ShapeMismatchError(
            f"expected batch of shape (B, {w}, {n_features}), got {X.shape}"
        )
    return X


def _stacked(p: dict[str, np.ndarray], layer: str, name: str) -> np.ndarray:
    return np.stack([p[f"{layer}_{direction}_{name}"] for direction in DIRECTIONS])


def _forward_full(model: BiLstmModel, X: np.ndarray):
    p = model.params
    arena = model._arena
    B = X.shape[0]
    H = model.config.hidden_units
    caches = {}
    inputs = (X.transpose(1, 0, 2),)
    for layer in LAYERS:
        cache = caches[layer] = _layer_forward(
            inputs, _stacked(p, layer, "Wx"), _stacked(p, layer, "Wh"), _stacked(p, layer, "b"),
            arena, layer,
        )
        # the next layer reads this one's time-major states, forward half then backward half
        inputs = (cache.h[0, 1:], cache.h[1, :0:-1])
    # each direction's last processed state: forward at t = w-1, backward at t = 0
    terminal = np.concatenate([cache.h[0, -1], cache.h[1, -1]], axis=1,
                              out=arena.take("terminal", (B, 2 * H)))
    caches["terminal"] = terminal
    pred = (terminal @ p["head_W"] + p["head_b"])[:, 0]
    return pred, caches


def forward(model: BiLstmModel, X) -> np.ndarray:
    """Forward pass over a (B, w, n_features) batch; returns (B,) predictions."""
    X = _check_batch(model, X)
    if X.shape[0] == 0:
        return np.zeros(0)
    pred, _ = _forward_full(model, X)
    return pred


def predict(model: BiLstmModel, X: np.ndarray, chunk_size: int = 64) -> np.ndarray:
    """Forward pass over a (B, w, F) batch of windows, in chunks of ``chunk_size`` windows.

    The arena keeps its largest chunk's size, so chunks of the training batch (as validation and
    ``harness.evaluate_model`` use) keep it within a training step's. With numpy's OpenBLAS, chunk
    sizes that are multiples of 8 gave every window its one-pass bytes; 7 or 50 can move the last bit."""
    X = _check_batch(model, X)
    if X.shape[0] == 0:
        return np.zeros(0)
    parts = [forward(model, X[k : k + chunk_size]) for k in range(0, X.shape[0], chunk_size)]
    return np.concatenate(parts)


def loss_and_gradients(model: BiLstmModel, X, y) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared-error loss and its gradient for every parameter."""
    X = _check_batch(model, X)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0] or y.shape[0] < 1:
        raise ShapeMismatchError(f"{X.shape[0]} samples vs {y.shape[0]} targets")
    B = X.shape[0]
    p = model.params
    H = model.config.hidden_units

    pred, caches = _forward_full(model, X)
    residual = pred - y
    loss = float(np.mean(residual**2))
    dpred = 2.0 * residual / B

    grads = {}
    terminal = caches["terminal"]
    dz = dpred[:, None]
    grads["head_W"] = terminal.T @ dz
    grads["head_b"] = dz.sum(axis=0)
    dterminal = dz @ p["head_W"].T

    # the head reads only the top layer's last processed step
    dh_last = dterminal.reshape(B, 2, 1, H).transpose(1, 2, 0, 3)
    for layer in reversed(LAYERS):
        dWx, dWh, db = _layer_backward(caches[layer], dh_last, _stacked(p, layer, "Wh"), model._arena)
        for d, direction in enumerate(DIRECTIONS):
            grads[f"{layer}_{direction}_Wx"] = dWx[d]
            grads[f"{layer}_{direction}_Wh"] = dWh[d]
            grads[f"{layer}_{direction}_b"] = db[d]
        if layer != LAYERS[0]:
            dh_last = _input_gradient(caches[layer], _stacked(p, layer, "Wx"))
    return loss, grads


class _Adam:
    """Adam update rule over a named parameter dict."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, learning_rate):
        self.lr = learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = np.empty((2, max(v.size for v in params.values())))

    def step(self, params, grads):
        """Update m, v and the parameters in place, with the float operations of
        m = BETA1 * m + (1 - BETA1) * g, v = BETA2 * v + (1 - BETA2) * g * g and
        params -= lr * (m / correct1) / (sqrt(v / correct2) + EPS), in that order."""
        self.t += 1
        correct1 = 1.0 - self.BETA1**self.t
        correct2 = 1.0 - self.BETA2**self.t
        for key, g in grads.items():
            m, v = self.m[key], self.v[key]
            a, b = (buffer[: g.size].reshape(g.shape) for buffer in self._scratch)
            m *= self.BETA1
            m += np.multiply(g, 1.0 - self.BETA1, out=a)
            v *= self.BETA2
            np.multiply(g, 1.0 - self.BETA2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, correct1, out=a)
            a *= self.lr
            np.divide(v, correct2, out=b)
            np.sqrt(b, out=b)
            b += self.EPS
            params[key] -= np.divide(a, b, out=a)


def _safe_r2(pred, actual) -> float:
    if len(pred) < 2:
        return float("nan")
    try:
        return evalmetrics.r2(pred, actual)
    except ZeroVarianceError:
        return float("nan")


def train(model: BiLstmModel, windows, cfg: TrainConfig) -> TrainingHistory:
    """Fit the model in place on a WindowedSet; returns the per-epoch history.

    The validation set is the chronological tail of the windows
    (ceil(validation_split * n) samples). Mini-batches preserve order, so a
    run is fully determined by (model, data, config). Training stops early
    after `patience` epochs without a new best validation loss (patience 0
    stops at the first non-improving epoch) and the best epoch's parameters
    are restored. The model's scratch arena is emptied when it returns.
    """
    X = _check_batch(model, windows.X)
    y = np.asarray(windows.y, dtype=float).reshape(-1)
    n = y.shape[0]
    if n == 0:
        raise EmptyTrainingSetError("no training windows")
    n_val = math.ceil(cfg.validation_split * n)
    n_train = n - n_val
    if n_train < 1:
        raise EmptyTrainingSetError(f"validation split {cfg.validation_split} leaves no training samples")
    X_train, y_train = X[:n_train], y[:n_train]
    X_val, y_val = X[n_train:], y[n_train:]

    optimizer = _Adam(model.params, cfg.learning_rate)
    history = TrainingHistory()
    best_monitor = np.inf
    best_params = None
    bad_streak = 0
    stop_after = max(cfg.patience, 1)

    try:
        for epoch in range(cfg.epochs):
            loss_sum = 0.0
            for start in range(0, n_train, cfg.batch_size):
                xb = X_train[start : start + cfg.batch_size]
                yb = y_train[start : start + cfg.batch_size]
                loss, grads = loss_and_gradients(model, xb, yb)
                if not np.isfinite(loss):
                    raise NonFiniteLossError(epoch)
                optimizer.step(model.params, grads)
                del grads  # so that two steps' gradients are never live at once
                loss_sum += loss * len(yb)
            train_loss = loss_sum / n_train
            for value in model.params.values():
                if not np.all(np.isfinite(value)):
                    raise NonFiniteLossError(epoch, f"non-finite parameter at epoch {epoch}")

            if n_val > 0:
                val_pred = predict(model, X_val, chunk_size=cfg.batch_size)  # arena stays batch-sized
                val_loss = float(np.mean((val_pred - y_val) ** 2))
                val_r2 = _safe_r2(val_pred, y_val)
            else:
                val_loss = val_r2 = float("nan")
            history.train_loss.append(train_loss)
            history.val_loss.append(val_loss)
            history.val_r2.append(val_r2)

            monitor = val_loss if n_val > 0 else train_loss
            if monitor < best_monitor:
                best_monitor = monitor
                history.best_epoch = epoch
                best_params = {k: v.copy() for k, v in model.params.items()}
                bad_streak = 0
            else:
                bad_streak += 1
                if bad_streak >= stop_after:
                    history.stopped_early = True
                    break
    finally:
        model._arena.reset()

    if best_params is not None:
        model.params = best_params
    return history


def save_model(model: BiLstmModel, path: str | Path) -> None:
    """Save as a versioned .npz at exactly ``path``, or raise ValueError if load_model would not read it back."""
    config = model.config
    meta_text = json.dumps({
        "format_version": MODEL_FORMAT_VERSION,
        "hidden_units": config.hidden_units,
        "input_shape": list(config.input_shape),
        "activation": "tanh",
        "output_head": "linear",
        "seed": config.seed,
        **model.trained_on,
    })
    if _read_meta(path, meta_text)[1].keys() != model.trained_on.keys():  # a core key or an unknown one
        raise ValueError(f"model file {path}: trained_on keys {list(model.trained_on)} not all in {_TRAINED_ON}")
    with open(path, "wb") as fh:  # given a path, np.savez would append .npz to it
        np.savez(fh, __meta__=np.array(meta_text), **model.params)


def _read_meta(path: str | Path, meta_text: str) -> tuple[ModelConfig, dict]:
    """The config and ``trained_on`` of ``__meta__`` text; ValueError naming ``path`` if load_model refuses."""
    try:
        meta = json.loads(meta_text)
        if not isinstance(meta, dict):
            raise ValueError("__meta__ is not a JSON object")
        if meta.get("format_version") not in (1, MODEL_FORMAT_VERSION):
            raise ValueError(f"unsupported model format {meta.get('format_version')}")
        if meta.get("activation") != "tanh":
            raise ValueError(f"unsupported activation {meta.get('activation')!r}")
        if meta.get("output_head") != "linear":
            raise ValueError(f"unsupported output head {meta.get('output_head')!r}")
        lacking = [key for key in ("hidden_units", "input_shape", "seed") if key not in meta]
        if lacking:
            raise ValueError(f"__meta__ lacks {', '.join(lacking)}")
        shape = meta["input_shape"]
        config = ModelConfig(hidden_units=meta["hidden_units"], seed=meta["seed"],
                             input_shape=tuple(shape) if type(shape) is list else shape)
        check_split(**{k: meta[k] for k in _TRAINED_ON[:2] if k in meta})  # a key the file lacks passes
        columns = meta.get("columns")
        if "columns" in meta and not (type(columns) is list and config.input_shape[1] == len(columns)
                                      == len({c for c in columns if type(c) is str})):  # distinct strings
            raise ValueError(f"columns must be {config.input_shape[1]} distinct strings, not {columns!r}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"model file {path}: __meta__ is not JSON: {exc}") from exc
    except (ValueError, InvalidShapeError) as exc:  # ModelConfig's too
        raise ValueError(f"model file {path}: {exc}") from exc
    return config, {k: meta[k] for k in _TRAINED_ON if k in meta}


def load_model(path: str | Path) -> BiLstmModel:
    """Load a model saved by save_model, checking its parameters against ``init_model``'s for
    its config: ValueError names the file and a missing or bad ``__meta__`` (not a JSON object,
    a format other than 1 and 2, a missing key, or a value ModelConfig, check_split or the columns
    check reject), or any missing, unexpected, non-float or non-finite parameter; InvalidShapeError
    a parameter of another shape, with both shapes. ``trained_on`` holds the keys the file records."""
    with np.load(path, allow_pickle=False) as data:
        if "__meta__" not in data.files:
            raise ValueError(f"model file {path} has no __meta__")
        meta_text = str(data["__meta__"])
        params = {k: data[k].copy() for k in data.files if k != "__meta__"}
    config, trained_on = _read_meta(path, meta_text)
    expected = init_model(config).params
    wrong_keys = [f"{what} {', '.join(sorted(keys))}" for what, keys in (
        ("lacks", expected.keys() - params.keys()), ("has unexpected", params.keys() - expected.keys())) if keys]
    if wrong_keys:
        raise ValueError(f"model file {path} {' and '.join(wrong_keys)}")
    for key, value in params.items():
        if value.shape != expected[key].shape:
            raise InvalidShapeError(f"model file {path}: {key} has shape {value.shape}, "
                                    f"expected {expected[key].shape}")
        if value.dtype.kind != "f" or not np.isfinite(value).all():
            raise ValueError(f"model file {path}: {key} holds non-finite or non-float values")
    return BiLstmModel(config=config, params=params, trained_on=trained_on)

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
and fully deterministic for a fixed seed.

Both directions of a layer run as one stacked recurrence, after Appleyard et
al., "Optimizing Performance of Recurrent Neural Networks on GPUs"
(arXiv:1604.01946). The backward direction is fed the time-reversed input,
so at each step s both directions take one (2, B, H) @ (2, H, 4H) matmul;
the input projection for the whole window is one GEMM before the loop. All
four gates come from a single tanh over the (2, B, 4H) block, using
sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 on the i/f/o columns (the halving is
folded into the weights, which is exact). Per-step caches are arrays indexed
[direction, step, batch, unit], each direction in its own processing order;
the gates are activated in place in the pre-activation buffer, and BPTT
overwrites them with the gate gradients so that the weight and input
gradients are whole-sequence GEMMs after the loop. The stacking happens per
call: parameters stay in the named ``params`` dict (``l1_fwd_Wx``, ...), and
the .npz model format is unchanged.
"""

from __future__ import annotations

import json
import math
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
)
from . import evalmetrics

LAYERS = ("l1", "l2")
DIRECTIONS = ("fwd", "bwd")
MODEL_FORMAT_VERSION = 1


@dataclass
class ModelConfig:
    """Architecture and initialization parameters."""

    hidden_units: int = 50
    input_shape: tuple[int, int] = (60, 5)  # (lookback, n_features)
    output_head: str = "linear"
    n_bins: int = 10  # softmax_bins head only
    seed: int = 0

    def __post_init__(self):
        if self.hidden_units < 1:
            raise InvalidShapeError(f"hidden_units must be >= 1, got {self.hidden_units}")
        w, n_features = self.input_shape
        if w < 1 or n_features < 1:
            raise InvalidShapeError(f"input_shape dims must be >= 1, got {self.input_shape}")
        if self.output_head not in ("linear", "softmax_bins"):
            raise ValueError(f"unknown output head {self.output_head!r}")
        if self.output_head == "softmax_bins" and self.n_bins < 2:
            raise InvalidShapeError("softmax_bins head needs n_bins >= 2")


@dataclass
class TrainConfig:
    """Optimization parameters."""

    epochs: int = 100
    batch_size: int = 32
    validation_split: float = 0.1
    patience: int = 10
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.validation_split <= 0.5:
            raise ValueError("validation_split must lie in [0, 0.5]")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


@dataclass
class BiLstmModel:
    """Named parameter tensors plus the configuration that shaped them."""

    config: ModelConfig
    params: dict[str, np.ndarray]


@dataclass
class TrainingHistory:
    """Per-epoch metric record with the early-stopping outcome."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_r2: list[float] = field(default_factory=list)
    val_mae: list[float] = field(default_factory=list)
    val_rmse: list[float] = field(default_factory=list)
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
    out_dim = 1 if config.output_head == "linear" else config.n_bins
    limit = math.sqrt(6.0 / (2 * H + out_dim))
    params["head_W"] = rng.uniform(-limit, limit, (2 * H, out_dim))
    params["head_b"] = np.zeros(out_dim)
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

    x: np.ndarray  # (2, w, B, in) input, time-reversed for direction 1
    gates: np.ndarray  # (2, w, B, 4H) activated gates; BPTT overwrites them with dZ
    c: np.ndarray  # (2, w + 1, B, H) cell states
    tanh_c: np.ndarray  # (2, w, B, H)
    h: np.ndarray  # (2, w + 1, B, H) hidden states


def _layer_forward(x, Wx, Wh, b) -> _LayerCache:
    """Run both directions of one layer over time-major (w, B, in) input.

    Wx (2, in, 4H), Wh (2, H, 4H) and b (2, 4H) stack the forward and
    backward direction's parameters. The backward direction reads the input
    time-reversed, so both advance together: one (2, B, H) @ (2, H, 4H)
    matmul and one tanh over the (2, B, 4H) gate block per step.
    """
    w, B, in_dim = x.shape
    H = Wh.shape[1]
    scale, shift = _gate_affine(H)
    xs = np.stack([x, x[::-1]])
    gates = np.matmul(xs.reshape(2, w * B, in_dim), Wx * scale).reshape(2, w, B, 4 * H)
    gates += (b * scale)[:, None, None, :]
    Wh_scaled = Wh * scale
    c = np.zeros((2, w + 1, B, H))
    h = np.zeros((2, w + 1, B, H))
    tanh_c = np.empty((2, w, B, H))
    recurrent = np.empty((2, B, 4 * H))
    for s in range(w):
        z = gates[:, s]
        z += np.matmul(h[:, s], Wh_scaled, out=recurrent)
        np.tanh(z, out=z)
        z *= scale
        z += shift
        c_new = np.multiply(z[..., H : 2 * H], c[:, s], out=c[:, s + 1])
        c_new += z[..., :H] * z[..., 2 * H : 3 * H]
        np.multiply(z[..., 3 * H :], np.tanh(c_new, out=tanh_c[:, s]), out=h[:, s + 1])
    return _LayerCache(xs, gates, c, tanh_c, h)


def _layer_backward(cache: _LayerCache, dh_out, Wh):
    """BPTT through both directions of a layer.

    dh_out (2, w, B, H) is the gradient of each direction's output, indexed
    like the cache. Overwrites ``cache.gates`` with the gate pre-activation
    gradients dZ. Returns (dWx, dWh, db), each stacked over directions.
    """
    xs, dz_all, c, tanh_c, h = cache
    _, w, B, H4 = dz_all.shape
    H = H4 // 4
    # tanh'(g) = (1 - g)(1 + g) and sigmoid'(z) = s(1 - s): (1 - a)(a + g_cols)
    g_cols = np.zeros(4 * H)
    g_cols[2 * H : 3 * H] = 1.0
    Wh_T = np.ascontiguousarray(Wh.transpose(0, 2, 1))
    upstream = np.empty((2, B, 4 * H))
    dh_carry = np.zeros((2, B, H))
    dc_carry = np.zeros((2, B, H))
    for s in range(w - 1, -1, -1):
        z = dz_all[:, s]
        i, f, g, o = (z[..., k * H : (k + 1) * H] for k in range(4))
        tc = tanh_c[:, s]
        dh = dh_out[:, s] + dh_carry
        dc = dh * o
        dc *= 1.0 - tc * tc
        dc += dc_carry
        dc_carry = dc * f
        np.multiply(dc, g, out=upstream[..., :H])
        np.multiply(dc, c[:, s], out=upstream[..., H : 2 * H])
        np.multiply(dc, i, out=upstream[..., 2 * H : 3 * H])
        np.multiply(dh, tc, out=upstream[..., 3 * H :])
        one_minus = 1.0 - z
        z += g_cols
        z *= one_minus
        z *= upstream
        np.matmul(z, Wh_T, out=dh_carry)
    dz = dz_all.reshape(2, w * B, 4 * H)
    dWx = np.matmul(xs.reshape(2, w * B, xs.shape[-1]).transpose(0, 2, 1), dz)
    dWh = np.matmul(h[:, :w].reshape(2, w * B, H).transpose(0, 2, 1), dz)
    return dWx, dWh, dz.sum(axis=1)


def _input_gradient(cache: _LayerCache, Wx) -> np.ndarray:
    """Time-major (w, B, in) gradient of a layer's input, after _layer_backward."""
    _, w, B, H4 = cache.gates.shape
    dz = cache.gates.reshape(2, w * B, H4)
    dxs = np.matmul(dz, np.ascontiguousarray(Wx.transpose(0, 2, 1))).reshape(2, w, B, -1)
    return dxs[0] + dxs[1, ::-1]


def _check_batch(model: BiLstmModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    w, n_features = model.config.input_shape
    if X.ndim != 3 or X.shape[1] != w or X.shape[2] != n_features:
        raise ShapeMismatchError(
            f"expected batch of shape (B, {w}, {n_features}), got {X.shape}"
        )
    return X


def _head_forward(model: BiLstmModel, terminal: np.ndarray):
    """Map the (B, 2H) terminal state to scalar predictions.

    The softmax_bins head turns logits into a distribution over n_bins
    bucket centers spaced evenly in [0, 1] and predicts its expectation.
    Returns (pred, softmax probabilities or None).
    """
    z = terminal @ model.params["head_W"] + model.params["head_b"]
    if model.config.output_head == "linear":
        return z[:, 0], None
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    centers = _bin_centers(model.config.n_bins)
    return p @ centers, p


def _bin_centers(n_bins: int) -> np.ndarray:
    return (np.arange(n_bins) + 0.5) / n_bins


def _stacked(p: dict[str, np.ndarray], layer: str, name: str) -> np.ndarray:
    return np.stack([p[f"{layer}_{direction}_{name}"] for direction in DIRECTIONS])


def _forward_full(model: BiLstmModel, X: np.ndarray, keep_cache: bool):
    p = model.params
    caches = {}
    layer_in = X.transpose(1, 0, 2)
    for layer in LAYERS:
        cache = _layer_forward(
            layer_in, _stacked(p, layer, "Wx"), _stacked(p, layer, "Wh"), _stacked(p, layer, "b")
        )
        if keep_cache:
            caches[layer] = cache
        # time-major (w, B, 2H) states for the next layer: forward half, backward half
        layer_in = np.concatenate([cache.h[0, 1:], cache.h[1, :0:-1]], axis=2)
    # each direction's last processed state: forward at t = w-1, backward at t = 0
    terminal = np.concatenate([cache.h[0, -1], cache.h[1, -1]], axis=1)
    pred, softmax_p = _head_forward(model, terminal)
    if keep_cache:
        caches["terminal"] = terminal
        caches["softmax_p"] = softmax_p
    return pred, caches


def forward(model: BiLstmModel, X) -> np.ndarray:
    """Pure forward pass over a (B, w, n_features) batch; returns (B,) predictions."""
    X = _check_batch(model, X)
    if X.shape[0] == 0:
        return np.zeros(0)
    pred, _ = _forward_full(model, X, keep_cache=False)
    return pred


def predict(model: BiLstmModel, windows, chunk_size: int = 512) -> np.ndarray:
    """Forward pass over a WindowedSet or raw batch array, in chunks."""
    X = windows.X if hasattr(windows, "X") else windows
    X = _check_batch(model, np.asarray(X, dtype=float))
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

    pred, caches = _forward_full(model, X, keep_cache=True)
    residual = pred - y
    loss = float(np.mean(residual**2))
    dpred = 2.0 * residual / B

    grads = {}
    terminal = caches["terminal"]
    if model.config.output_head == "linear":
        dz = dpred[:, None]
    else:
        sm = caches["softmax_p"]
        centers = _bin_centers(model.config.n_bins)
        dz = dpred[:, None] * sm * (centers[None, :] - pred[:, None])
    grads["head_W"] = terminal.T @ dz
    grads["head_b"] = dz.sum(axis=0)
    dterminal = dz @ p["head_W"].T

    w = model.config.input_shape[0]
    dh_out = np.zeros((2, w, B, H))
    dh_out[:, -1] = dterminal.reshape(B, 2, H).transpose(1, 0, 2)
    for layer in reversed(LAYERS):
        Wx = _stacked(p, layer, "Wx")
        dWx, dWh, db = _layer_backward(caches[layer], dh_out, _stacked(p, layer, "Wh"))
        for d, direction in enumerate(DIRECTIONS):
            grads[f"{layer}_{direction}_Wx"] = dWx[d]
            grads[f"{layer}_{direction}_Wh"] = dWh[d]
            grads[f"{layer}_{direction}_b"] = db[d]
        if layer != LAYERS[0]:
            # the lower layer's outputs, split by direction into processing order
            dx = _input_gradient(caches[layer], Wx)
            dh_out = np.stack([dx[:, :, :H], dx[::-1, :, H:]])
    return loss, grads


class _Adam:
    """Adam update rule over a named parameter dict."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for key, g in grads.items():
            m = self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * g
            v = self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * g * g
            params[key] -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


def _safe_r2(pred, actual) -> float:
    if len(pred) < 2:
        return float("nan")
    try:
        return evalmetrics.r2(pred, actual)
    except ZeroVarianceError:
        return float("nan")


def train(model: BiLstmModel, windows, cfg: TrainConfig) -> TrainingHistory:
    """Fit the model in place; returns the per-epoch history.

    The validation set is the chronological tail of the windows
    (ceil(validation_split * n) samples). Mini-batches preserve order, so a
    run is fully determined by (model, data, config). Training stops early
    after `patience` epochs without a new best validation loss (patience 0
    stops at the first non-improving epoch) and the best epoch's parameters
    are restored.
    """
    X = windows.X if hasattr(windows, "X") else np.asarray(windows[0], dtype=float)
    y = windows.y if hasattr(windows, "y") else np.asarray(windows[1], dtype=float)
    X = _check_batch(model, X)
    y = np.asarray(y, dtype=float).reshape(-1)
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

    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        for start in range(0, n_train, cfg.batch_size):
            xb = X_train[start : start + cfg.batch_size]
            yb = y_train[start : start + cfg.batch_size]
            loss, grads = loss_and_gradients(model, xb, yb)
            if not np.isfinite(loss):
                raise NonFiniteLossError(epoch)
            optimizer.step(model.params, grads)
            loss_sum += loss * len(yb)
        train_loss = loss_sum / n_train
        for value in model.params.values():
            if not np.all(np.isfinite(value)):
                raise NonFiniteLossError(epoch, f"non-finite parameter at epoch {epoch}")

        if n_val > 0:
            val_pred = predict(model, X_val)
            val_loss = float(np.mean((val_pred - y_val) ** 2))
            val_mae = evalmetrics.mae(val_pred, y_val)
            val_rmse = evalmetrics.rmse(val_pred, y_val)
            val_r2 = _safe_r2(val_pred, y_val)
        else:
            val_loss = val_mae = val_rmse = val_r2 = float("nan")
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        history.val_mae.append(val_mae)
        history.val_rmse.append(val_rmse)
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

    if best_params is not None:
        model.params = best_params
    return history


def save_model(model: BiLstmModel, path: str | Path) -> None:
    """Persist parameters and config as a versioned .npz container."""
    config = model.config
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "hidden_units": config.hidden_units,
        "input_shape": list(config.input_shape),
        "activation": "tanh",
        "output_head": config.output_head,
        "n_bins": config.n_bins,
        "seed": config.seed,
    }
    np.savez(path, __meta__=np.array(json.dumps(meta)), **model.params)


def load_model(path: str | Path) -> BiLstmModel:
    """Load a model saved by save_model."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        if meta.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format {meta.get('format_version')}")
        if meta.get("activation") != "tanh":
            raise ValueError(f"unsupported activation {meta.get('activation')!r}")
        params = {k: data[k].copy() for k in data.files if k != "__meta__"}
    config = ModelConfig(
        hidden_units=meta["hidden_units"],
        input_shape=tuple(meta["input_shape"]),
        output_head=meta["output_head"],
        n_bins=meta["n_bins"],
        seed=meta["seed"],
    )
    return BiLstmModel(config=config, params=params)

import json
import math
import multiprocessing
import os
import re
import sys
import threading
import time
import tracemalloc
from concurrent import futures

import numpy as np
import pytest

from sentistock import harness, neuralnet, synth
from sentistock.dataset import WindowedSet
from sentistock.evalmetrics import validation_score
from sentistock.errors import (
    EmptyTrainingSetError,
    InvalidShapeError,
    NonFiniteLossError,
    ShapeMismatchError,
)
from sentistock.neuralnet import (
    BiLstmModel,
    ModelConfig,
    TrainConfig,
    _Adam,
    _Arena,
    _layer_forward,
    forward,
    init_model,
    load_model,
    loss_and_gradients,
    predict,
    save_model,
    train,
)


# ---------------------------------------------------------------------------
# Scalar reference implementation: plain-float transcription of the LSTM
# equations, independent of the vectorized code under test.
# ---------------------------------------------------------------------------

def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def ref_direction(xs, Wx, Wh, b, reverse):
    """xs: list of w input vectors. Returns hidden states aligned to input time."""
    H = Wh.shape[0]
    w = len(xs)
    h = [0.0] * H
    c = [0.0] * H
    out = [None] * w
    order = range(w - 1, -1, -1) if reverse else range(w)
    for t in order:
        x = xs[t]
        z = [
            sum(x[a] * Wx[a][j] for a in range(len(x)))
            + sum(h[a] * Wh[a][j] for a in range(H))
            + b[j]
            for j in range(4 * H)
        ]
        i = [_sig(z[j]) for j in range(H)]
        f = [_sig(z[H + j]) for j in range(H)]
        g = [math.tanh(z[2 * H + j]) for j in range(H)]
        o = [_sig(z[3 * H + j]) for j in range(H)]
        c = [f[j] * c[j] + i[j] * g[j] for j in range(H)]
        h = [o[j] * math.tanh(c[j]) for j in range(H)]
        out[t] = h
    return out


def ref_forward(model, sample):
    """Full two-layer bidirectional forward for one (w, features) sample."""
    p = model.params
    xs = [list(row) for row in sample]
    for layer in ("l1", "l2"):
        fwd = ref_direction(xs, p[f"{layer}_fwd_Wx"], p[f"{layer}_fwd_Wh"], p[f"{layer}_fwd_b"], False)
        bwd = ref_direction(xs, p[f"{layer}_bwd_Wx"], p[f"{layer}_bwd_Wh"], p[f"{layer}_bwd_b"], True)
        xs = [fwd[t] + bwd[t] for t in range(len(xs))]
        terminal = fwd[-1] + bwd[0]
    return sum(terminal[a] * p["head_W"][a][0] for a in range(len(terminal))) + p["head_b"][0]


def random_batch(config, n, seed):
    rng = np.random.default_rng(seed)
    w, feat = config.input_shape
    return rng.uniform(0, 1, (n, w, feat)), rng.uniform(0, 1, n)


class TestInitModel:
    def test_same_seed_bit_identical(self):
        cfg = ModelConfig(hidden_units=4, input_shape=(5, 3), seed=9)
        a, b = init_model(cfg), init_model(cfg)
        assert a.params.keys() == b.params.keys()
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])

    def test_shapes(self):
        model = init_model(ModelConfig(hidden_units=4, input_shape=(5, 3), seed=0))
        # stacked gate matrices: 4 gate blocks of width H each
        assert model.params["l1_fwd_Wx"].shape == (3, 16)
        assert model.params["l1_fwd_Wh"].shape == (4, 16)
        assert model.params["l1_fwd_b"].shape == (16,)
        assert model.params["l2_bwd_Wx"].shape == (8, 16)
        assert model.params["head_W"].shape == (8, 1)

    def test_forget_gate_bias_one(self):
        model = init_model(ModelConfig(hidden_units=3, input_shape=(4, 2), seed=0))
        b = model.params["l1_fwd_b"]
        np.testing.assert_array_equal(b[3:6], 1.0)
        np.testing.assert_array_equal(b[:3], 0.0)
        np.testing.assert_array_equal(b[6:], 0.0)

    def test_zero_hidden_rejected(self):
        with pytest.raises(InvalidShapeError):
            ModelConfig(hidden_units=0, input_shape=(5, 3))

    def test_bad_input_shape_rejected(self):
        with pytest.raises(InvalidShapeError):
            ModelConfig(hidden_units=2, input_shape=(0, 3))

    @pytest.mark.parametrize("changes, message", [
        ({"hidden_units": 4.0}, "hidden_units must be an integer, not 4.0"),
        ({"hidden_units": True}, "hidden_units must be an integer, not True"),
        ({"seed": "0"}, "seed must be an integer, not '0'"),
        ({"seed": -1}, "seed must be >= 0, not -1"),
        ({"input_shape": (5,)}, "input_shape must be a pair of integers, not (5,)"),
        ({"input_shape": [5, 3]}, "input_shape must be a pair of integers, not [5, 3]"),
        ({"input_shape": (5, np.int64(3))}, "input_shape must be a pair of integers"),
        ({"input_shape": (3, 4, 5)}, "input_shape must be a pair of integers, not (3, 4, 5)"),
    ])
    def test_value_types_checked(self, changes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelConfig(**{"hidden_units": 2, "input_shape": (5, 3), **changes})


class TestForward:
    def test_zero_parameters_emit_bias(self):
        model = init_model(ModelConfig(hidden_units=3, input_shape=(4, 2), seed=0))
        for key in model.params:
            model.params[key] = np.zeros_like(model.params[key])
        model.params["head_b"][:] = 0.37
        X = np.random.default_rng(0).uniform(-2, 2, (6, 4, 2))
        np.testing.assert_allclose(forward(model, X), 0.37, atol=1e-15)

    @pytest.mark.parametrize("hidden", [1, 4, 50])
    def test_empty_batch(self, hidden):
        model = init_model(ModelConfig(hidden_units=hidden, input_shape=(4, 2), seed=0))
        pred = forward(model, np.zeros((0, 4, 2)))
        assert pred.shape == (0,) and pred.dtype == np.float64

    def test_batch_order_preserved(self):
        model = init_model(ModelConfig(hidden_units=3, input_shape=(4, 2), seed=1))
        X, _ = random_batch(model.config, 7, seed=2)
        batch_pred = forward(model, X)
        single = np.array([forward(model, X[k : k + 1])[0] for k in range(7)])
        np.testing.assert_allclose(batch_pred, single, atol=1e-12)

    def test_hand_set_tiny_model_matches_reference(self):
        # hidden=1, w=2, 1 feature: every gate weight set explicitly
        model = init_model(ModelConfig(hidden_units=1, input_shape=(2, 1), seed=0))
        values = {
            "l1_fwd_Wx": [[0.5, -0.3, 0.8, 0.2]],
            "l1_fwd_Wh": [[0.1, 0.4, -0.2, 0.6]],
            "l1_fwd_b": [0.05, 1.0, -0.1, 0.2],
            "l1_bwd_Wx": [[-0.4, 0.7, 0.3, -0.6]],
            "l1_bwd_Wh": [[0.2, -0.5, 0.9, 0.1]],
            "l1_bwd_b": [0.0, 1.0, 0.3, -0.2],
            "l2_fwd_Wx": [[0.3, -0.1, 0.5, 0.2], [-0.2, 0.4, 0.1, -0.3]],
            "l2_fwd_Wh": [[0.15, 0.25, -0.35, 0.45]],
            "l2_fwd_b": [0.1, 1.0, 0.0, -0.1],
            "l2_bwd_Wx": [[-0.25, 0.35, 0.45, -0.15], [0.55, -0.45, 0.05, 0.65]],
            "l2_bwd_Wh": [[-0.05, 0.5, 0.3, -0.4]],
            "l2_bwd_b": [0.2, 1.0, -0.3, 0.4],
            "head_W": [[1.5], [-0.7]],
            "head_b": [0.25],
        }
        for key, value in values.items():
            model.params[key] = np.array(value, dtype=float)
        sample = np.array([[0.3], [-0.9]])
        expected = ref_forward(model, sample)
        got = forward(model, sample[None, :, :])[0]
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("hidden,w,feat", [(2, 3, 1), (3, 5, 4), (5, 2, 2)])
    def test_matches_reference_on_random_models(self, hidden, w, feat):
        model = init_model(ModelConfig(hidden_units=hidden, input_shape=(w, feat), seed=hidden))
        X, _ = random_batch(model.config, 3, seed=42 + hidden)
        got = forward(model, X)
        expected = [ref_forward(model, X[k]) for k in range(3)]
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_shape_mismatch(self):
        model = init_model(ModelConfig(hidden_units=2, input_shape=(4, 2), seed=0))
        with pytest.raises(ShapeMismatchError):
            forward(model, np.zeros((3, 4, 5)))

    def test_bidirectional_symmetry_single_layer(self):
        # reversing the input and swapping direction parameters permutes the
        # two halves of the final concatenated state
        rng = np.random.default_rng(31)
        H, w, feat = 3, 6, 2
        Wxf, Whf, bf = rng.normal(size=(feat, 4 * H)), rng.normal(size=(H, 4 * H)), rng.normal(size=4 * H)
        Wxb, Whb, bb = rng.normal(size=(feat, 4 * H)), rng.normal(size=(H, 4 * H)), rng.normal(size=4 * H)
        x = rng.normal(size=(2, w, feat))

        def terminal_of(x, first, second):
            # the stacked layer reads time-major input; direction 0 runs forward
            params = [np.stack([a, b]) for a, b in zip(first, second)]
            h = _layer_forward((x.transpose(1, 0, 2),), *params, _Arena(), "l1").h
            return np.concatenate([h[0, -1], h[1, -1]], axis=1)

        terminal = terminal_of(x, (Wxf, Whf, bf), (Wxb, Whb, bb))
        terminal_swapped = terminal_of(x[:, ::-1, :], (Wxb, Whb, bb), (Wxf, Whf, bf))

        np.testing.assert_allclose(
            terminal, np.concatenate([terminal_swapped[:, H:], terminal_swapped[:, :H]], axis=1),
            atol=1e-12,
        )


class TestLossAndGradients:
    def test_perfect_targets_zero_gradient(self):
        model = init_model(ModelConfig(hidden_units=2, input_shape=(3, 1), seed=3))
        X, _ = random_batch(model.config, 4, seed=3)
        y = forward(model, X)
        loss, grads = loss_and_gradients(model, X, y)
        assert loss == 0.0
        np.testing.assert_array_equal(grads["head_b"], 0.0)

    def test_residual_doubling_doubles_head_gradients(self):
        model = init_model(ModelConfig(hidden_units=2, input_shape=(3, 2), seed=4))
        X, _ = random_batch(model.config, 5, seed=4)
        pred = forward(model, X)
        rng = np.random.default_rng(8)
        residual = rng.uniform(0.1, 0.5, 5)
        _, grads1 = loss_and_gradients(model, X, pred - residual)
        _, grads2 = loss_and_gradients(model, X, pred - 2 * residual)
        np.testing.assert_allclose(grads2["head_W"], 2 * grads1["head_W"], atol=1e-10)
        np.testing.assert_allclose(grads2["l1_fwd_Wx"], 2 * grads1["l1_fwd_Wx"], atol=1e-10)

    @pytest.mark.parametrize("hidden,w", [
        pytest.param(2, 3, id="linear"),
        # edges of the reversed-time indexing: one step, one unit per gate
        pytest.param(2, 1, id="linear-w1"),
        pytest.param(1, 3, id="linear-h1"),
    ])
    def test_finite_difference_check(self, hidden, w):
        cfg = ModelConfig(hidden_units=hidden, input_shape=(w, 2), seed=12)
        model = init_model(cfg)
        X, y = random_batch(cfg, 3, seed=13)
        _, grads = loss_and_gradients(model, X, y)
        h = 1e-5
        for key, param in model.params.items():
            flat = param.ravel()
            grad_flat = grads[key].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = float(np.mean((forward(model, X) - y) ** 2))
                flat[idx] = orig - h
                down = float(np.mean((forward(model, X) - y) ** 2))
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                rel = abs(grad_flat[idx] - numeric) / max(abs(grad_flat[idx]), abs(numeric), 1e-5)
                assert rel < 1e-4, f"{key}[{idx}]: analytic {grad_flat[idx]}, numeric {numeric}"

    def test_shape_mismatch(self):
        model = init_model(ModelConfig(hidden_units=2, input_shape=(3, 2), seed=0))
        X, y = random_batch(model.config, 4, seed=0)
        with pytest.raises(ShapeMismatchError):
            loss_and_gradients(model, X, y[:3])

    def test_repeat_call_bit_identical(self):
        model = init_model(ModelConfig(hidden_units=3, input_shape=(5, 2), seed=2))
        X, y = random_batch(model.config, 4, seed=2)
        loss1, grads1 = loss_and_gradients(model, X, y)
        loss2, grads2 = loss_and_gradients(model, X, y)
        assert loss1 == loss2
        for key in grads1:
            np.testing.assert_array_equal(grads1[key], grads2[key])

    def test_inputs_and_parameters_unmodified(self):
        model = init_model(ModelConfig(hidden_units=3, input_shape=(5, 2), seed=6))
        X, y = random_batch(model.config, 4, seed=6)
        X_before = X.copy()
        params_before = {k: v.copy() for k, v in model.params.items()}
        forward(model, X)
        loss_and_gradients(model, X, y)
        np.testing.assert_array_equal(X, X_before)
        for key, value in params_before.items():
            np.testing.assert_array_equal(model.params[key], value)


def make_windows_for(n, w, feat, seed, target_fn=None):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, w, feat))
    if target_fn is None:
        y = rng.uniform(0, 1, n)
    else:
        y = target_fn(X)
    return WindowedSet(X=X, y=y, lookback=w)


class TestTrain:
    def small_model(self, w=4, feat=2, hidden=4, seed=0):
        return init_model(ModelConfig(hidden_units=hidden, input_shape=(w, feat), seed=seed))

    def test_patience_zero_stops_at_first_non_improvement(self):
        model = self.small_model()
        windows = make_windows_for(30, 4, 2, seed=1)
        cfg = TrainConfig(epochs=200, batch_size=8, validation_split=0.2, patience=0,
                          learning_rate=0.05)
        history = train(model, windows, cfg)
        assert history.stopped_early
        assert history.n_epochs == history.best_epoch + 2  # failing epoch recorded, then stop

    @pytest.mark.parametrize("patience", [1, 3])
    def test_early_stopping_bound(self, patience):
        model = self.small_model(seed=patience)
        windows = make_windows_for(30, 4, 2, seed=2)
        cfg = TrainConfig(epochs=300, batch_size=8, validation_split=0.2, patience=patience,
                          learning_rate=0.05)
        history = train(model, windows, cfg)
        if history.stopped_early:
            assert history.n_epochs - 1 <= history.best_epoch + patience
        assert history.n_epochs <= history.best_epoch + patience + 1 or not history.stopped_early

    def test_noiseless_linear_target_learns(self):
        # y is a fixed linear readout of the final input row
        model = self.small_model(w=3, feat=2, hidden=8, seed=7)
        target_fn = lambda X: 0.3 * X[:, -1, 0] + 0.5 * X[:, -1, 1]
        windows = make_windows_for(60, 3, 2, seed=3, target_fn=target_fn)
        initial_loss, _ = loss_and_gradients(model, windows.X, windows.y)
        cfg = TrainConfig(epochs=50, batch_size=16, validation_split=0.1, patience=50,
                          learning_rate=0.01)
        history = train(model, windows, cfg)
        assert history.train_loss[-1] < initial_loss

    def test_determinism(self):
        windows = make_windows_for(40, 4, 2, seed=5)
        cfg = TrainConfig(epochs=10, batch_size=8, validation_split=0.2, patience=10)
        h1 = train(self.small_model(seed=2), windows, cfg)
        h2 = train(self.small_model(seed=2), windows, cfg)
        assert h1 == h2

    @pytest.mark.parametrize("changes, message", [
        ({"epochs": 2.5}, "epochs must be an integer, not 2.5"),
        ({"batch_size": True}, "batch_size must be an integer, not True"),
        ({"learning_rate": "0.1"}, "learning_rate must be a number, not '0.1'"),
        ({"validation_split": None}, "validation_split must be a number, not None"),
        ({"batch_size": 0}, "batch_size must be >= 1, not 0"),
        ({"patience": -1}, "patience must be >= 0, not -1"),
        ({"validation_split": 0.7}, "validation_split must lie in [0, 0.5], not 0.7"),
        ({"learning_rate": 0.0}, "learning_rate must be > 0, not 0.0"),
        ({"validation_split": math.nan}, "validation_split must lie in [0, 0.5], not nan"),
    ], ids=["epochs-float", "batch_size-bool", "learning_rate-str", "validation_split-none",
            "batch_size-zero", "patience-negative", "validation_split-high", "learning_rate-zero",
            "validation_split-nan"])
    def test_config_value_errors_name_the_field(self, changes, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            TrainConfig(**changes)

    def test_empty_training_set(self):
        model = self.small_model()
        empty = WindowedSet(X=np.zeros((0, 4, 2)), y=np.zeros(0), lookback=4)
        with pytest.raises(EmptyTrainingSetError):
            train(model, empty, TrainConfig())

    def test_split_leaving_no_training_window(self):
        with pytest.raises(EmptyTrainingSetError,
                           match=re.escape("validation split 0.1 leaves no training samples") + "$"):
            train(self.small_model(), make_windows_for(1, 4, 2, seed=13), TrainConfig(validation_split=0.1))

    @pytest.mark.parametrize("n, split, constant", [(10, 0.1, False), (20, 0.2, True)],
                             ids=["one_window", "constant_target"])
    def test_undefined_validation_r2_is_nan(self, n, split, constant):
        """One validation window, or a constant validation target, has zero variance about
        its mean: every epoch's validation R^2 is NaN and the history has no validation score."""
        windows = make_windows_for(n, 4, 2, seed=11)
        if constant:
            windows.y[-4:] = 0.5  # validation_split 0.2: the last four windows
        history = train(self.small_model(), windows,
                        TrainConfig(epochs=3, batch_size=8, validation_split=split, patience=3))
        assert history.n_epochs == 3 and np.isfinite(history.val_loss).all()
        assert np.isnan(history.val_r2).all() and validation_score(history) is None

    def test_non_finite_parameter_raises_with_epoch(self, monkeypatch):
        """A step whose loss was finite but that leaves a NaN parameter stops training."""
        step = _Adam.step

        def nan_step(self, params, grads):
            step(self, params, grads)
            params["head_b"][0] = np.nan

        monkeypatch.setattr(_Adam, "step", nan_step)
        with pytest.raises(NonFiniteLossError, match="^non-finite parameter at epoch 0$") as exc:
            train(self.small_model(), make_windows_for(10, 4, 2, seed=14),
                  TrainConfig(epochs=2, batch_size=16, validation_split=0.0))
        assert exc.value.epoch == 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_raises_with_epoch(self):
        model = self.small_model()
        model.params["head_W"][0, 0] = np.inf
        windows = make_windows_for(20, 4, 2, seed=6)
        with pytest.raises(NonFiniteLossError) as exc:
            train(model, windows, TrainConfig(epochs=5))
        assert exc.value.epoch == 0

    def test_parameters_finite_after_training(self):
        model = self.small_model()
        windows = make_windows_for(30, 4, 2, seed=9)
        train(model, windows, TrainConfig(epochs=15, batch_size=8, learning_rate=0.05))
        for value in model.params.values():
            assert np.all(np.isfinite(value))

    def test_history_fields_populated(self):
        model = self.small_model()
        windows = make_windows_for(30, 4, 2, seed=10)
        history = train(model, windows, TrainConfig(epochs=5, patience=100))
        assert history.n_epochs == 5
        assert len(history.val_loss) == len(history.val_r2) == 5
        assert 0 <= history.best_epoch < 5


class TestPredict:
    def test_repeatable(self):
        model = init_model(ModelConfig(hidden_units=3, input_shape=(4, 2), seed=0))
        X, _ = random_batch(model.config, 6, seed=1)
        np.testing.assert_array_equal(predict(model, X), predict(model, X))

    def test_empty_windows(self):
        model = init_model(ModelConfig(hidden_units=3, input_shape=(4, 2), seed=0))
        assert predict(model, np.zeros((0, 4, 2))).size == 0

    def test_finite_predictions(self):
        model = init_model(ModelConfig(hidden_units=3, input_shape=(4, 2), seed=0))
        X, _ = random_batch(model.config, 10, seed=2)
        assert np.all(np.isfinite(predict(model, X)))


class ReferenceAdam:
    """The out-of-place Adam update: fresh m, v and step arrays every step."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
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


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def arena_bytes(model):
    return sum(buffer.nbytes for buffer in model._arena._buffers.values())


class TestScratchArena:
    def test_steady_state_step_allocates_little(self):
        # Paper shape: the caches live in the arena, so a second step allocates
        # only parameter-sized arrays (stacked weights and gradients).
        model = init_model(ModelConfig(hidden_units=50, input_shape=(60, 8), seed=0))
        X, y = random_batch(model.config, 32, seed=0)
        loss_and_gradients(model, X, y)
        tracemalloc.start()
        try:
            loss_and_gradients(model, X, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"second step peaked at {peak / 2**20:.2f} MiB"

    def test_paper_shape_epoch_peaks_below_the_cached_tanh(self):
        # One epoch of the benchmark's train_cell shape (212 windows, w=60, H=50, 8
        # features, B=32) peaks at 20.99 MiB; the bound lies below the 23.90 MiB
        # that a per-layer (2, w, B, H) cache of tanh(c) peaks at.
        cfg = harness.ExperimentConfig(hidden_units=50, epochs=1, batch_size=32)
        windows = harness.window(harness.prepare_cell(synth.sentiment_driven_master(340), cfg).train, 60)
        model = init_model(ModelConfig(hidden_units=50, input_shape=windows.X.shape[1:], seed=0))
        tracemalloc.start()
        try:
            train(model, windows, TrainConfig(epochs=1, batch_size=32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 22 * 2**20, f"one epoch peaked at {peak / 2**20:.2f} MiB"

    def test_batch_sizes_in_turn_match_fresh_models(self):
        model = init_model(ModelConfig(hidden_units=5, input_shape=(9, 3), seed=4))
        X, y = random_batch(model.config, 55, seed=4)
        shared = []
        for B in (32, 7, 22, 55):
            loss, grads = loss_and_gradients(model, X[:B], y[:B])
            shared.append((B, loss, grads, forward(model, X[:B])))
        # compared only now, so a later call must not have overwritten an earlier result
        for B, loss, grads, pred in shared:
            fresh = BiLstmModel(model.config, {k: v.copy() for k, v in model.params.items()})
            fresh_loss, fresh_grads = loss_and_gradients(fresh, X[:B], y[:B])
            assert same_bytes(loss, fresh_loss), B
            assert grads.keys() == fresh_grads.keys()
            for key in grads:
                assert same_bytes(grads[key], fresh_grads[key]), (B, key)
            fresh = BiLstmModel(model.config, {k: v.copy() for k, v in model.params.items()})
            assert same_bytes(pred, forward(fresh, X[:B])), B

    def test_top_layer_gets_only_its_last_step_gradient(self):
        # Paper shape. The arena holds no (2, w, B, H) output gradient for the top
        # layer, 2 * 60 * 32 * 50 * 8 bytes = 1.46 MiB below the 25.70 MiB it took with one,
        # no stacked layer inputs, which the cell-state roles hold in turn, and no
        # per-layer tanh of the cell states, which BPTT recomputes in one step role.
        w, B, H, F = 60, 32, 50, 8
        model = init_model(ModelConfig(hidden_units=H, input_shape=(w, F), seed=0))
        X, y = random_batch(model.config, B, seed=0)
        loss, grads = loss_and_gradients(model, X, y)
        layer_state = 2 * w * B * 4 * H + 2 * 2 * (w + 1) * B * H  # gates, c, h
        step_scratch = 3 * 2 * B * 4 * H + 7 * 2 * B * H  # recurrent, upstream, one_minus; tanh_c, ig, dh, ...
        head = B * 2 * H
        expected = 8 * (2 * layer_state + step_scratch + head)
        assert arena_bytes(model) == expected == 19_046_400
        assert not {"l1_tanh_c", "l2_tanh_c"} & model._arena._buffers.keys()
        again = loss_and_gradients(model, X, y)
        fresh_model = BiLstmModel(model.config, {k: v.copy() for k, v in model.params.items()})
        fresh = loss_and_gradients(fresh_model, X, y)
        for other_loss, other_grads in (again, fresh):
            assert same_bytes(loss, other_loss)
            assert other_grads.keys() == grads.keys()
            for key in grads:
                assert same_bytes(grads[key], other_grads[key]), key

    def test_last_step_gradient_equals_zero_padded_one(self):
        # _layer_backward given the last k steps' output gradient gives the bytes it
        # gives for the whole (2, w, B, H) gradient with zeros on the earlier steps.
        model = init_model(ModelConfig(hidden_units=6, input_shape=(9, 3), seed=1))
        X, _ = random_batch(model.config, 10, seed=1)
        rng = np.random.default_rng(2)
        for layer, k in (("l2", 1), ("l2", 4), ("l1", 9)):
            dh_last = rng.normal(size=(2, k, 10, 6))
            padded = np.zeros((2, 9, 10, 6))
            padded[:, 9 - k :] = dh_last
            results = []
            for dh in (padded, dh_last):
                _, caches = neuralnet._forward_full(model, X)
                results.append(neuralnet._layer_backward(
                    caches[layer], dh, neuralnet._stacked(model.params, layer, "Wh"), model._arena))
            for expected, got in zip(*results):
                assert same_bytes(expected, got), (layer, k)

    SHAPES = [(60, 32, 50, 8), (20, 32, 50, 8), (5, 6, 4, 8), (3, 7, 1, 8), (1, 1, 2, 3), (7, 16, 3, 5)]

    @pytest.mark.parametrize("w,B,H,F", SHAPES)
    def test_layer_inputs_live_in_the_cell_state_roles(self, w, B, H, F):
        # No role holds a stacked layer input; a cell-state role grows to one
        # direction's (w, B, in) input only when that is larger than its cell states
        # (H = 1, F = 8), and the arena stays below the sum of the roles it had when
        # it held both directions' inputs of both layers.
        model = init_model(ModelConfig(hidden_units=H, input_shape=(w, F), seed=0))
        X, y = random_batch(model.config, B, seed=1)
        loss_and_gradients(model, X, y)
        roles = {role: buffer.size for role, buffer in model._arena._buffers.items()}
        assert not {"l1_x", "l2_x"} & roles.keys()
        c_size = 2 * (w + 1) * B * H
        assert roles["l1_c"] == max(c_size, w * B * F) and roles["l2_c"] == c_size
        layer_state = 2 * w * B * 4 * H + 2 * c_size + 2 * w * B * H
        step_scratch = 3 * 2 * B * 4 * H + 6 * 2 * B * H
        stacked_inputs = 2 * w * B * F + 2 * w * B * 2 * H
        held_before = 8 * (2 * layer_state + step_scratch + stacked_inputs + B * 2 * H)
        assert arena_bytes(model) < held_before

    @pytest.mark.parametrize("w,B,H,F", SHAPES)
    def test_per_direction_gemms_equal_the_stacked_ones(self, w, B, H, F):
        # Each direction's input, stacked into a flat buffer, gives the input
        # projection and dWx the bytes of one matmul over both directions' inputs.
        model = init_model(ModelConfig(hidden_units=H, input_shape=(w, F), seed=0))
        X, _ = random_batch(model.config, B, seed=1)
        _, caches = neuralnet._forward_full(model, X)
        h = caches["l1"].h
        rng = np.random.default_rng(w)
        for layer, inputs in (("l1", (X.transpose(1, 0, 2),)), ("l2", (h[0, 1:], h[1, :0:-1]))):
            time_major = np.concatenate(inputs, axis=2)
            stacked = np.stack([time_major, time_major[::-1]]).reshape(2, w * B, -1)  # the oracle
            Wx = neuralnet._stacked(model.params, layer, "Wx")
            dz = rng.normal(size=(2, w * B, 4 * H))
            projection, dWx = np.matmul(stacked, Wx), np.matmul(stacked.transpose(0, 2, 1), dz)
            buffer = np.full(w * B * stacked.shape[-1] + 5, np.nan)
            for d in range(2):
                x = neuralnet._direction_input(inputs, d, stacked.shape[-1], buffer)
                assert same_bytes(x, stacked[d]), (layer, d)
                assert same_bytes(np.matmul(x, Wx[d]), projection[d]), (layer, d)
                assert same_bytes(np.matmul(x.T, dz[d], out=np.empty_like(dWx[d])), dWx[d]), (layer, d)

    @pytest.mark.parametrize("w,B,H,F", SHAPES)
    def test_recomputed_tanh_rebuilds_the_hidden_states(self, w, B, H, F):
        # BPTT recomputes tanh(c) from the cached cell states; it must be the tanh
        # that built h, so that o * tanh(c) gives back every hidden state's bytes.
        model = init_model(ModelConfig(hidden_units=H, input_shape=(w, F), seed=0))
        X, _ = random_batch(model.config, B, seed=1)
        _, caches = neuralnet._forward_full(model, X)
        for layer in neuralnet.LAYERS:
            cache = caches[layer]
            rebuilt = np.multiply(cache.gates[..., 3 * H :], np.tanh(cache.c[:, 1:]))
            assert same_bytes(rebuilt, cache.h[:, 1:]), layer

    def test_train_empties_the_arena(self):
        model = init_model(ModelConfig(hidden_units=3, input_shape=(4, 2), seed=0))
        train(model, make_windows_for(20, 4, 2, seed=1), TrainConfig(epochs=2, batch_size=8))
        assert model._arena._buffers == {}
        assert "_arena" not in repr(model)

    def test_default_predict_chunk_bounds_the_arena(self):
        # 245 windows: the test part of a paper-scale 1,250-day series
        config = ModelConfig(hidden_units=50, input_shape=(20, 8), seed=0)
        model = init_model(config)
        X, _ = random_batch(config, 245, seed=1)
        pred = predict(model, X)
        held = arena_bytes(model)
        one_pass = predict(model, X, chunk_size=245)
        assert same_bytes(pred, one_pass)
        chunk = BiLstmModel(config, model.params)
        forward(chunk, X[:64])
        assert held <= arena_bytes(chunk), f"{held} > {arena_bytes(chunk)} bytes"

    @staticmethod
    def train_watching_arena(monkeypatch, one_chunk_validation):
        """Train a w=20 model with B=32 and 100 validation windows; return the
        model, its history and the arena bytes before and after every step."""
        sizes = []
        real_step, real_predict = neuralnet.loss_and_gradients, neuralnet.predict

        def watched_step(model, X, y):
            sizes.append(arena_bytes(model))
            result = real_step(model, X, y)
            sizes.append(arena_bytes(model))
            return result

        monkeypatch.setattr(neuralnet, "loss_and_gradients", watched_step)
        if one_chunk_validation:
            monkeypatch.setattr(neuralnet, "predict",
                                lambda model, X, chunk_size=None: real_predict(model, X, chunk_size=len(X)))
        model = init_model(ModelConfig(hidden_units=50, input_shape=(20, 8), seed=2))
        windows = make_windows_for(200, 20, 8, seed=3)
        cfg = TrainConfig(epochs=3, batch_size=32, validation_split=0.5, patience=5)
        history = train(model, windows, cfg)
        monkeypatch.undo()
        return model, history, sizes

    def test_validation_keeps_the_arena_batch_sized(self, monkeypatch):
        model, history, sizes = self.train_watching_arena(monkeypatch, one_chunk_validation=False)
        assert sizes[0] == 0 and max(sizes) == sizes[1], [s / 2**20 for s in sizes]
        one_chunk, one_chunk_history, one_chunk_sizes = self.train_watching_arena(
            monkeypatch, one_chunk_validation=True)
        assert max(one_chunk_sizes) > sizes[1]  # the watch sees a 100-window validation
        assert history.n_epochs == 3
        for field in ("train_loss", "val_loss", "val_r2"):
            assert same_bytes(getattr(history, field), getattr(one_chunk_history, field)), field
        assert (history.best_epoch, history.stopped_early) == (
            one_chunk_history.best_epoch, one_chunk_history.stopped_early)
        for key in model.params:
            assert same_bytes(model.params[key], one_chunk.params[key]), key

    def test_adam_matches_out_of_place_update(self):
        rng = np.random.default_rng(5)
        shapes = {"Wx": (3, 8), "Wh": (2, 8), "b": (8,), "head_W": (4, 1), "head_b": (1,)}
        params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        expected = {k: v.copy() for k, v in params.items()}
        adam, reference = _Adam(params, 0.01), ReferenceAdam(expected, 0.01)
        for step in range(50):
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                     for k, shape in shapes.items()}
            if step % 7 == 0:
                grads["Wh"][:] = 0.0
            grads["b"][rng.random(8) < 0.3] = 0.0
            grads["Wx"] = -np.abs(grads["Wx"])
            adam.step(params, grads)
            reference.step(expected, grads)
            for key in shapes:
                assert same_bytes(params[key], expected[key]), (step, key)
                assert same_bytes(adam.m[key], reference.m[key]), (step, key)
                assert same_bytes(adam.v[key], reference.v[key]), (step, key)


class CountingHelper:
    """Stands in for the module's helper executor and counts the halves submitted to it."""

    def __init__(self, helper):
        self.helper, self.submits = helper, 0

    def submit(self, fn, *args):
        self.submits += 1
        return self.helper.submit(fn, *args)


class TestHelperThread:
    @staticmethod
    def run_all(w, B, H, F, seed=0):
        """loss_and_gradients, a 3-epoch train and predict on one fresh model."""
        model = init_model(ModelConfig(hidden_units=H, input_shape=(w, F), seed=seed))
        X, y = random_batch(model.config, B, seed=seed + 1)
        loss, grads = loss_and_gradients(model, X, y)
        windows = make_windows_for(3 * B + 5, w, F, seed=seed + 2)  # the last training batch is ragged
        history = train(model, windows, TrainConfig(epochs=3, batch_size=B, patience=5))
        return loss, grads, history, model.params, predict(model, windows.X)

    @staticmethod
    def assert_same_run(a, b):
        (loss, grads, history, params, pred), (b_loss, b_grads, b_history, b_params, b_pred) = a, b
        assert same_bytes(loss, b_loss)
        assert grads.keys() == b_grads.keys() == params.keys() == b_params.keys()
        for key in grads:
            assert same_bytes(grads[key], b_grads[key]), key
            assert same_bytes(params[key], b_params[key]), key
        for field in ("train_loss", "val_loss", "val_r2"):
            assert same_bytes(getattr(history, field), getattr(b_history, field)), field
        assert (history.best_epoch, history.stopped_early) == (b_history.best_epoch, b_history.stopped_early)
        assert same_bytes(pred, b_pred)

    # the paper shape, a ragged batch (B = 23), and corpus_heavy's H = 4, below the threshold
    @pytest.mark.parametrize("w,B,H,F,overlaps", [
        (60, 32, 50, 8, True), (20, 23, 50, 8, True), (5, 32, 4, 8, False)])
    def test_helper_gives_the_sequential_bytes(self, monkeypatch, w, B, H, F, overlaps):
        helper = CountingHelper(neuralnet._HELPER)
        monkeypatch.setattr(neuralnet, "_HELPER", helper)
        threaded = self.run_all(w, B, H, F)
        submits = helper.submits
        assert (submits > 0) == overlaps, submits
        monkeypatch.setattr(neuralnet, "_MIN_OVERLAP", math.inf)  # every pair runs on the caller
        sequential = self.run_all(w, B, H, F)
        assert helper.submits == submits
        self.assert_same_run(threaded, sequential)

    @pytest.mark.parametrize("failing", [{0}, {1}, {0, 1}])
    def test_both_raises_only_after_both_halves_ended(self, failing):
        ended = []

        def job(half):
            if half:
                time.sleep(0.05)  # the helper's half ends last
            ended.append(half)
            if half in failing:
                raise RuntimeError(f"half {half}")

        with pytest.raises(RuntimeError, match=f"half {min(failing)}"):  # the caller's error first
            neuralnet._both(job, neuralnet._MIN_OVERLAP)
        assert sorted(ended) == [0, 1]

    def test_separate_models_on_separate_threads(self, monkeypatch):
        # Three models, more than the cores of a 2-vCPU machine, share the one helper
        # with a short switch interval; each gets the bytes it gets trained alone.
        shape, seeds = (20, 32, 50, 8), (0, 10, 20)
        alone = [self.run_all(*shape, seed=seed) for seed in seeds]
        helper = CountingHelper(neuralnet._HELPER)
        monkeypatch.setattr(neuralnet, "_HELPER", helper)
        start = threading.Barrier(len(seeds))

        def run(seed):
            start.wait(timeout=60)
            return self.run_all(*shape, seed=seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with futures.ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                together = [job.result(timeout=120) for job in [pool.submit(run, seed) for seed in seeds]]
        finally:
            sys.setswitchinterval(interval)
        assert helper.submits > 0
        for a, b in zip(alone, together):
            self.assert_same_run(a, b)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_a_helper_of_its_own(self):
        # The parent's helper thread does not exist in a forked child, which must
        # still finish a step that crosses the threshold.
        model = init_model(ModelConfig(hidden_units=50, input_shape=(20, 8), seed=0))
        X, y = random_batch(model.config, 32, seed=1)
        loss, _ = loss_and_gradients(model, X, y)

        def child():
            again, _ = loss_and_gradients(model, X, y)
            assert same_bytes(again, loss)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(60)
        if process.is_alive():
            process.kill()
            process.join()
        exitcode = process.exitcode
        process.close()
        assert exitcode == 0


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cfg = ModelConfig(hidden_units=3, input_shape=(4, 2), seed=8)
        model = init_model(cfg)
        path = tmp_path / "model.npz"
        save_model(model, path)
        reloaded = load_model(path)
        assert reloaded.config == cfg
        assert reloaded.params.keys() == model.params.keys()
        for key in model.params:
            np.testing.assert_array_equal(reloaded.params[key], model.params[key])
        X, _ = random_batch(cfg, 4, seed=9)
        np.testing.assert_array_equal(forward(reloaded, X), forward(model, X))

    def test_writes_exactly_the_given_path(self, tmp_path):
        """A path without the .npz suffix is written as given, with the bytes
        that np.savez writes to a .npz path."""
        model = init_model(ModelConfig(hidden_units=3, input_shape=(4, 2), seed=8))
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        with np.load(path) as data:
            meta = data["__meta__"]
        np.savez(tmp_path / "by_path.npz", __meta__=meta, **model.params)
        assert path.read_bytes() == (tmp_path / "by_path.npz").read_bytes()
        assert load_model(path).config == model.config

    @staticmethod
    def saved_with_meta(model, path, **changes):
        """Save the model, rewrite its meta with ``changes``; return the meta save_model wrote."""
        save_model(model, path)
        with np.load(path) as data:
            meta = json.loads(str(data["__meta__"]))
            params = {k: data[k] for k in data.files if k != "__meta__"}
        np.savez(path, __meta__=np.array(json.dumps({**meta, **changes})), **params)
        return meta

    def test_other_activation_rejected(self, tmp_path):
        model = init_model(ModelConfig(hidden_units=2, input_shape=(3, 1), seed=0))
        path = tmp_path / "model.npz"
        assert self.saved_with_meta(model, path, activation="relu")["activation"] == "tanh"
        with pytest.raises(ValueError, match="activation"):
            load_model(path)

    def test_other_output_head_rejected(self, tmp_path):
        model = init_model(ModelConfig(hidden_units=2, input_shape=(3, 1), seed=0))
        path = tmp_path / "model.npz"
        meta = self.saved_with_meta(model, path, output_head="softmax_bins", n_bins=10)
        assert meta["output_head"] == "linear" and "n_bins" not in meta
        with pytest.raises(ValueError, match="output head"):
            load_model(path)

    def test_trained_on_round_trips(self, tmp_path):
        """The split, scaling scope and columns that train records survive save and load."""
        model = init_model(ModelConfig(hidden_units=3, input_shape=(4, 2), seed=8))
        model.trained_on = {"split_ratio": 0.6, "fit_scope": "full", "columns": ["Close", "sent_pos"]}
        path = tmp_path / "model.npz"
        save_model(model, path)
        assert load_model(path).trained_on == model.trained_on
        assert init_model(model.config).trained_on == {}

    @pytest.mark.parametrize("trained_on, message", [
        ({"split_ratio": 1.5, "fit_scope": "full", "columns": ["Close"]},
         "split_ratio must be a float in (0, 1), not 1.5"),
        ({"seed": 5}, "trained_on keys ['seed'] not all in ('split_ratio', 'fit_scope', 'columns')"),
    ], ids=["bad-value", "core-key"])
    def test_save_refuses_what_load_would_not_read_back(self, tmp_path, trained_on, message):
        """A value load_model would reject, or a key that would override a core
        __meta__ key, stops save_model before it writes the file."""
        model = init_model(ModelConfig(hidden_units=2, input_shape=(3, 1), seed=0))
        model.trained_on = trained_on
        path = tmp_path / "model.npz"
        with pytest.raises(ValueError, match=re.escape(f"model file {path}: {message}") + "$"):
            save_model(model, path)
        assert not path.exists()

    def test_earlier_meta_format_loads(self, tmp_path):
        # the meta written while the output head was selectable, n_bins included
        cfg = ModelConfig(hidden_units=3, input_shape=(4, 2), seed=8)
        model = init_model(cfg)
        path = tmp_path / "model.npz"
        meta = {"format_version": 1, "hidden_units": 3, "input_shape": [4, 2], "activation": "tanh",
                "output_head": "linear", "n_bins": 10, "seed": 8}
        np.savez(path, __meta__=np.array(json.dumps(meta)), **model.params)
        reloaded = load_model(path)
        assert reloaded.config == cfg
        X, _ = random_batch(cfg, 4, seed=9)
        np.testing.assert_array_equal(predict(reloaded, X), predict(model, X))

    @pytest.mark.parametrize("changes, message", [
        ({"format_version": None}, "unsupported model format None"),
        ({"hidden_units": "4"}, "hidden_units must be an integer, not '4'"),
        ({"hidden_units": 4.0}, "hidden_units must be an integer, not 4.0"),
        ({"hidden_units": True}, "hidden_units must be an integer, not True"),
        ({"hidden_units": 0}, "hidden_units must be >= 1, not 0"),
        ({"seed": "x"}, "seed must be an integer, not 'x'"),
        ({"seed": -1}, "seed must be >= 0, not -1"),
        ({"input_shape": [5]}, "input_shape must be a pair of integers, not (5,)"),
        ({"input_shape": 5}, "input_shape must be a pair of integers, not 5"),
        ({"input_shape": "ab"}, "input_shape must be a pair of integers, not 'ab'"),
        ({"split_ratio": 1.5}, "split_ratio must be a float in (0, 1), not 1.5"),
        ({"fit_scope": "bogus"}, "fit_scope must be one of ('train_only', 'full'), not 'bogus'"),
        ({"columns": ["Open", "Close"]}, "columns must be 1 distinct strings, not ['Open', 'Close']"),
        ({"split_ratio": "0.8"}, "split_ratio must be a float in (0, 1), not '0.8'"),
        ({"columns": [5]}, "columns must be 1 distinct strings, not [5]"),
    ])
    def test_bad_meta_value_names_the_file(self, tmp_path, changes, message):
        model = init_model(ModelConfig(hidden_units=2, input_shape=(3, 1), seed=0))
        path = tmp_path / "model.npz"
        self.saved_with_meta(model, path, **changes)
        with pytest.raises(ValueError, match=re.escape(f"model file {path}: {message}") + "$"):
            load_model(path)

    def test_file_without_meta_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, weights=np.zeros(3))
        with pytest.raises(ValueError, match=re.escape(f"model file {path} has no __meta__") + "$"):
            load_model(path)

    def test_meta_without_hidden_units_rejected(self, tmp_path):
        model = init_model(ModelConfig(hidden_units=2, input_shape=(3, 1), seed=0))
        path = tmp_path / "model.npz"
        meta = {"format_version": 1, "input_shape": [3, 1], "activation": "tanh", "output_head": "linear",
                "seed": 0}
        np.savez(path, __meta__=np.array(json.dumps(meta)), **model.params)
        with pytest.raises(ValueError, match=re.escape(f"model file {path}: __meta__ lacks hidden_units") + "$"):
            load_model(path)

    @staticmethod
    def saved_with_params(path, **changes):
        """Save a model, then rewrite its parameters with ``changes`` (None drops one)."""
        model = init_model(ModelConfig(hidden_units=3, input_shape=(4, 2), seed=8))
        save_model(model, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays.update(changes)
        np.savez(path, **{k: v for k, v in arrays.items() if v is not None})

    def test_missing_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        self.saved_with_params(path, l2_bwd_b=None)
        with pytest.raises(ValueError, match=re.escape(f"model file {path} lacks l2_bwd_b") + "$"):
            load_model(path)

    def test_unexpected_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        self.saved_with_params(path, l3_fwd_Wx=np.zeros((6, 12)))
        with pytest.raises(ValueError, match=re.escape(f"model file {path} has unexpected l3_fwd_Wx") + "$"):
            load_model(path)

    def test_misshaped_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        self.saved_with_params(path, l1_fwd_Wh=np.zeros((4, 12)))
        with pytest.raises(InvalidShapeError, match=r"l1_fwd_Wh has shape \(4, 12\), expected \(3, 12\)"):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        path = tmp_path / "model.npz"
        head_W = np.zeros((6, 1))
        head_W[4, 0] = bad
        self.saved_with_params(path, head_W=head_W)
        with pytest.raises(ValueError, match="head_W holds non-finite"):
            load_model(path)

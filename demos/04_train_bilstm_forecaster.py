"""Training the bidirectional LSTM on a clean signal.
======================================================

Fits the from-scratch network to a noiseless sine wave and shows the loss
trajectory, early stopping and the quality of the held-out forecast.
Everything is plain numpy; a fixed seed reproduces the run bit for bit.
"""

import numpy as np

from sentistock import (
    chronological_split,
    fit_scalers,
    init_model,
    inverse_transform,
    make_windows,
    predict,
    train,
    transform,
)
from sentistock.neuralnet import ModelConfig, TrainConfig
from sentistock.synth import sine_stock

master = sine_stock(200, seed=0)
# The first floor(0.8 * N) rows train, and the scalers are fit on them alone.
train_raw, test_raw = chronological_split(master, 0.8)
scalers = fit_scalers(train_raw)
train_part, test_part = transform(scalers, train_raw), transform(scalers, test_raw)

w = 10
train_windows = make_windows(train_part, w)
test_windows = make_windows(test_part, w)

model = init_model(ModelConfig(hidden_units=16, input_shape=(w, len(master.columns)), seed=0))
history = train(model, train_windows, TrainConfig(epochs=300, patience=10))

print(f"epochs run: {history.n_epochs} (best {history.best_epoch}, "
      f"early stop: {history.stopped_early})")
for epoch in range(0, history.n_epochs, max(1, history.n_epochs // 8)):
    print(f"  epoch {epoch:3d}  train {history.train_loss[epoch]:.5f}  "
          f"val {history.val_loss[epoch]:.5f}")

pred_scaled = predict(model, test_windows.X)
rmse_scaled = float(np.sqrt(np.mean((pred_scaled - test_windows.y) ** 2)))
print(f"\nscaled test RMSE: {rmse_scaled:.4f}")

pred_price = inverse_transform(scalers, "Close", pred_scaled)
actual_price = inverse_transform(scalers, "Close", test_windows.y)
print("last five forecasts vs actual close:")
for p, a in zip(pred_price[-5:], actual_price[-5:]):
    print(f"  {p:8.3f}  vs  {a:8.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 3))
    axes[0].plot(history.train_loss, label="train")
    axes[0].plot(history.val_loss, label="val")
    axes[0].set_title("loss")
    axes[0].legend()
    axes[1].plot(actual_price, label="actual")
    axes[1].plot(pred_price, label="predicted")
    axes[1].set_title("held-out close price")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig("sine_forecast.png", dpi=100)
    print("wrote sine_forecast.png")
except ImportError:
    pass

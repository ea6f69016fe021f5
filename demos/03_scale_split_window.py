"""Scaling, chronological splitting and lookback windowing.
============================================================

The dataset stage: split without shuffling, fit invertible per-column
min-max scalers on the training rows alone, and slice windows of w
consecutive rows, each predicting the next row's close.
"""

import numpy as np

from sentistock import chronological_split, fit_scalers, inverse_transform, make_windows, transform
from sentistock.synth import random_walk_stock

master = random_walk_stock(n_days=50, seed=3)

# Split first, without shuffling: the first floor(0.8 * N) rows train.
train_raw, test_raw = chronological_split(master, 0.8)
print(f"split: {train_raw.n_rows} train rows + {test_raw.n_rows} test rows, order preserved")

# Scalers are fit on the training rows only, so the test rows can fall
# outside [0, 1] -- no information leaks backwards in time.
scalers = fit_scalers(train_raw)
close = scalers["Close"]
print(f"\nClose bounds from training rows: [{close.vmin:.2f}, {close.vmax:.2f}]")

train, test = transform(scalers, train_raw), transform(scalers, test_raw)
print(f"scaled test Close range: [{test.columns['Close'].min():.3f}, "
      f"{test.columns['Close'].max():.3f}]  (test rows may leave [0, 1])")

# The transform is exactly invertible.
back = inverse_transform(scalers, "Close", test.columns["Close"])
print("round-trip max error:", float(np.abs(back - test_raw.columns["Close"]).max()))

# Windows: sample k covers rows [k, k+w) and targets row k+w.
w = 5
windows = make_windows(train, w)
print(f"lookback {w}: {len(windows)} supervised samples of shape {windows.X.shape[1:]}")
print(f"sample 0 target equals row {w}'s scaled close: "
      f"{windows.y[0] == train.columns['Close'][w]}")

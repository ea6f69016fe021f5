"""Scaling, chronological splitting and lookback windowing.
============================================================

The dataset stage: fit invertible per-column min-max scalers on the
training prefix, split without shuffling, and slice windows of w
consecutive rows, each predicting the next row's close.
"""

import numpy as np

from sentistock import chronological_split, fit_scalers, inverse_transform, make_windows, transform
from sentistock.synth import random_walk_stock

master = random_walk_stock(n_days=50, seed=3)

# Scalers are fit on the first floor(0.8 * N) rows only, so the test rows
# can fall outside [0, 1] -- no information leaks backwards in time.
scalers = fit_scalers(master, split_ratio=0.8, fit_scope="train_only")
close = scalers["Close"]
print(f"Close bounds from training prefix: [{close.vmin:.2f}, {close.vmax:.2f}]")

scaled = transform(scalers, master)
print(f"scaled Close range: [{scaled.columns['Close'].min():.3f}, "
      f"{scaled.columns['Close'].max():.3f}]  (test rows may exceed 1)")

# The transform is exactly invertible.
back = inverse_transform(scalers, "Close", scaled.columns["Close"])
print("round-trip max error:", float(np.abs(back - master.columns["Close"]).max()))

train, test = chronological_split(scaled, 0.8)
print(f"\nsplit: {train.n_rows} train rows + {test.n_rows} test rows, order preserved")

# Windows: sample k covers rows [k, k+w) and targets row k+w.
w = 5
windows = make_windows(train, w)
print(f"lookback {w}: {len(windows)} supervised samples of shape {windows.X.shape[1:]}")
print(f"sample 0 target equals row {w}'s scaled close: "
      f"{windows.y[0] == train.columns['Close'][w]}")

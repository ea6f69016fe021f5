"""Evaluation indicators for forecast series.

All functions accept 1-D sequences (anything np.asarray can handle) and are
pure. Error metrics keep the units of their inputs; the report records which
units were used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyHistoryError,
    LengthMismatchError,
    SeriesTooShortError,
    ZeroVarianceError,
)


@dataclass
class EvalReport:
    """Final indicator set for one experiment."""

    mae: float
    rmse: float
    r2: float
    val_score: float | None  # None when no training history was given
    time_offset: int
    acc: float
    n_samples: int
    units: str = "data"


def _as_pair(pred, actual) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape:
        raise LengthMismatchError(f"pred has shape {pred.shape}, actual {actual.shape}")
    return pred, actual


def mae(pred, actual) -> float:
    """Mean absolute error."""
    pred, actual = _as_pair(pred, actual)
    return float(np.mean(np.abs(pred - actual)))


def rmse(pred, actual) -> float:
    """Root mean squared error."""
    pred, actual = _as_pair(pred, actual)
    return float(np.sqrt(np.mean((pred - actual) ** 2)))


def r2(pred, actual) -> float:
    """Coefficient of determination, 1 - SSE/SST with SST about the actual mean.

    Raises ZeroVarianceError when the actual series is constant.
    """
    pred, actual = _as_pair(pred, actual)
    sst = float(np.sum((actual - actual.mean()) ** 2))
    if sst == 0.0:
        raise ZeroVarianceError("actual series is constant; R^2 undefined")
    sse = float(np.sum((actual - pred) ** 2))
    return 1.0 - sse / sst


def compute_metrics(pred, actual) -> tuple[float, float, float]:
    """(mae, rmse, r2) in one call.

    Requires at least 2 points and a non-constant actual series (else
    ZeroVarianceError; use mae/rmse directly when R^2 is not needed).
    """
    pred, actual = _as_pair(pred, actual)
    if pred.size < 2:
        raise LengthMismatchError("need at least 2 points")
    return mae(pred, actual), rmse(pred, actual), r2(pred, actual)


def directional_accuracy(pred, actual) -> float:
    """Fraction of consecutive-day change pairs with matching sign.

    Zero changes match only zero changes.
    """
    pred, actual = _as_pair(pred, actual)
    if pred.size < 2:
        raise LengthMismatchError("need at least 2 points")
    return float(np.mean(np.sign(np.diff(pred)) == np.sign(np.diff(actual))))


def best_time_offset(pred, actual, max_lag: int = 14) -> tuple[int, float]:
    """Lag at which the prediction best correlates with the actual series.

    For each lag L in [0, max_lag] the Pearson correlation of pred[L:] with
    actual[:n-L] is computed; the argmax wins, ties going to the smaller lag.
    Returns (lag, directional accuracy on the aligned overlap).
    """
    pred, actual = _as_pair(pred, actual)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    n = pred.size
    if n < max_lag + 2:
        raise SeriesTooShortError(f"need at least max_lag + 2 = {max_lag + 2} points, got {n}")
    best_lag = 0
    best_corr = -np.inf
    for lag in range(max_lag + 1):
        a = pred[lag:]
        b = actual[: n - lag]
        if a.std() == 0.0 or b.std() == 0.0:
            continue
        corr = float(np.corrcoef(a, b)[0, 1])
        if corr > best_corr:
            best_corr = corr
            best_lag = lag
    aligned_pred = pred[best_lag:]
    aligned_actual = actual[: n - best_lag]
    return best_lag, directional_accuracy(aligned_pred, aligned_actual)


def validation_score(history) -> float:
    """Validation R^2 at the best epoch of a training history."""
    if len(history.val_r2) == 0:
        raise EmptyHistoryError("history has no epochs")
    return float(history.val_r2[history.best_epoch])

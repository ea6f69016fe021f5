"""Min-max scaling, chronological splitting and lookback windowing."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDatasetError, InsufficientRowsError, UnknownColumnError
from .ingest import TARGET_COLUMN, MasterDataset

FIT_SCOPES = ("train_only", "full")


@dataclass
class ColumnScaler:
    """Observed min/max bounds for one column."""

    column: str
    vmin: float
    vmax: float

    @property
    def degenerate(self) -> bool:
        return self.vmax == self.vmin

    def transform(self, values: np.ndarray) -> np.ndarray:
        """(x - min) / (max - min); degenerate columns map to 0. Not clipped."""
        values = np.asarray(values, dtype=float)
        if self.degenerate:
            return np.zeros_like(values)
        return (values - self.vmin) / (self.vmax - self.vmin)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """min + y * (max - min); degenerate columns return min everywhere."""
        values = np.asarray(values, dtype=float)
        if self.degenerate:
            return np.full_like(values, self.vmin)
        return self.vmin + values * (self.vmax - self.vmin)


@dataclass
class ScalerSet:
    """One ColumnScaler per master-dataset column."""

    scalers: dict[str, ColumnScaler]

    def __getitem__(self, column: str) -> ColumnScaler:
        try:
            return self.scalers[column]
        except KeyError:
            raise UnknownColumnError(column) from None


@dataclass
class WindowedSet:
    """Supervised pairs: X[k] holds w consecutive rows, y[k] the next row's target.

    From make_windows, X is a read-only view whose windows share rows; copy it to write."""

    X: np.ndarray  # (n_samples, lookback, n_features)
    y: np.ndarray  # (n_samples,)
    lookback: int

    def __len__(self) -> int:
        return len(self.y)


def fit_scalers(data: MasterDataset, split_ratio: float = 0.8, fit_scope: str = "train_only") -> ScalerSet:
    """Fit per-column min/max bounds.

    With fit_scope="train_only" (the default) bounds come from the first
    floor(ratio * N) rows, avoiding test-set leakage; "full" uses every row.
    """
    if fit_scope not in FIT_SCOPES:
        raise ValueError(f"unknown fit_scope {fit_scope!r}")
    if not 0 < split_ratio < 1:
        raise ValueError("split_ratio must be in (0, 1)")
    n = data.n_rows
    n_fit = math.floor(split_ratio * n) if fit_scope == "train_only" else n
    if n_fit < 1:
        raise DegenerateDatasetError(f"no rows to fit scalers on (n={n}, ratio={split_ratio})")
    scalers = {}
    for name, values in data.columns.items():
        window = values[:n_fit]
        scalers[name] = ColumnScaler(column=name, vmin=float(window.min()), vmax=float(window.max()))
    return ScalerSet(scalers=scalers)


def transform(scalers: ScalerSet, data: MasterDataset) -> MasterDataset:
    """Scale every column of a master dataset. Out-of-range values pass through unclipped."""
    return replace(data, columns={name: scalers[name].transform(v) for name, v in data.columns.items()})


def inverse_transform(scalers: ScalerSet, column: str, values: np.ndarray) -> np.ndarray:
    """Map scaled values of one column back to data units."""
    return scalers[column].inverse(values)


def chronological_split(data: MasterDataset, split_ratio: float = 0.8) -> tuple[MasterDataset, MasterDataset]:
    """Split into (train, test) by row position: first floor(ratio * N) rows train.

    No shuffling; order is preserved. Raises DegenerateDatasetError for
    datasets with fewer than 2 rows.
    """
    if not 0 < split_ratio < 1:
        raise ValueError("split_ratio must be in (0, 1)")
    n = data.n_rows
    if n < 2:
        raise DegenerateDatasetError(f"cannot split {n} rows")
    n_train = math.floor(split_ratio * n)
    return tuple(replace(data, calendar=data.calendar[part],
                         columns={name: values[part] for name, values in data.columns.items()})
                 for part in (slice(0, n_train), slice(n_train, n)))


def make_windows(data: MasterDataset, lookback: int) -> WindowedSet:
    """Slice rows into supervised pairs.

    Sample k covers feature rows [k, k+w) with the TARGET_COLUMN
    at row k+w, giving N - w samples. X is a read-only view of the (N, F)
    feature matrix, not a copy. Raises InsufficientRowsError when N <= w.
    """
    if lookback < 1:
        raise ValueError("lookback must be >= 1")
    n = data.n_rows
    if n <= lookback:
        raise InsufficientRowsError(f"{n} rows cannot form a window of {lookback}")
    features = data.feature_matrix()
    n_samples = n - lookback
    X = np.lib.stride_tricks.sliding_window_view(features, lookback, axis=0)[:n_samples].transpose(0, 2, 1)
    y = data.columns[TARGET_COLUMN][lookback:].astype(float).copy()
    return WindowedSet(X=X, y=y, lookback=lookback)

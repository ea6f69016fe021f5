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


def check_split(split_ratio: float = 0.8, fit_scope: str = "train_only") -> None:
    """The one split rule: ValueError unless split_ratio is a float in (0, 1) and fit_scope in FIT_SCOPES."""
    if not (isinstance(split_ratio, float) and 0 < split_ratio < 1):
        raise ValueError(f"split_ratio must be a float in (0, 1), not {split_ratio!r}")
    if fit_scope not in FIT_SCOPES:
        raise ValueError(f"fit_scope must be one of {FIT_SCOPES}, not {fit_scope!r}")


def train_rows(n_rows: int, split_ratio: float) -> int:
    """The training part's row count: the first floor(split_ratio * n_rows) rows."""
    return math.floor(split_ratio * n_rows)


def fit_scalers(data: MasterDataset) -> ScalerSet:
    """Fit per-column min/max bounds on every row of ``data``: split first to keep test rows out.

    Raises DegenerateDatasetError for a dataset with no rows."""
    if data.n_rows < 1:
        raise DegenerateDatasetError("no rows to fit scalers on")
    return ScalerSet(scalers={name: ColumnScaler(column=name, vmin=float(v.min()), vmax=float(v.max()))
                              for name, v in data.columns.items()})


def transform(scalers: ScalerSet, data: MasterDataset) -> MasterDataset:
    """Scale every column of a master dataset. Out-of-range values pass through unclipped."""
    return replace(data, columns={name: scalers[name].transform(v) for name, v in data.columns.items()})


def inverse_transform(scalers: ScalerSet, column: str, values: np.ndarray) -> np.ndarray:
    """Map scaled values of one column back to data units."""
    return scalers[column].inverse(values)


def chronological_split(data: MasterDataset, split_ratio: float = 0.8) -> tuple[MasterDataset, MasterDataset]:
    """Split into (train, test) by row position: the first train_rows(N, ratio) rows train.

    No shuffling; order is preserved. Raises check_split's ValueError and, for
    datasets with fewer than 2 rows, DegenerateDatasetError.
    """
    check_split(split_ratio)
    if data.n_rows < 2:
        raise DegenerateDatasetError(f"cannot split {data.n_rows} rows")
    n_train = train_rows(data.n_rows, split_ratio)
    return tuple(replace(data, calendar=data.calendar[part],
                         columns={name: values[part] for name, values in data.columns.items()})
                 for part in (slice(None, n_train), slice(n_train, None)))


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

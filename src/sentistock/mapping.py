"""Mapping per-tweet scores onto the trading-day calendar.

Tweets are aggregated into three raw daily channels (positive, negative,
neutral), then smoothed with a memory kernel over the previous M trading
days and joined with the stock columns into one master dataset.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .errors import CalendarMismatchError, MissingScoreError, UnknownColumnError, UnparseableRowError
from .ingest import StockSeries, TweetCorpus, parse_day, write_stock_csv
from .sentiment import ScoreTable, labels

SENTIMENT_COLUMNS = ("sent_pos", "sent_neg", "sent_neu")


@dataclass
class MemoryKernel:
    """Lag weights for the memory-weighted mapping.

    ``recency`` weights lag i (trading days back) by M - i + 1, so yesterday
    counts most; ``literal`` weights lag i by i, so the oldest day in the
    window counts most. Both normalize by the full kernel sum.
    """

    memory_days: int = 30
    mode: str = "recency"

    def __post_init__(self):
        if self.memory_days < 1:
            raise ValueError("memory_days must be >= 1")
        if self.mode not in ("recency", "literal"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")

    def weights(self) -> np.ndarray:
        """Kernel values for lags 1..M, in lag order."""
        lags = np.arange(1, self.memory_days + 1, dtype=float)
        if self.mode == "recency":
            return self.memory_days - lags + 1.0
        return lags


@dataclass
class DailySentimentSeries:
    """Per-day channel values on the trading calendar, each in [0, 1].

    daily_aggregate produces the raw channels and memory_weighted_map the
    smoothed ones.
    """

    calendar: list[date]
    positive: np.ndarray
    negative: np.ndarray
    neutral: np.ndarray


@dataclass
class MasterDataset:
    """Per-trading-day feature columns plus the prediction target column."""

    calendar: list[date]
    columns: dict[str, np.ndarray]
    target_column: str = "Close"

    def __post_init__(self):
        n = len(self.calendar)
        for name, values in self.columns.items():
            if len(values) != n:
                raise ValueError(f"column {name!r} has {len(values)} rows, calendar has {n}")
        if self.target_column not in self.columns:
            raise UnknownColumnError(self.target_column)

    @property
    def n_rows(self) -> int:
        return len(self.calendar)

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def feature_matrix(self) -> np.ndarray:
        """Columns stacked in order as a (n_rows, n_columns) float array."""
        return np.column_stack([self.columns[name] for name in self.columns])


def class_contributions(probabilities: np.ndarray) -> np.ndarray:
    """One-hot each (p_pos, p_neg, p_neu) row's class (sentiment.labels), keeping its
    probability; the other two classes contribute 0."""
    label = labels(probabilities)
    rows = np.arange(len(label))
    contributions = np.zeros_like(probabilities)
    contributions[rows, label] = probabilities[rows, label]
    return contributions


def daily_aggregate(
    table: ScoreTable,
    variant: str,
    corpus: TweetCorpus,
    calendar: list[date],
) -> DailySentimentSeries:
    """Average tweet contributions per trading day.

    Each tweet contributes its one-hot class contribution to the trading day
    it falls on; tweets on non-trading days roll forward to the next trading
    day, and tweets after the last trading day are dropped. Days without
    tweets stay 0. Each day's contributions are summed in corpus order.
    """
    probabilities = table.probabilities(variant)
    if table.tweet_ids != corpus.ids:
        raise MissingScoreError(f"the score table's tweets are not the corpus's, variant {variant!r}")
    n = len(calendar)
    day = np.searchsorted(np.fromiter(map(date.toordinal, calendar), np.int64, n), corpus.ordinals)
    kept = day < n
    day = day[kept]
    contributions = class_contributions(probabilities[kept])
    sums = np.stack([np.bincount(day, weights=contributions[:, c], minlength=n) for c in range(3)])
    counts = np.bincount(day, minlength=n)
    occupied = counts > 0
    channels = np.zeros_like(sums)
    channels[:, occupied] = sums[:, occupied] / counts[occupied]
    return DailySentimentSeries(list(calendar), *channels)


def memory_weighted_map(daily: DailySentimentSeries, kernel: MemoryKernel) -> DailySentimentSeries:
    """Smooth each channel with the lagged memory kernel.

    mapped[d] = sum_{i=1..M} k(i) * raw[d-i] / sum_{i=1..M} k(i), where lags
    count trading days back and out-of-range lags contribute 0 to the
    numerator while the denominator stays the full kernel sum. Day d itself
    never contributes to its own mapped value.
    """
    weights = kernel.weights()
    denom = weights.sum()
    n = len(daily.calendar)

    def smooth(raw: np.ndarray) -> np.ndarray:
        out = np.zeros(n)
        if n > 1:
            # full convolution index d-1 holds sum_i k(i) * raw[d-i]
            out[1:] = np.convolve(raw, weights)[: n - 1] / denom
        return out

    return DailySentimentSeries(list(daily.calendar),
                                *map(smooth, (daily.positive, daily.negative, daily.neutral)))


def join_with_stock(mapped: DailySentimentSeries, series: StockSeries) -> MasterDataset:
    """Join mapped sentiment channels with the stock columns.

    Calendars must match exactly; the first differing date is reported.
    """
    for a, b in zip_longest(mapped.calendar, series.calendar):
        if a != b:
            raise CalendarMismatchError(a if a is not None else b)
    master = stock_only_master(series)
    for name, values in zip(SENTIMENT_COLUMNS, (mapped.positive, mapped.negative, mapped.neutral)):
        master.columns[name] = values.copy()
    return master


def stock_only_master(series: StockSeries) -> MasterDataset:
    """Master dataset with stock columns only (the no-sentiment pipeline)."""
    columns = {name: values.copy() for name, values in series.columns.items()}
    return MasterDataset(calendar=list(series.calendar), columns=columns, target_column="Close")


# A master dataset is written like a stock series: Date, then its columns in order.
write_master_csv = write_stock_csv


def load_master_csv(path: str | Path, target_column: str = "Close") -> MasterDataset:
    """Read a master dataset CSV written by write_master_csv.

    Raises UnparseableRowError, with the line number, for a row whose field
    count differs from the header's or that holds an unparseable date or a
    non-finite value.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "Date":
            raise ValueError("master CSV must start with a Date column")
        names = header[1:]
        calendar = []
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise UnparseableRowError(line_no, f"expected {len(header)} fields, got {len(row)}")
            try:
                calendar.append(parse_day(row[0]))
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise UnparseableRowError(line_no, str(exc)) from exc
            if not all(math.isfinite(v) for v in values):
                raise UnparseableRowError(line_no, f"non-finite value in {row[1:]}")
            rows.append(values)
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    columns = {name: data[:, j] for j, name in enumerate(names)}
    return MasterDataset(calendar=calendar, columns=columns, target_column=target_column)

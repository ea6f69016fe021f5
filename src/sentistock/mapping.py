"""Mapping per-tweet scores onto the trading-day calendar.

Tweets are aggregated into three raw daily channels (positive, negative,
neutral), then smoothed with a memory kernel over the previous M trading
days and joined with the stock columns into one master dataset.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import date
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .errors import CalendarMismatchError, MissingColumnError, MissingScoreError, UnparseableRowError
from .ingest import MasterDataset, TweetCorpus, parse_day, write_stock_csv
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


def join_with_stock(mapped: DailySentimentSeries, stock: MasterDataset) -> MasterDataset:
    """The stock's columns, then the mapped sentiment channels.

    Calendars must match exactly; the first differing date is reported.
    """
    for a, b in zip_longest(mapped.calendar, stock.calendar):
        if a != b:
            raise CalendarMismatchError(a if a is not None else b)
    channels = (mapped.positive, mapped.negative, mapped.neutral)
    return replace(stock, columns={**stock.columns, **dict(zip(SENTIMENT_COLUMNS, channels))})


# A master dataset is written like a stock series: Date, then its columns in order.
write_master_csv = write_stock_csv


def load_master_csv(path: str | Path, target_column: str = "Close") -> MasterDataset:
    """Read a master dataset CSV written by write_master_csv, skipping blank lines.

    Raises MissingColumnError without a leading Date column, and
    UnparseableRowError with the line number for a repeated column name or
    a row of the wrong field count, a bad date or a non-finite value.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:1] != ["Date"]:
            raise MissingColumnError("master CSV must start with a Date column")
        if len(set(header)) != len(header):
            raise UnparseableRowError(reader.line_num, f"repeated column name in {header}")
        names = header[1:]
        calendar = []
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise UnparseableRowError(reader.line_num, f"expected {len(header)} fields, got {len(row)}")
            try:
                calendar.append(parse_day(row[0]))
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise UnparseableRowError(reader.line_num, str(exc)) from exc
            if not all(math.isfinite(v) for v in values):
                raise UnparseableRowError(reader.line_num, f"non-finite value in {row[1:]}")
            rows.append(values)
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    columns = {name: data[:, j] for j, name in enumerate(names)}
    return MasterDataset(calendar=calendar, columns=columns, target_column=target_column)

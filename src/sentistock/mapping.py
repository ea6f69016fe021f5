"""Mapping per-tweet scores onto the trading-day calendar.

Tweets are aggregated into three raw daily channels, the SENTIMENT_COLUMNS
(positive, negative, neutral), each one float array over the calendar; they
are smoothed with a memory kernel over the previous M trading days and
joined with the stock columns into one master dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date

import numpy as np

from .errors import check_fields
from .ingest import MasterDataset
from .sentiment import labels

SENTIMENT_COLUMNS = ("sent_pos", "sent_neg", "sent_neu")


@dataclass
class MemoryKernel:
    """Lag weights for the memory-weighted mapping.

    ``recency`` weights lag i (trading days back) by M - i + 1, so yesterday
    counts most; ``literal`` weights lag i by i, so the oldest day in the
    window counts most. Both normalize by the full kernel sum.
    """

    memory_days: int = field(default=30, metadata={"least": 1})
    mode: str = field(default="recency", metadata={"choices": ("recency", "literal")})

    def __post_init__(self):
        check_fields(self)

    def weights(self) -> np.ndarray:
        """Kernel values for lags 1..M, in lag order."""
        lags = np.arange(1, self.memory_days + 1, dtype=float)
        if self.mode == "recency":
            return self.memory_days - lags + 1.0
        return lags


def class_contributions(probabilities: np.ndarray) -> np.ndarray:
    """One-hot each (p_pos, p_neg, p_neu) row's class (sentiment.labels), keeping its
    probability; the other two classes contribute 0."""
    label = labels(probabilities)
    rows = np.arange(len(label))
    contributions = np.zeros_like(probabilities)
    contributions[rows, label] = probabilities[rows, label]
    return contributions


def daily_aggregate(probabilities: np.ndarray, ordinals: np.ndarray,
                    calendar: list[date]) -> dict[str, np.ndarray]:
    """Average tweet contributions per trading day, one array per SENTIMENT_COLUMNS name.

    Row i of ``probabilities`` scores the tweet of day ``ordinals[i]`` and adds
    its one-hot class contribution to that trading day; tweets on non-trading
    days roll forward to the next trading day, and tweets after the last
    trading day are dropped. Days without tweets stay 0. Each day's
    contributions are summed in row order.
    """
    n = len(calendar)
    day = np.searchsorted(np.fromiter(map(date.toordinal, calendar), np.int64, n), ordinals)
    kept = day < n
    day = day[kept]
    contributions = class_contributions(probabilities[kept])
    sums = np.stack([np.bincount(day, weights=contributions[:, c], minlength=n) for c in range(3)])
    counts = np.bincount(day, minlength=n)
    occupied = counts > 0
    channels = np.zeros_like(sums)
    channels[:, occupied] = sums[:, occupied] / counts[occupied]
    return dict(zip(SENTIMENT_COLUMNS, channels))


def memory_weighted_map(daily: dict[str, np.ndarray], kernel: MemoryKernel) -> dict[str, np.ndarray]:
    """Smooth each channel with the lagged memory kernel.

    mapped[d] = sum_{i=1..M} k(i) * raw[d-i] / sum_{i=1..M} k(i), where lags
    count trading days back and out-of-range lags contribute 0 to the
    numerator while the denominator stays the full kernel sum. Day d itself
    never contributes to its own mapped value.
    """
    weights = kernel.weights()
    denom = weights.sum()

    def smooth(raw: np.ndarray) -> np.ndarray:
        n = len(raw)
        out = np.zeros(n)
        if n > 1:  # np.convolve rejects an empty channel
            # full convolution index d-1 holds sum_i k(i) * raw[d-i]
            out[1:] = np.convolve(raw, weights)[: n - 1] / denom
        return out

    return {name: smooth(raw) for name, raw in daily.items()}


def join_with_stock(mapped: dict[str, np.ndarray], stock: MasterDataset) -> MasterDataset:
    """The stock's columns, then the mapped channels, each of the stock's row count."""
    return replace(stock, columns={**stock.columns, **mapped})

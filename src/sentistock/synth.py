"""Synthetic data generators for demos and verification runs.

All generators take a seed and produce valid MasterDataset (stock series
included) and tweet structures, so the full pipeline can be exercised
without any proprietary market or social-media data.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from .ingest import MasterDataset, TweetCorpus
from .mapping import SENTIMENT_COLUMNS

_WEEKDAY_FRIDAY = 4


def trading_calendar(start: date, n_days: int) -> list[date]:
    """n_days consecutive weekdays starting at (or after) start, picked by ``(ordinal + 6) % 7``
    (``date.weekday()``) from the first ``7 * (n_days // 5 + 1)`` days, 5 of every 7 a weekday."""
    ordinals = np.arange(start.toordinal(), start.toordinal() + 7 * (n_days // 5 + 1))
    weekdays = ordinals[(ordinals + 6) % 7 <= _WEEKDAY_FRIDAY]
    return list(map(date.fromordinal, weekdays[:n_days].tolist()))


def _ohlcv_from_close(close: np.ndarray, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    spread = 0.01 * np.abs(close) + 0.01
    open_ = close + rng.uniform(-1, 1, close.size) * spread
    high = np.maximum(open_, close) + rng.uniform(0, 1, close.size) * spread
    low = np.minimum(open_, close) - rng.uniform(0, 1, close.size) * spread
    low = np.maximum(low, 1e-3)
    volume = np.floor(rng.uniform(1e4, 1e6, close.size))
    return {"Open": open_, "High": high, "Low": low, "Close": close, "Volume": volume}


def sine_stock(n_days: int = 200, seed: int = 0, symbol: str = "SINE") -> MasterDataset:
    """A noiseless sine-wave close price (period ~40 days) around level 100."""
    t = np.arange(n_days, dtype=float)
    close = 100.0 + 10.0 * np.sin(2.0 * np.pi * t / 40.0)
    return MasterDataset(trading_calendar(date(2020, 1, 1), n_days), _ohlcv_from_close(close, seed),
                         symbol=symbol)


def random_walk_stock(n_days: int = 300, seed: int = 0, symbol: str = "WALK") -> MasterDataset:
    """A positive random-walk close with mild daily moves."""
    rng = np.random.default_rng(seed)
    close = 100.0 + np.cumsum(rng.normal(0.0, 1.0, n_days))
    close = np.maximum(close, 5.0)
    return MasterDataset(trading_calendar(date(2020, 1, 1), n_days), _ohlcv_from_close(close, seed + 1),
                         symbol=symbol)


def sentiment_driven_master(
    n_days: int = 400,
    signal_strength: float = 0.8,
    noise_sigma: float = 0.02,
    seed: int = 0,
) -> MasterDataset:
    """Master dataset whose next-day price move is driven by today's sentiment.

    close[d+1] = (close[d] + signal[d]) + noise[d] from close[0] = 10, where
    signal = signal_strength * (sent_pos - sent_neg): every other partial sum of
    one running sum over ``[10, signal[0], noise[0], signal[1], ...]``, added in
    that order, which a seed's bytes depend on. With the sentiment columns
    present the next move is largely predictable; without them it is noise,
    which is what makes this series useful for measuring the value of the
    sentiment channels.
    """
    rng = np.random.default_rng(seed)
    sent_pos = rng.uniform(0.0, 0.1, n_days)
    sent_neg = rng.uniform(0.0, 0.1, n_days)
    sent_neu = rng.uniform(0.0, 0.1, n_days)
    noise = rng.normal(0.0, noise_sigma, n_days)
    steps = np.empty((n_days, 2))  # row d: 10 or noise[d - 1], then signal[d]
    steps[:1, 0], steps[1:, 0] = 10.0, noise[:-1]
    steps[:, 1] = signal_strength * (sent_pos - sent_neg)
    close = np.add.accumulate(steps.ravel())[::2]
    sentiment = dict(zip(SENTIMENT_COLUMNS, (sent_pos, sent_neg, sent_neu)))
    return MasterDataset(trading_calendar(date(2020, 1, 1), n_days),
                         {**_ohlcv_from_close(close, seed + 1), **sentiment})


_SAMPLE_PHRASES = (
    "strong growth rally",
    "record profit surge",
    "gains rally boom",
    "earnings beat optimistic outlook",
    "crash selloff deepens",
    "losses slump recession",
    "weak decline bearish mood",
    "markets quiet before the holiday",
    "index unchanged in thin trading",
    "growth hopes fade amid recession risk",
)


def random_tweets(calendar: list[date], per_day: float = 1.5, seed: int = 0) -> TweetCorpus:
    """A corpus of template tweets scattered over (and between) trading days.

    Each day draws ``k = rng.poisson(per_day)``, then ``rng.integers(0, high)`` with
    ``high`` = ``[len(_SAMPLE_PHRASES), 2]`` k times: per tweet a phrase, then 0 or 1 day
    back (onto weekends too), as ``rng.choice(_SAMPLE_PHRASES)`` and ``rng.integers(0, 2)``
    per tweet would. Keep this draw order: a seed's corpus must never change.
    """
    rng = np.random.default_rng(seed)
    counts, draws = [], [np.empty(0, dtype=np.int64)]  # np.concatenate needs one array
    for _ in calendar:
        counts.append(rng.poisson(per_day))
        draws.append(rng.integers(0, np.tile((len(_SAMPLE_PHRASES), 2), counts[-1])))
    phrases, offsets = np.concatenate(draws).reshape(-1, 2).T
    days = np.array([day.toordinal() for day in calendar], dtype=np.int64)
    raws = [_SAMPLE_PHRASES[i] for i in phrases.tolist()]
    return TweetCorpus.by_date([str(i) for i in range(len(raws))], np.repeat(days, counts) - offsets,
                               raws, raws)

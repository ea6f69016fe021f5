"""Loading and cleaning of stock price series and tweet corpora.

Stock data arrives as OHLCV CSV files (``Date,Open,High,Low,Close,Volume``,
ISO dates, extra columns ignored). Tweets arrive as line-delimited JSON with
keys ``date`` and ``text`` plus optional ``id`` and ``pos_text``.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import (
    EmptyCorpusError,
    EmptySeriesError,
    MissingColumnError,
    UnparseableRecordError,
    UnparseableRowError,
)

STOCK_COLUMNS = ("Open", "High", "Low", "Close", "Volume")

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9 ]")
_WS_RE = re.compile(r"\s+")


@dataclass
class StockSeries:
    """Daily OHLCV rows for one symbol, sorted by date."""

    symbol: str
    dates: list[date]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    @property
    def calendar(self) -> list[date]:
        """The ordered trading days present in the series."""
        return self.dates

    def __len__(self) -> int:
        return len(self.dates)

    def validate(self) -> None:
        """Check date ordering and price sanity; raises ValueError on violation."""
        for i in range(1, len(self.dates)):
            if self.dates[i] <= self.dates[i - 1]:
                raise ValueError(f"dates not strictly increasing at {self.dates[i]}")
        for name in ("open", "high", "low", "close"):
            values = getattr(self, name)
            if not np.all(np.isfinite(values)) or np.any(values <= 0):
                raise ValueError(f"non-finite or non-positive {name} price")
        if not np.all(np.isfinite(self.volume)) or np.any(self.volume < 0):
            raise ValueError("negative or non-finite volume")


@dataclass
class Tweet:
    id: str
    date: date
    raw_text: str
    cleaned_text: str
    pos_tagged_text: str | None = None


@dataclass
class TweetCorpus:
    """Tweets sorted by date ascending with unique ids."""

    tweets: list[Tweet]
    handle: str = ""

    def __len__(self) -> int:
        return len(self.tweets)

    def __iter__(self):
        return iter(self.tweets)


def clean_tweet(raw: str) -> str:
    """Normalize tweet text for scoring.

    Lowercases, removes URLs and @mentions, keeps hashtag words without the
    '#', drops everything outside ASCII letters/digits/space, and collapses
    whitespace. Idempotent; empty input yields empty output.
    """
    text = raw.lower()
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _WS_RE.sub(" ", text)
    # drops '#' (keeping the hashtag word) along with all other symbols
    text = _NON_ALNUM_RE.sub("", text)
    return _WS_RE.sub(" ", text).strip()


def load_stock_csv(path: str | Path, symbol: str | None = None) -> StockSeries:
    """Read an OHLCV CSV into a validated StockSeries.

    Rows are sorted by date; duplicate dates are rejected. Extra columns are
    ignored. Raises MissingColumnError, UnparseableRowError or
    EmptySeriesError.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in ("Date",) + STOCK_COLUMNS:
            if col not in header:
                raise MissingColumnError(col)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            try:
                d = date.fromisoformat(row["Date"].strip())
                values = tuple(float(row[c]) for c in STOCK_COLUMNS)
            except (ValueError, TypeError, AttributeError) as exc:
                raise UnparseableRowError(line_no, str(exc)) from exc
            rows.append((d, line_no, values))
    if not rows:
        raise EmptySeriesError(f"no data rows in {path}")

    rows.sort(key=lambda r: (r[0], r[1]))
    for prev, cur in zip(rows, rows[1:]):
        if cur[0] == prev[0]:
            raise UnparseableRowError(cur[1], f"duplicate date {cur[0]}")

    columns = np.array([r[2] for r in rows], dtype=float)
    series = StockSeries(
        symbol=symbol or path.stem,
        dates=[r[0] for r in rows],
        open=columns[:, 0],
        high=columns[:, 1],
        low=columns[:, 2],
        close=columns[:, 3],
        volume=columns[:, 4],
    )
    series.validate()
    return series


def write_stock_csv(series: StockSeries, path: str | Path) -> None:
    """Write a StockSeries so that load_stock_csv round-trips it exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("Date",) + STOCK_COLUMNS)
        for i, d in enumerate(series.dates):
            writer.writerow(
                [
                    d.isoformat(),
                    repr(float(series.open[i])),
                    repr(float(series.high[i])),
                    repr(float(series.low[i])),
                    repr(float(series.close[i])),
                    repr(float(series.volume[i])),
                ]
            )


def load_tweets(path: str | Path, handle: str = "") -> TweetCorpus:
    """Read line-delimited JSON tweets into a date-sorted corpus.

    Each line needs ``date`` (ISO day) and ``text``; ``id`` and ``pos_text``
    are optional. Missing ids are assigned sequentially in file order.
    Raises UnparseableRecordError or EmptyCorpusError.
    """
    tweets = []
    seen_ids = set()
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                raw = record["text"]
                d = date.fromisoformat(str(record["date"]))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
                raise UnparseableRecordError(line_no, str(exc)) from exc
            tweet_id = str(record.get("id", len(tweets)))
            if tweet_id in seen_ids:
                raise UnparseableRecordError(line_no, f"duplicate id {tweet_id!r}")
            seen_ids.add(tweet_id)
            pos_text = record.get("pos_text")
            tweets.append(
                Tweet(
                    id=tweet_id,
                    date=d,
                    raw_text=raw,
                    cleaned_text=clean_tweet(raw),
                    pos_tagged_text=None if pos_text is None else str(pos_text),
                )
            )
    if not tweets:
        raise EmptyCorpusError(f"no tweet records in {path}")
    tweets.sort(key=lambda t: t.date)
    return TweetCorpus(tweets=tweets, handle=handle)

"""Loading and cleaning of stock price series and tweet corpora.

Stock data arrives as OHLCV CSV files (``Date,Open,High,Low,Close,Volume``,
ISO dates, extra columns ignored). Tweets arrive as line-delimited JSON with
keys ``date`` and ``text`` plus optional ``id`` and ``pos_text``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    EmptyCorpusError,
    EmptySeriesError,
    MissingColumnError,
    UnknownColumnError,
    UnparseableRecordError,
    UnparseableRowError,
)

STOCK_COLUMNS = ("Open", "High", "Low", "Close", "Volume")

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
# Keeps the newlines that separate the texts of a batch.
_NON_ALNUM_RE = re.compile(r"[^a-z0-9 \n]")
_DAY_RE = re.compile(r"\d{4}-\d\d-\d\d", re.ASCII)
_TIMESTAMP_RE = re.compile(r"(\d{4}-\d\d-\d\d[T ]\d\d:\d\d(?::\d\d)?)(?:\.\d+)?(Z|[+-]\d\d:\d\d)?", re.ASCII)

_decode = json.JSONDecoder().raw_decode


@dataclass
class MasterDataset:
    """Float columns on a trading calendar plus the prediction target column.

    A stock series is one holding the STOCK_COLUMNS, with target Close and
    its symbol; the pipeline joins sentiment columns onto it.
    """

    calendar: list[date]
    columns: dict[str, np.ndarray]
    target_column: str = "Close"
    symbol: str = ""

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


class Tweet(NamedTuple):
    """One row of a TweetCorpus."""

    id: str
    date: date
    raw_text: str
    cleaned_text: str
    pos_tagged_text: str | None = None


@dataclass
class TweetCorpus:
    """Tweets as columns, sorted by date ascending with unique ids.

    ``ordinals`` holds each tweet's ``date.toordinal()``; iterating yields
    Tweet rows. ``sources`` counts the tweet files merged into the corpus;
    with more than one, each id is ``<file index>:<id in its file>``.
    """

    ids: list[str]
    ordinals: np.ndarray
    raw_texts: list[str]
    cleaned_texts: list[str]
    pos_texts: list[str | None]
    sources: int = 1

    @classmethod
    def by_date(cls, ids, ordinals, raw_texts, cleaned_texts, pos_texts, sources: int = 1) -> TweetCorpus:
        """The corpus of these columns in date order; tweets of one day keep theirs."""
        ordinals = np.asarray(ordinals, dtype=np.int64)
        order = np.argsort(ordinals, kind="stable")
        take = order.tolist()
        ids, raw_texts, cleaned_texts, pos_texts = ([column[i] for i in take] for column in (
            ids, raw_texts, cleaned_texts, pos_texts))
        return cls(ids, ordinals[order], raw_texts, cleaned_texts, pos_texts, sources)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Tweet]:
        days = map(date.fromordinal, self.ordinals.tolist())
        return map(Tweet, self.ids, days, self.raw_texts, self.cleaned_texts, self.pos_texts)


def clean_tweets(raws: list[str]) -> list[str]:
    """Normalize tweet texts for scoring, one output per input.

    Lowercases, removes URLs and @mentions, keeps hashtag words without the
    '#', drops everything outside ASCII letters/digits/space, and collapses
    whitespace. Idempotent; an empty text yields an empty string.
    """
    if not raws:
        return []
    # Each text has its whitespace collapsed, so none holds a newline and
    # they can be cleaned as one string: no URL or mention spans whitespace.
    text = "\n".join(" ".join(raw.lower().split()) for raw in raws)
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    # drops '#' (keeping the hashtag word) along with all other symbols
    text = _NON_ALNUM_RE.sub("", text)
    return [" ".join(part.split()) for part in text.split("\n")]


def clean_tweet(raw: str) -> str:
    """One tweet's text cleaned as by clean_tweets."""
    return clean_tweets([raw])[0]


def parse_day(text: str) -> date:
    """A ``YYYY-MM-DD`` date; any other form raises ValueError.

    ``date.fromisoformat`` alone would also take ``20200102`` and week
    dates on Python 3.11 but not on 3.10.
    """
    if _DAY_RE.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date")
    return date.fromisoformat(text)


def load_stock_csv(path: str | Path, symbol: str | None = None) -> MasterDataset:
    """Read an OHLCV CSV into a MasterDataset of the STOCK_COLUMNS, sorted by date.

    Extra columns are ignored. Raises MissingColumnError, EmptySeriesError, or
    UnparseableRowError with the line number for a bad or repeated date, a
    price not finite and > 0, or a volume not finite and >= 0.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in ("Date",) + STOCK_COLUMNS:
            if col not in header:
                raise MissingColumnError(col)
        rows = []
        for row in reader:
            try:
                d = parse_day(row["Date"].strip())
                values = tuple(float(row[c]) for c in STOCK_COLUMNS)
            except (ValueError, TypeError, AttributeError) as exc:
                raise UnparseableRowError(reader.line_num, str(exc)) from exc
            # Volume is the last of the STOCK_COLUMNS.
            if not all(map(math.isfinite, values)) or min(values[:-1]) <= 0 or values[-1] < 0:
                raise UnparseableRowError(reader.line_num, f"prices must be finite and > 0, volume finite "
                                          f"and >= 0, not {dict(zip(STOCK_COLUMNS, values))}")
            rows.append((d, reader.line_num, values))
    if not rows:
        raise EmptySeriesError(f"no data rows in {path}")

    rows.sort(key=lambda r: (r[0], r[1]))
    for prev, cur in zip(rows, rows[1:]):
        if cur[0] == prev[0]:
            raise UnparseableRowError(cur[1], f"duplicate date {cur[0]}")

    columns = np.array([r[2] for r in rows], dtype=float)
    return MasterDataset([r[0] for r in rows], dict(zip(STOCK_COLUMNS, columns.T)),
                         symbol=symbol or path.stem)


def write_stock_csv(series: MasterDataset, path: str | Path) -> None:
    """Write a MasterDataset as CSV with a Date column first; load_stock_csv
    and load_master_csv read back its exact values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Date", *series.columns])
        columns = list(series.columns.values())
        for i, d in enumerate(series.calendar):
            writer.writerow([d.isoformat()] + [repr(float(column[i])) for column in columns])


def parse_tweet_date(text: str) -> date:
    """The day of a ``YYYY-MM-DD`` date, or the UTC day of an ISO timestamp.

    A timestamp is ``YYYY-MM-DD``, ``T`` or a space, ``HH:MM[:SS[.frac]]``
    and an optional ``Z``, ``+HH:MM`` or ``-HH:MM`` offset (none means
    UTC); the same strings parse on every Python version.
    """
    try:
        return parse_day(text)
    except ValueError:
        match = _TIMESTAMP_RE.fullmatch(text)
        if match is None:
            raise
    stamp, offset = match.groups()
    # Without the fraction, Python 3.10 parses every string the pattern matches.
    local = datetime.fromisoformat(stamp + ("+00:00" if offset in (None, "Z") else offset))
    return local.astimezone(timezone.utc).date()


def load_tweets(path: str | Path) -> TweetCorpus:
    """Read line-delimited JSON tweets into a date-sorted corpus.

    Each line needs ``date`` (ISO day or timestamp, see parse_tweet_date) and
    ``text``; ``id`` and ``pos_text`` are optional. Missing ids are assigned
    sequentially in file order. Lines are checked in file order, so the
    first bad one is reported. Raises UnparseableRecordError or
    EmptyCorpusError.
    """
    rows = []
    seen_ids = set()
    day_ordinals: dict[str, int] = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip(" \t\n\r")  # JSON's whitespace, which json.loads skips
            try:
                try:
                    record, end = _decode(text)
                except json.JSONDecodeError:
                    end = -1
                if end != len(text):  # json.loads names the error, or the line is blank
                    if not line.strip():
                        continue
                    record = json.loads(line.rstrip("\n"))  # so the error names this line alone
                raw = record["text"]
                day = str(record["date"])
                if day not in day_ordinals:
                    day_ordinals[day] = parse_tweet_date(day).toordinal()
            except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
                raise UnparseableRecordError(line_no, str(exc)) from exc
            pos_text = record.get("pos_text")
            if not isinstance(raw, str):
                raise UnparseableRecordError(line_no, f"text is a {type(raw).__name__}, not a string")
            if not isinstance(pos_text, (str, type(None))):
                raise UnparseableRecordError(
                    line_no, f"pos_text is a {type(pos_text).__name__}, not a string")
            tweet_id = str(record.get("id", len(rows)))
            if tweet_id in seen_ids:
                raise UnparseableRecordError(line_no, f"duplicate id {tweet_id!r}")
            seen_ids.add(tweet_id)
            rows.append((tweet_id, day_ordinals[day], raw, pos_text))
    if not rows:
        raise EmptyCorpusError(f"no tweet records in {path}")
    ids, ordinals, raws, pos_texts = zip(*rows)
    # Cleaned as one batch once every record has parsed.
    return TweetCorpus.by_date(ids, ordinals, raws, clean_tweets(raws), pos_texts)

"""Loading and cleaning of day-indexed tables and tweet corpora.

Stock and master datasets are dated CSV files: a header of unique names
with a ``Date`` column, then one row per trading day of a ``YYYY-MM-DD``
date and finite floats. A stock file needs ``Open,High,Low,Close,Volume``
and ignores other columns; a master file is read whole. Tweets arrive as
line-delimited JSON with keys ``date`` and ``text`` plus optional ``id`` and
``pos_text``, as write_tweets writes them.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import closing
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import islice
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
TARGET_COLUMN = "Close"  # the column every model predicts

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
# Keeps the newlines that separate the texts of a batch.
_NON_ALNUM_RE = re.compile(r"[^a-z0-9 \n]")
_DAY_RE = re.compile(r"\d{4}-\d\d-\d\d", re.ASCII)
_TIMESTAMP_RE = re.compile(r"(\d{4}-\d\d-\d\d[T ]\d\d:\d\d(?::\d\d)?)(?:\.\d+)?(Z|[+-]\d\d:\d\d)?", re.ASCII)

_decode = json.JSONDecoder().raw_decode
_ID_TYPES = (str, int, type(None))  # exact types: a bool is not an id


@dataclass
class MasterDataset:
    """Float columns on a trading calendar, the TARGET_COLUMN among them.

    A stock series is one holding the STOCK_COLUMNS and its symbol; the
    pipeline joins sentiment columns onto it.
    """

    calendar: list[date]
    columns: dict[str, np.ndarray]
    symbol: str = ""

    def __post_init__(self):
        n = len(self.calendar)
        for name, values in self.columns.items():
            if len(values) != n:
                raise ValueError(f"column {name!r} has {len(values)} rows, calendar has {n}")
        if TARGET_COLUMN not in self.columns:
            raise UnknownColumnError(TARGET_COLUMN)

    @property
    def n_rows(self) -> int:
        return len(self.calendar)

    def feature_matrix(self) -> np.ndarray:
        """Columns stacked in order as a (n_rows, n_columns) float array."""
        return np.column_stack([self.columns[name] for name in self.columns])


class Tweet(NamedTuple):
    """One row of a TweetCorpus."""

    id: str
    date: date
    raw_text: str
    pos_tagged_text: str | None = None


@dataclass
class TweetCorpus:
    """Tweets as columns, sorted by date ascending with unique ids.

    ``ordinals`` holds each tweet's ``date.toordinal()``; iterating yields
    Tweet rows. ``sources`` counts the tweet files load_tweets read into the
    corpus; with more than one, each id is ``<file index>:<id in its file>``.
    """

    ids: list[str]
    ordinals: np.ndarray
    raw_texts: list[str]
    pos_texts: list[str | None]
    sources: int = 1

    @classmethod
    def by_date(cls, ids, ordinals, raw_texts, pos_texts, sources: int = 1) -> TweetCorpus:
        """The corpus of these columns in date order; tweets of one day keep theirs."""
        ordinals = np.asarray(ordinals, dtype=np.int64)
        order = np.argsort(ordinals, kind="stable")
        take = order.tolist()
        ids, raw_texts, pos_texts = ([column[i] for i in take] for column in (ids, raw_texts, pos_texts))
        return cls(ids, ordinals[order], raw_texts, pos_texts, sources)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Tweet]:
        days = map(date.fromordinal, self.ordinals.tolist())
        return map(Tweet, self.ids, days, self.raw_texts, self.pos_texts)

    def id_rows(self) -> tuple[dict[str, int], set[str]]:
        """The row of each name of a tweet, and the names of several tweets. A tweet
        is named by its id and, with several sources, by its id in its own file."""
        rows, ambiguous = {}, set()
        for row, tweet_id in enumerate(self.ids):
            for name in (tweet_id, tweet_id.partition(":")[2]) if self.sources > 1 else (tweet_id,):
                if rows.setdefault(name, row) != row:
                    ambiguous.add(name)
        return rows, ambiguous


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


def parse_day(text: str) -> date:
    """A ``YYYY-MM-DD`` date; any other form raises ValueError.

    ``date.fromisoformat`` alone would also take ``20200102`` and week
    dates on Python 3.11 but not on 3.10.
    """
    if _DAY_RE.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date")
    return date.fromisoformat(text)


def _read_lines(path: str | Path, encoding: str = "utf-8", newline: str | None = None,
                error: type[UnparseableRowError] = UnparseableRowError) -> Iterator[str]:
    """Yield a UTF-8 file's lines as ``open`` splits them, a lone CR ending one too.

    At a byte that does not decode, yields the lines before its own not yet
    yielded, then raises ``error`` naming that line and the byte's position
    in it. Only then is the file read a second time.
    """
    done = 0
    try:
        with open(path, encoding=encoding, newline=newline) as fh:
            for done, line in enumerate(fh, start=1):
                yield line
        return
    except UnicodeDecodeError:  # its position counts from a block of the file, not from a line
        pass
    # An undecodable byte reads as a lone surrogate, so only its line fails to decode again.
    with open(path, encoding=encoding, errors="surrogateescape", newline=newline) as fh:
        for line_no, line in enumerate(islice(fh, done, None), start=done + 1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(line_no, str(exc)) from exc
            yield line


def read_csv(path: str | Path, required: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield a CSV's header, then each data row, as (line number, fields) in file order.

    Reads UTF-8 with or without a byte-order mark and skips blank lines. Raises
    UnparseableRowError at line 1 for a repeated column name, MissingColumnError
    for the first of ``required`` the header lacks, and UnparseableRowError for
    a row whose field count is not the header's or a byte that is not UTF-8.
    """
    with closing(_read_lines(path, "utf-8-sig", newline="")) as lines:
        reader = csv.reader(lines)
        header = next(reader, [])
        if len(set(header)) != len(header):
            raise UnparseableRowError(reader.line_num, f"repeated column name in {header}")
        missing = [name for name in required if name not in header]
        if missing:
            raise MissingColumnError(f"no {missing[0]} column in {path}")
        yield reader.line_num, header
        for row in filter(None, reader):  # a blank line is an empty row
            if len(row) != len(header):
                raise UnparseableRowError(reader.line_num, f"expected {len(header)} fields, got {len(row)}")
            yield reader.line_num, row


def write_csv(path: str | Path, header, rows, line_end: str = "\r\n") -> Path:
    """Write a header and rows of values as UTF-8 CSV, quoting a field only where it must be.
    Each field is written as its str(): a float, numpy's too, is its shortest round-trip
    repr, a date is YYYY-MM-DD and None is an empty field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def _read_dated_csv(path: str | Path, names: tuple[str, ...] | None = None,
                    ) -> tuple[list[date], list[str], np.ndarray, list[int]]:
    """A dated CSV's rows sorted by date: (calendar, names, values, line numbers).

    ``values`` holds the named columns as a (rows, len(names)) float array;
    without names, every column but Date in file order. Raises the errors of
    read_csv, EmptySeriesError without data rows, and UnparseableRowError
    with the line number for a date not YYYY-MM-DD, a value not a finite
    float or a repeated date.
    """
    csv_rows = read_csv(path, ("Date", *(names or ())))
    _, header = next(csv_rows)
    names = [name for name in header if name != "Date"] if names is None else list(names)
    day_field = header.index("Date")
    fields = [header.index(name) for name in names]
    rows = []
    for line_no, row in csv_rows:
        try:
            day = parse_day(row[day_field].strip())
            values = [float(row[i]) for i in fields]
        except ValueError as exc:
            raise UnparseableRowError(line_no, str(exc)) from exc
        if not all(map(math.isfinite, values)):
            raise UnparseableRowError(line_no, f"non-finite value in {dict(zip(names, values))}")
        rows.append((day, line_no, values))
    if not rows:
        raise EmptySeriesError(f"no data rows in {path}")
    rows.sort(key=lambda r: r[0])  # stable, so a repeated date is reported at its later line
    for prev, cur in zip(rows, rows[1:]):
        if cur[0] == prev[0]:
            raise UnparseableRowError(cur[1], f"duplicate date {cur[0]}")
    calendar, lines, values = zip(*rows)
    return list(calendar), names, np.array(values, dtype=float), list(lines)


def load_stock_csv(path: str | Path, symbol: str | None = None) -> MasterDataset:
    """Read an OHLCV CSV into a MasterDataset of the STOCK_COLUMNS, sorted by date.

    Other columns are ignored. Raises the errors of _read_dated_csv, and
    UnparseableRowError naming the first line in the file whose prices are
    not all > 0 or whose volume is < 0.
    """
    calendar, _, values, lines = _read_dated_csv(path, STOCK_COLUMNS)
    # Volume is the last of the STOCK_COLUMNS.
    bad = np.flatnonzero((values[:, :-1] <= 0).any(axis=1) | (values[:, -1] < 0))
    if bad.size:
        row = min(bad, key=lines.__getitem__)
        raise UnparseableRowError(lines[row], f"prices must be > 0 and volume >= 0, not "
                                  f"{dict(zip(STOCK_COLUMNS, values[row].tolist()))}")
    return MasterDataset(calendar, dict(zip(STOCK_COLUMNS, values.T)), symbol=symbol or Path(path).stem)


def load_master_csv(path: str | Path) -> MasterDataset:
    """Read a master dataset CSV written by write_stock_csv: every column but
    Date, in file order. Raises the errors of _read_dated_csv, and
    UnknownColumnError without a TARGET_COLUMN."""
    calendar, names, values, _ = _read_dated_csv(path)
    return MasterDataset(calendar, dict(zip(names, values.T)))


def write_stock_csv(series: MasterDataset, path: str | Path) -> None:
    """Write a MasterDataset as a dated CSV with the Date column first;
    load_stock_csv and load_master_csv read back its exact values."""
    columns = [np.asarray(column, dtype=float).tolist() for column in series.columns.values()]
    write_csv(path, ["Date", *series.columns], zip(series.calendar, *columns))


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


def _read_tweet_file(path: str | Path, ordinals: list[int], raws: list[str],
                     pos_texts: list[str | None]) -> list[str]:
    """One tweet file's ids in file order; appends its day ordinals, raw texts and pos texts."""
    ids = []
    seen_ids = set()
    day_ordinals: dict[str, int] = {}
    with closing(_read_lines(path, error=UnparseableRecordError)) as lines:
        for line_no, line in enumerate(lines, start=1):
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
            tweet_id = record.get("id")
            if type(tweet_id) not in _ID_TYPES:
                raise UnparseableRecordError(
                    line_no, f"id is a {type(tweet_id).__name__}, not a string or an integer")
            tweet_id = str(len(ids) if tweet_id is None else tweet_id)
            if tweet_id in seen_ids:
                raise UnparseableRecordError(line_no, f"duplicate id {tweet_id!r}")
            seen_ids.add(tweet_id)
            ids.append(tweet_id)
            ordinals.append(day_ordinals[day])
            raws.append(raw)
            pos_texts.append(pos_text)
    if not ids:
        raise EmptyCorpusError(f"no tweet records in {path}")
    return ids


def load_tweets(path: str | Path, *more_paths: str | Path) -> TweetCorpus:
    """Read line-delimited JSON tweets from one or more files into one date-sorted corpus.

    Each line needs ``date`` (ISO day or timestamp, see parse_tweet_date) and
    ``text``; ``id`` and ``pos_text`` are optional, and null counts as absent.
    An id is a string or an integer, kept as its decimal string and unique in
    its file, where missing ids are numbered from 0. With several files, ids
    become ``<file index>:<id>`` and an error names its file. Lines are checked
    in file order, so the first bad one, a byte that is not UTF-8 included, is
    reported. Raises UnparseableRecordError or EmptyCorpusError.
    """
    paths = (path, *more_paths)
    ids, ordinals, raws, pos_texts = [], [], [], []
    for index, tweet_file in enumerate(paths):
        try:
            file_ids = _read_tweet_file(tweet_file, ordinals, raws, pos_texts)
        except UnparseableRecordError as exc:
            if not more_paths:
                raise
            raise UnparseableRecordError(exc.line_number, exc.reason, tweet_file) from exc
        ids += [f"{index}:{tweet_id}" for tweet_id in file_ids] if more_paths else file_ids
    return TweetCorpus.by_date(ids, ordinals, raws, pos_texts, len(paths))


def write_tweets(corpus: TweetCorpus, path: str | Path) -> None:
    """Write a corpus in date order as the JSON lines load_tweets reads: per tweet,
    the bytes json.dumps gives ``{"id", "date", "text": raw text}``, plus
    ``pos_text`` when set."""
    encode = json.JSONEncoder().encode
    ordinals = corpus.ordinals.tolist()
    days = {ordinal: encode(date.fromordinal(ordinal).isoformat()) for ordinal in set(ordinals)}
    pos_fields = ["" if pos is None else f', "pos_text": {encode(pos)}' for pos in corpus.pos_texts]
    lines = map('{{"id": {}, "date": {}, "text": {}{}}}\n'.format, map(encode, corpus.ids),
                map(days.__getitem__, ordinals), map(encode, corpus.raw_texts), pos_fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))

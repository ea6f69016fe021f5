import json
from datetime import date

import numpy as np
import pytest

from sentistock.ingest import Tweet, TweetCorpus
from sentistock.mapping import MasterDataset


STOCK_CSV = """Date,Open,High,Low,Close,Volume
2023-01-02,10.0,10.5,9.5,10.0,1000
2023-01-03,10.1,11.2,10.0,11.0,1500
2023-01-04,11.0,12.3,10.9,12.0,1200
2023-01-05,12.0,12.4,11.5,12.2,900
2023-01-06,12.2,12.9,12.0,12.5,1100
"""


@pytest.fixture
def stock_csv(tmp_path):
    path = tmp_path / "stock.csv"
    path.write_text(STOCK_CSV)
    return path


@pytest.fixture
def tweets_jsonl(tmp_path):
    records = [
        {"id": "a", "date": "2023-01-02", "text": "Strong growth ahead! #markets", "pos_text": "strong_ADJ growth_NOUN"},
        {"id": "b", "date": "2023-01-03", "text": "Fears of a crash https://t.co/x", "pos_text": "fears_NOUN crash_NOUN"},
        {"id": "c", "date": "2023-01-04", "text": "@analyst steady as she goes", "pos_text": "steady_ADJ"},
    ]
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


def corpus_of(tweets):
    """A TweetCorpus whose columns hold these Tweet rows, in the given order."""
    ids, days, raws, pos = (list(column) for column in zip(*tweets)) if tweets else ([],) * 4
    return TweetCorpus(ids, np.array([d.toordinal() for d in days], dtype=np.int64), raws, pos)


def make_corpus(entries):
    """entries: list of (id, iso_date, text), the text both raw and POS-tagged;
    a clean text (lowercase words) is its own cleaned text."""
    tweets = [
        Tweet(id=i, date=date.fromisoformat(d), raw_text=t, pos_tagged_text=t)
        for i, d, t in entries
    ]
    tweets.sort(key=lambda t: t.date)
    return corpus_of(tweets)


def make_master(close, extra_columns=None, start=date(2023, 1, 2)):
    """Minimal master dataset with the given close prices."""
    from sentistock.synth import trading_calendar

    close = np.asarray(close, dtype=float)
    n = close.size
    columns = {
        "Open": close * 0.99,
        "High": close * 1.01,
        "Low": close * 0.98,
        "Close": close.copy(),
        "Volume": np.full(n, 1000.0),
    }
    if extra_columns:
        columns.update({k: np.asarray(v, dtype=float) for k, v in extra_columns.items()})
    return MasterDataset(calendar=trading_calendar(start, n), columns=columns)

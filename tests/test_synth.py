import hashlib
from datetime import date, timedelta

import numpy as np
import pytest

from sentistock.ingest import STOCK_COLUMNS, TweetCorpus, clean_tweets, write_stock_csv
from sentistock.mapping import SENTIMENT_COLUMNS
from sentistock.synth import (
    _SAMPLE_PHRASES,
    _ohlcv_from_close,
    random_tweets,
    random_walk_stock,
    sentiment_driven_master,
    sine_stock,
    trading_calendar,
)


def reference_trading_calendar(start, n_days):
    """The per-day calendar: step one day at a time, keep Monday to Friday."""
    days = []
    current = start
    while len(days) < n_days:
        if current.weekday() <= 4:
            days.append(current)
        current += timedelta(days=1)
    return days


def reference_sentiment_driven_master(n_days, signal_strength=0.8, noise_sigma=0.02, seed=0):
    """The per-day price path: one close at a time from the day before."""
    rng = np.random.default_rng(seed)
    sent_pos = rng.uniform(0.0, 0.1, n_days)
    sent_neg = rng.uniform(0.0, 0.1, n_days)
    sent_neu = rng.uniform(0.0, 0.1, n_days)
    noise = rng.normal(0.0, noise_sigma, n_days)
    close = np.empty(n_days)
    close[0] = 10.0
    for d in range(n_days - 1):
        close[d + 1] = close[d] + signal_strength * (sent_pos[d] - sent_neg[d]) + noise[d]
    sentiment = dict(zip(SENTIMENT_COLUMNS, (sent_pos, sent_neg, sent_neu)))
    columns = {**_ohlcv_from_close(close, seed + 1), **sentiment}
    return reference_trading_calendar(date(2020, 1, 1), n_days), columns


@pytest.mark.parametrize("n_days", [-6, 0, 1, 4, 5, 6, 7, 11, 340, 1250])
@pytest.mark.parametrize("start", [date(2020, 1, 6) + timedelta(days=k) for k in range(7)],
                         ids=["mon", "tue", "wed", "thu", "fri", "sat", "sun"])
def test_trading_calendar_matches_per_day_steps(start, n_days):
    assert trading_calendar(start, n_days) == reference_trading_calendar(start, n_days)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.02])
@pytest.mark.parametrize("signal_strength", [0.0, 0.8])
@pytest.mark.parametrize("n_days", [1, 2, 3, 340, 1250])
@pytest.mark.parametrize("seed", [0, 3, 7919])
def test_sentiment_driven_master_matches_per_day_closes(seed, n_days, signal_strength, noise_sigma):
    master = sentiment_driven_master(n_days, signal_strength, noise_sigma, seed)
    calendar, columns = reference_sentiment_driven_master(n_days, signal_strength, noise_sigma, seed)
    assert master.calendar == calendar
    assert list(master.columns) == list(columns)
    for name, values in columns.items():
        assert master.columns[name].dtype == values.dtype
        assert master.columns[name].tobytes() == values.tobytes(), name


def test_train_cell_master_bytes_pinned(tmp_path):
    # the benchmark's train_cell input at seed 0; its stored reference outputs rest on these bytes
    write_stock_csv(sentiment_driven_master(340, seed=0), tmp_path / "master.csv")
    assert hashlib.sha256((tmp_path / "master.csv").read_bytes()).hexdigest() == \
        "6c471544983e25c11353c6252804d1a02d6117c245e6113ac989f550487bb312"


@pytest.mark.parametrize("n_days", [0, 1])
@pytest.mark.parametrize("generator, columns", [
    pytest.param(sine_stock, STOCK_COLUMNS, id="sine"),
    pytest.param(random_walk_stock, STOCK_COLUMNS, id="walk"),
    pytest.param(sentiment_driven_master, STOCK_COLUMNS + SENTIMENT_COLUMNS, id="sentiment"),
])
def test_generators_give_short_series(generator, columns, n_days):
    master = generator(n_days)
    assert master.n_rows == n_days
    assert master.calendar == trading_calendar(date(2020, 1, 1), n_days)
    assert list(master.columns) == list(columns)
    assert all(values.shape == (n_days,) and values.dtype == np.float64 for values in master.columns.values())


def reference_random_tweets(calendar, per_day=1.5, seed=0):
    """The per-tweet generator: one choice and one offset draw per tweet."""
    rng = np.random.default_rng(seed)
    raws, ordinals = [], []
    for day in calendar:
        for _ in range(rng.poisson(per_day)):
            raws.append(str(rng.choice(_SAMPLE_PHRASES)))
            ordinals.append(day.toordinal() - int(rng.integers(0, 2)))  # some tweets land on weekends
    ids = [str(i) for i in range(len(raws))]
    return TweetCorpus.by_date(ids, ordinals, raws, raws)


@pytest.mark.parametrize("per_day", [0, 0.4, 1.5, 20, 80])
@pytest.mark.parametrize("seed", [0, 3, 7919])
@pytest.mark.parametrize("n_days", [0, 1, 60, 300])
def test_random_tweets_match_per_tweet_draws(n_days, seed, per_day):
    calendar = trading_calendar(date(2020, 1, 1), n_days)
    corpus = random_tweets(calendar, per_day=per_day, seed=seed)
    expected = reference_random_tweets(calendar, per_day=per_day, seed=seed)
    assert corpus.ids == expected.ids
    assert corpus.ordinals.dtype == expected.ordinals.dtype == np.int64
    assert corpus.ordinals.tobytes() == expected.ordinals.tobytes()
    assert corpus.raw_texts == expected.raw_texts
    assert corpus.pos_texts == expected.pos_texts
    assert corpus.sources == expected.sources
    if n_days == 0 or per_day == 0:
        assert len(corpus) == 0

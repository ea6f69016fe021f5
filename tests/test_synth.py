from datetime import date

import numpy as np
import pytest

from sentistock.ingest import TweetCorpus, clean_tweets
from sentistock.synth import _SAMPLE_PHRASES, random_tweets, trading_calendar


def reference_random_tweets(calendar, per_day=1.5, seed=0):
    """The per-tweet generator: one choice and one offset draw per tweet."""
    rng = np.random.default_rng(seed)
    raws, ordinals = [], []
    for day in calendar:
        for _ in range(rng.poisson(per_day)):
            raws.append(str(rng.choice(_SAMPLE_PHRASES)))
            ordinals.append(day.toordinal() - int(rng.integers(0, 2)))  # some tweets land on weekends
    ids = [str(i) for i in range(len(raws))]
    return TweetCorpus.by_date(ids, ordinals, raws, clean_tweets(raws), raws)


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
    assert corpus.cleaned_texts == expected.cleaned_texts
    assert corpus.pos_texts == expected.pos_texts
    assert corpus.sources == expected.sources
    if n_days == 0 or per_day == 0:
        assert len(corpus) == 0

"""Cleaning raw tweets and scoring them with the lexicon scorer.
=================================================================

Walks through the first pipeline stage: raw text -> cleaned text ->
per-tweet class probabilities, for each scoring variant.
"""

from sentistock import clean_tweet, score_corpus, score_tweet
from sentistock.sentiment import VARIANTS, ScorerConfig
from sentistock.synth import random_tweets, trading_calendar
from datetime import date

# Cleaning strips URLs, mentions and symbols, keeps hashtag words, lowercases.
samples = [
    "Record HIGH for the index! https://t.co/abc #markets",
    "@analyst sees losses ahead...   badly",
    "GDP up 7% — growth continues",
]
print("-- cleaning --")
for raw in samples:
    print(f"{raw!r:60} -> {clean_tweet(raw)!r}")

# The lexicon scorer counts positive/negative word hits among the tokens.
# With c+ positive hits, c- negative hits and n tokens:
#   u = (c+ - c-) / max(1, c+ + c-),  s = (c+ + c-) / n
#   p_pos = s * max(u, 0), p_neg = s * max(-u, 0), p_neu = the rest
config = ScorerConfig(kind="lexicon")
print("\n-- lexicon scoring --")
for text in ("growth growth crash", "crash", "nothing eventful today"):
    score = score_tweet(config, text)
    print(f"{text!r:30} -> pos={score.p_pos:.3f} neg={score.p_neg:.3f} "
          f"neu={score.p_neu:.3f} label={score.label}")

# Scoring a whole corpus gives each variant an (n_tweets, 3) array of
# (p_pos, p_neg, p_neu) rows. Each text form is scored once: the two
# cleaned_* variants share one array, the two pos_* variants another.
calendar = trading_calendar(date(2023, 1, 2), 10)
corpus = random_tweets(calendar, per_day=1.0, seed=0)
table = score_corpus(config, corpus, VARIANTS)
print(f"\nscored {len(corpus)} tweets x {len(VARIANTS)} variants "
      f"-> arrays of shape {table.probabilities(VARIANTS[0]).shape}")
# table.get builds one tweet's SentimentScore, with its argmax label, on demand.
labels = [table.get(tweet_id, variant).label
          for variant in table.variants for tweet_id in table.tweet_ids]
for label in ("positive", "negative", "neutral"):
    print(f"  {label}: {labels.count(label)}")

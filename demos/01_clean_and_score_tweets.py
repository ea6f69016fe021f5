"""Cleaning raw tweets and scoring them with the lexicon scorer.
=================================================================

Walks through the first pipeline stage: raw text -> cleaned text ->
per-tweet class probabilities, for each scoring variant.
"""

from datetime import date

import numpy as np

from sentistock import clean_tweets, labels, score_corpus, score_texts
from sentistock.sentiment import LABELS, VARIANTS
from sentistock.synth import random_tweets, trading_calendar

# Cleaning strips URLs, mentions and symbols, keeps hashtag words, lowercases.
samples = [
    "Record HIGH for the index! https://t.co/abc #markets",
    "@analyst sees losses ahead...   badly",
    "GDP up 7% — growth continues",
]
print("-- cleaning --")
for raw in samples:
    print(f"{raw!r:60} -> {clean_tweets([raw])[0]!r}")

# The lexicon scorer counts hits of the package's positive and negative
# word lists (sentiment.DEFAULT_POSITIVE_WORDS, DEFAULT_NEGATIVE_WORDS) among
# the tokens. With c+ positive hits, c- negative hits and n tokens:
#   u = (c+ - c-) / max(1, c+ + c-),  s = (c+ + c-) / n
#   p_pos = s * max(u, 0), p_neg = s * max(-u, 0), p_neu = the rest
# Each text's label is its argmax class, ties broken neutral > positive > negative.
print("\n-- lexicon scoring --")
texts = ["growth growth crash", "crash", "nothing eventful today"]
probabilities = score_texts(texts)
for text, (p_pos, p_neg, p_neu), label in zip(texts, probabilities, labels(probabilities)):
    print(f"{text!r:30} -> pos={p_pos:.3f} neg={p_neg:.3f} "
          f"neu={p_neu:.3f} label={LABELS[label]}")

# Scoring a whole corpus gives each variant an (n_tweets, 3) array of
# (p_pos, p_neg, p_neu) rows. Without a score file (None) the lexicon scores
# each text form once: the two cleaned_* variants share one array, the two
# pos_* variants another.
calendar = trading_calendar(date(2023, 1, 2), 10)
corpus = random_tweets(calendar, per_day=1.0, seed=0)
table = score_corpus(None, corpus, VARIANTS)
print(f"\nscored {len(corpus)} tweets x {len(VARIANTS)} variants "
      f"-> arrays of shape {table.probabilities(VARIANTS[0]).shape}")
# labels gives each row's class as an index into LABELS; count them over all variants.
counts = sum(np.bincount(labels(table.probabilities(variant)), minlength=3)
             for variant in table.variants)
for label, count in zip(LABELS, counts):
    print(f"  {label}: {count}")

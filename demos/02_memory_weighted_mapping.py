"""Mapping tweet scores onto trading days with a memory kernel.
================================================================

Shows how a burst of positive sentiment on one day decays over the
following trading days, for both kernel directions, and how the mapped
channels join the stock columns into the master dataset.
"""

import numpy as np

from sentistock import daily_aggregate, join_with_stock, memory_weighted_map, score_corpus
from sentistock.mapping import MemoryKernel
from sentistock.synth import random_tweets, random_walk_stock

stock = random_walk_stock(n_days=60, seed=1, symbol="DEMO")
corpus = random_tweets(stock.calendar, per_day=1.2, seed=2)
table = score_corpus(None, corpus, ["cleaned_prosus"])  # None: the lexicon scores

# Raw daily channels, one array per sentiment column: per-day mean of one-hot
# class contributions. Tweets on weekends roll forward to the next trading day.
daily = daily_aggregate(table.probabilities("cleaned_prosus"), corpus.ordinals, stock.calendar)
print(f"{len(corpus)} tweets over {stock.n_rows} trading days")
print(f"days with any sentiment: {int(np.sum(sum(daily.values()) > 0))}")

# A single positive spike, smoothed by both kernels (memory of 10 days).
# recency: yesterday counts most. literal: the oldest lag counts most.
spike = np.zeros(20)
spike[5] = 1.0
for mode in ("recency", "literal"):
    mapped = memory_weighted_map({"sent_pos": spike}, MemoryKernel(10, mode))
    profile = " ".join(f"{v:.2f}" for v in mapped["sent_pos"][5:17])
    print(f"{mode:8} response to a day-5 spike: {profile}")

# The mapped channels join the stock columns into one dataset.
mapped = memory_weighted_map(daily, MemoryKernel(30, "recency"))
master = join_with_stock(mapped, stock)
print(f"\nmaster dataset: {master.n_rows} rows x {len(master.columns)} columns")
print("columns:", ", ".join(master.columns))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 3))
    ax.plot(master.calendar, master.columns["sent_pos"], label="sent_pos")
    ax.plot(master.calendar, master.columns["sent_neg"], label="sent_neg")
    ax.set_title("memory-weighted sentiment channels")
    ax.legend()
    fig.autofmt_xdate()
    fig.tight_layout()
    fig.savefig("mapped_sentiment.png", dpi=100)
    print("wrote mapped_sentiment.png")
except ImportError:
    pass

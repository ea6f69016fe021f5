"""A full grid sweep over scoring variants and lookbacks.
==========================================================

Builds a synthetic stock series plus tweet corpus on disk, then runs the
whole pipeline for every (variant, lookback) cell and prints the summary
table the sweep writes. Also runs the sentiment-free baseline for the same
lookbacks, mirroring a with/without comparison.
"""

from pathlib import Path

from sentistock import run_grid, write_stock_csv, write_tweets
from sentistock.harness import ExperimentConfig
from sentistock.synth import random_tweets, sine_stock

workdir = Path("grid_demo")
workdir.mkdir(exist_ok=True)

stock = sine_stock(n_days=150, seed=10, symbol="DEMO")
stock_path = workdir / "DEMO.csv"
write_stock_csv(stock, stock_path)

tweets_path = workdir / "tweets.jsonl"
write_tweets(random_tweets(stock.calendar, per_day=1.5, seed=11), tweets_path)

common = dict(
    stock_file=str(stock_path),
    tweet_files=[str(tweets_path)],
    lookbacks=[3, 5, 10],
    hidden_units=8,
    epochs=40,
    patience=10,
    seed=0,
)

print("== with sentiment ==")
cfg = ExperimentConfig(variants=["cleaned_prosus", "pos_prosus"],
                       output_dir=str(workdir / "with"), **common)
for record in run_grid(cfg):
    status = "ok" if record.ok else f"FAILED at {record.failed_stage}"
    print(f"  {record.variant:15} w={record.lookback:<3} {status}")

print("\n== without sentiment ==")
cfg = ExperimentConfig(with_sentiment=False, output_dir=str(workdir / "without"), **common)
run_grid(cfg)

for label in ("with", "without"):
    summary = workdir / label / "summary_DEMO.csv"
    print(f"\n{summary}:")
    print(summary.read_text())

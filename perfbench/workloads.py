"""The three benchmark workloads: their inputs, one timed call, and its outputs.

Each workload builds its inputs from the seed with ``sentistock.synth`` and
drives one public entry point (``harness.run_grid`` or ``harness.run_master``)
as a single closed-loop client: the next call starts when the previous one
has returned. Series are shorter than the paper's 1250 days so that one call
takes 0.5-2 s and a 30-second run holds 15-50 calls; the BiLSTM's per-step
shapes (batch 32, hidden 50, lookback 60 for the paper-shape cell) are the
paper's, and each workload keeps the layer split that makes it a control:
neuralnet >= 70% of grid_e2e and >= 90% of train_cell, ingest + sentiment +
mapping >= 75% of corpus_heavy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from sentistock import harness, synth
from sentistock.ingest import load_tweets, write_stock_csv
from sentistock.sentiment import VARIANTS

SYMBOL = "BENCH"
MODEL_SEED = 0
TWEET_SEED_OFFSET = 7919
# Result files whose bytes must repeat exactly; others are only recorded.
GATED_SUFFIXES = ("_loss.csv", "_pred.csv")
GATED_PREFIX = "summary_"
SUMMARY_FIELDS = ("val_score", "r2", "rmse", "mae", "T", "acc")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str  # "run_grid" or "run_master"
    days: int
    tweets_per_day: float
    lookbacks: tuple[int, ...]
    hidden_units: int
    epochs: int
    expected_split: dict[str, float]  # minimum traced share of wall_s per layer group
    batch_size: int = 32

    @property
    def patience(self) -> int:
        # Above the epoch count, so every call trains exactly `epochs` epochs.
        return self.epochs + 1

    @property
    def cells(self) -> int:
        return len(VARIANTS) * len(self.lookbacks) if self.entry == "run_grid" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid_e2e",
            why="the paper's use: 4 lexicon variants x lookbacks {5, 20} from on-disk stock and tweets, "
                "reports written; training-bound, corpus reloaded per variant",
            entry="run_grid", days=300, tweets_per_day=20, lookbacks=(5, 20),
            hidden_units=50, epochs=1, expected_split={"neuralnet": 0.70},
        ),
        Workload(
            name="train_cell",
            why="one in-memory paper-shape BiLSTM cell (w=60, H=50, batch 32, 3 epochs); "
                "kernel-bound control for corpus- and grid-level changes",
            entry="run_master", days=340, tweets_per_day=0, lookbacks=(60,),
            hidden_units=50, epochs=3, expected_split={"neuralnet": 0.90},
        ),
        Workload(
            name="corpus_heavy",
            why="80 tweets/day with a tiny model (H=4, w=5); load/score/aggregate-bound "
                "control for kernel changes",
            entry="run_grid", days=60, tweets_per_day=80, lookbacks=(5,),
            hidden_units=4, epochs=1, expected_split={"corpus": 0.75},
        ),
    )
}


def config(workload: Workload, inputs: dict, out_dir: Path | None) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        stock_file=inputs.get("stock_file"),
        tweet_files=inputs.get("tweet_files", []),
        variants=list(VARIANTS),
        lookbacks=list(workload.lookbacks),
        hidden_units=workload.hidden_units,
        epochs=workload.epochs,
        batch_size=workload.batch_size,
        patience=workload.patience,
        output_dir=None if out_dir is None else str(out_dir),
        scrip=SYMBOL,
        seed=MODEL_SEED,
    )


def make_inputs(workload: Workload, seed: int, input_dir: Path, write: bool = True) -> dict:
    """Generate the workload's inputs from the seed; grid inputs go to disk.

    With write=False, grid inputs already on disk are only located.
    """
    if workload.entry == "run_master":
        return {"master": synth.sentiment_driven_master(workload.days, seed=seed)}
    stock_file = input_dir / f"{SYMBOL}.csv"
    tweet_file = input_dir / "tweets.jsonl"
    inputs = {"stock_file": str(stock_file), "tweet_files": [str(tweet_file)]}
    if not write:
        return inputs
    input_dir.mkdir(parents=True, exist_ok=True)
    stock = synth.random_walk_stock(workload.days, seed=seed, symbol=SYMBOL)
    write_stock_csv(stock, stock_file)
    corpus = synth.random_tweets(stock.calendar, per_day=workload.tweets_per_day,
                                 seed=seed + TWEET_SEED_OFFSET)
    with open(tweet_file, "w") as fh:
        for tweet in corpus:
            fh.write(json.dumps({"id": tweet.id, "date": tweet.date.isoformat(),
                                 "text": tweet.raw_text, "pos_text": tweet.pos_tagged_text}) + "\n")
    return inputs


@dataclass
class Outcome:
    """One call's wall time and what it produced."""

    wall_s: float
    records: list
    files: dict[str, str]  # result file name -> sha256; for run_master, named arrays
    summary: dict[str, dict[str, float]]  # cell key -> summary metrics

    @property
    def epochs(self) -> dict[str, int]:
        return {cell_key(r.variant, r.lookback): r.history.n_epochs for r in self.records if r.ok}

    @property
    def failed_cells(self) -> int:
        return sum(not r.ok for r in self.records)


def run_once(workload: Workload, inputs: dict, out_dir: Path, tweet_loader=load_tweets) -> Outcome:
    """Call the workload's entry point once and collect its outputs.

    The timed interval runs from the call until it returns, which for
    run_grid includes writing every result file.
    """
    cfg = config(workload, inputs, out_dir if workload.entry == "run_grid" else None)
    if workload.entry == "run_grid":
        start = time.perf_counter()
        records = harness.run_grid(cfg, tweet_loader=tweet_loader)
        wall = time.perf_counter() - start
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out_dir.iterdir())}
        summary = read_summary(out_dir / f"summary_{SYMBOL}.csv")
    else:
        lookback = workload.lookbacks[0]
        start = time.perf_counter()
        record = harness.run_master(inputs["master"], cfg, VARIANTS[0], lookback,
                                    MODEL_SEED, scrip=SYMBOL)
        wall = time.perf_counter() - start
        records = [record]
        files, summary = {}, {}
        if record.ok:
            h = record.history
            files = {name: hashlib.sha256(blob).hexdigest() for name, blob in (
                ("predicted", record.predicted.tobytes()),
                ("actual", record.actual.tobytes()),
                ("loss", repr((h.train_loss, h.val_loss)).encode()),
            )}
            r = record.report
            summary = {cell_key(record.variant, lookback): {
                "val_score": r.val_score, "r2": r.r2, "rmse": r.rmse, "mae": r.mae,
                "T": r.time_offset, "acc": r.acc,
            }}
    return Outcome(wall_s=wall, records=records, files=files, summary=summary)


def read_summary(path: Path) -> dict[str, dict[str, float]]:
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = cell_key(row["variant"], row["lookback"])
            try:
                rows[key] = {f: (int(row[f]) if f == "T" else float(row[f])) for f in SUMMARY_FIELDS}
            except ValueError:
                rows[key] = {"failed": row["units"]}
    return rows


def cell_key(variant: str, lookback) -> str:
    return f"{variant}/w{lookback}"


def is_gated(file_name: str) -> bool:
    if file_name in ("predicted", "actual", "loss"):
        return True
    return file_name.startswith(GATED_PREFIX) or file_name.endswith(GATED_SUFFIXES)

"""Command-line interface.

Subcommands compose via the documented CSV formats: clean -> score -> map ->
train -> evaluate, with grid running the whole sweep from a JSON config.
map, train and evaluate run the harness's own stages, so they write the same
files as the matching grid cell.
Exit codes: 0 success, 1 some grid cells failed, 2 config or input error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import harness
from . import neuralnet as nn
from .errors import SentiStockError
from .ingest import load_tweets
from .mapping import load_master_csv, write_master_csv
from .sentiment import VARIANTS, ScorerConfig, score_corpus, write_scores_csv


def _add_clean(sub):
    p = sub.add_parser("clean", help="normalize tweet text")
    p.add_argument("--tweets", required=True, help="input tweets (JSON lines)")
    p.add_argument("--out", required=True, help="output JSON lines with cleaned text")


def _add_score(sub):
    p = sub.add_parser("score", help="score tweets into a score CSV")
    p.add_argument("--tweets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scorer", default="lexicon", choices=["lexicon", "precomputed"])
    p.add_argument("--scores-file", default=None, help="source CSV for precomputed scores")
    p.add_argument("--variants", default=",".join(VARIANTS), help="comma-separated variant names")


def _add_map(sub):
    p = sub.add_parser("map", help="map scores onto the trading calendar and join with stock")
    p.add_argument("--stock", required=True)
    p.add_argument("--tweets", required=True)
    p.add_argument("--scores", default=None, help="precomputed score CSV (default: lexicon scorer)")
    p.add_argument("--variant", default="cleaned_prosus", choices=list(VARIANTS))
    p.add_argument("--memory-days", type=int, default=30)
    p.add_argument("--mode", default="recency", choices=["recency", "literal"])
    p.add_argument("--out", required=True, help="output master CSV")


def _add_train(sub):
    p = sub.add_parser("train", help="train a model on a master CSV")
    p.add_argument("--master", required=True)
    p.add_argument("--lookback", type=int, required=True)
    p.add_argument("--hidden-units", type=int, default=50)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--validation-split", type=float, default=0.1)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--split-ratio", type=float, default=0.8)
    p.add_argument("--fit-scope", default="train_only", choices=["train_only", "full"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", required=True, help="output model .npz")
    p.add_argument("--history-out", default=None, help="optional loss-curve CSV")


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="evaluate a trained model on a master CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--master", required=True)
    p.add_argument("--split-ratio", type=float, default=0.8)
    p.add_argument("--fit-scope", default="train_only", choices=["train_only", "full"])
    p.add_argument("--units", default="data", choices=["data", "scaled"])
    p.add_argument("--max-lag", type=int, default=14)
    p.add_argument("--out", required=True, help="output report CSV row")
    p.add_argument("--pred-out", default=None, help="optional prediction CSV")


def _add_grid(sub):
    p = sub.add_parser("grid", help="run the full (variant x lookback) sweep")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--stock", default=None)
    p.add_argument("--tweets", default=None, help="comma-separated tweet files")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lookbacks", default=None, help="comma-separated lookbacks")
    p.add_argument("--with-sentiment", dest="with_sentiment", action="store_true", default=None)
    p.add_argument("--without-sentiment", dest="with_sentiment", action="store_false")


def _cmd_clean(args) -> int:
    corpus = load_tweets(args.tweets)
    with open(args.out, "w") as fh:
        for tweet in corpus:
            record = {"id": tweet.id, "date": tweet.date.isoformat(), "text": tweet.cleaned_text}
            if tweet.pos_tagged_text is not None:
                record["pos_text"] = tweet.pos_tagged_text
            fh.write(json.dumps(record) + "\n")
    print(f"cleaned {len(corpus)} tweets -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    corpus = load_tweets(args.tweets)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    config = ScorerConfig(kind=args.scorer, source=args.scores_file)
    table = score_corpus(config, corpus, variants)
    write_scores_csv(table, corpus, args.out)
    print(f"scored {len(corpus)} tweets x {len(variants)} variants -> {args.out}")
    return 0


def _cmd_map(args) -> int:
    cfg = harness.ExperimentConfig(
        stock_file=args.stock,
        tweet_files=[args.tweets],
        scorer_kind="precomputed" if args.scores else "lexicon",
        scores_file=args.scores,
        variants=[args.variant],
        memory_days=args.memory_days,
        kernel_mode=args.mode,
    )
    stock = harness.load_stock(cfg)
    corpus = harness.load_corpus(cfg)
    write_master_csv(harness.build_master(cfg, args.variant, stock, corpus), args.out)
    print(f"mapped {len(corpus)} tweets onto {len(stock)} trading days -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = harness.ExperimentConfig(
        lookbacks=[args.lookback],
        hidden_units=args.hidden_units,
        epochs=args.epochs,
        batch_size=args.batch_size,
        validation_split=args.validation_split,
        patience=args.patience,
        learning_rate=args.learning_rate,
        split_ratio=args.split_ratio,
        fit_scope=args.fit_scope,
        seed=args.seed,
    )
    cell = harness.prepare_cell(load_master_csv(args.master), cfg)
    model, history = harness.train_model(harness.window(cell.train, args.lookback), cfg, cfg.seed)
    nn.save_model(model, args.model_out)
    if args.history_out:
        harness.write_loss_csv(history, args.history_out)
    print(
        f"trained {history.n_epochs} epochs (best {history.best_epoch}, "
        f"stopped_early={history.stopped_early}) -> {args.model_out}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    model = nn.load_model(args.model)
    lookback = model.config.input_shape[0]
    cfg = harness.ExperimentConfig(
        lookbacks=[lookback],
        split_ratio=args.split_ratio,
        fit_scope=args.fit_scope,
        metric_units=args.units,
        max_lag=args.max_lag,
    )
    cell = harness.prepare_cell(load_master_csv(args.master), cfg)
    evaluation = harness.evaluate_model(model, cell, harness.window(cell.test, lookback), cfg)
    record = harness.ExperimentRecord(
        scrip=Path(args.master).stem, variant="external", lookback=lookback,
        seed=model.config.seed, fingerprint="", **evaluation._asdict(),
    )
    harness.write_summary_csv([record], args.out)
    if args.pred_out:
        harness.write_pred_csv(record, args.pred_out)
    print(f"evaluated {record.report.n_samples} predictions -> {args.out}")
    return 0


def _cmd_grid(args) -> int:
    overrides = {
        "stock_file": args.stock,
        "output_dir": args.out_dir,
        "seed": args.seed,
        "epochs": args.epochs,
        "with_sentiment": args.with_sentiment,
    }
    if args.tweets is not None:
        overrides["tweet_files"] = [f.strip() for f in args.tweets.split(",") if f.strip()]
    if args.lookbacks is not None:
        overrides["lookbacks"] = [int(w) for w in args.lookbacks.split(",")]
    cfg = harness.load_config(args.config, overrides)
    records = harness.run_grid(cfg)
    n_failed = sum(1 for r in records if not r.ok)
    print(f"grid finished: {len(records) - n_failed} ok, {n_failed} failed")
    return 1 if n_failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sentistock", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_clean(sub)
    _add_score(sub)
    _add_map(sub)
    _add_train(sub)
    _add_evaluate(sub)
    _add_grid(sub)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    handlers = {
        "clean": _cmd_clean,
        "score": _cmd_score,
        "map": _cmd_map,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "grid": _cmd_grid,
    }
    try:
        return handlers[args.command](args)
    except (SentiStockError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

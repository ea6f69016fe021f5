"""Command-line interface.

Subcommands compose via the documented CSV formats: clean -> score -> map ->
train -> evaluate, with grid running the whole sweep from a JSON config.
map, train and evaluate run the harness's own stages, so they write the same
files as the matching grid cell. score and map read a score file named with
--scores, as grid reads its config's scores_file; without one the lexicon
scores the tweets. Every subcommand creates its output files' directories
before any work, as grid does its --out-dir, and on exit 2 removes those of
them that it created and left empty.
Exit codes: 0 success, 1 some grid cells failed, 2 config or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from contextlib import suppress
from pathlib import Path

from . import harness
from . import neuralnet as nn
from .errors import ConfigError, PipelineError, SentiStockError, ShapeMismatchError
from .ingest import clean_tweets, load_master_csv, load_tweets, write_stock_csv, write_tweets
from .sentiment import VARIANTS, score_corpus, write_scores_csv


# argparse names a bad value's type function in its usage error, hence no underscore.
def file_list(text: str) -> list[str]:
    return [f.strip() for f in text.split(",") if f.strip()]


def int_list(text: str) -> list[int]:
    return [int(w) for w in text.split(",")]


# Parsers by config field annotation (else str), and the flags not named as their field.
_PARSERS = {"int": int, "float": float, "list[int]": int_list, "list[str]": file_list}
_FIELD_FLAGS = {"stock_file": "--stock", "scores_file": "--scores", "kernel_mode": "--mode",
                "metric_units": "--units", "tweet_files": "--tweets", "output_dir": "--out-dir"}


def _add_config_flags(p, *names: str, **kwargs):
    """Add a flag setting each named ExperimentConfig field: the field's
    annotation picks its parser, and gives a list field its help text."""
    for name in names:
        annotation = harness.ExperimentConfig.__dataclass_fields__[name].type
        list_help = f"comma-separated {name.replace('_', ' ')}" if annotation.startswith("list[") else None
        p.add_argument(_FIELD_FLAGS.get(name, "--" + name.replace("_", "-")), dest=name,
                       type=_PARSERS.get(annotation, str), **{"help": list_help, **kwargs})


def _add_clean(sub):
    p = sub.add_parser("clean", help="normalize tweet text")
    p.add_argument("--tweets", required=True, help="input tweets (JSON lines)")
    p.add_argument("--out", required=True, help="output JSON lines with cleaned text")


def _add_score(sub):
    p = sub.add_parser("score", help="score tweets into a score CSV")
    p.add_argument("--tweets", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "scores_file", help="precomputed score CSV (default: lexicon scorer)")
    _add_config_flags(p, "variants", default=list(VARIANTS), help="comma-separated variant names")


def _add_map(sub):
    p = sub.add_parser("map", help="map scores onto the trading calendar and join with stock")
    _add_config_flags(p, "stock_file", required=True)
    p.add_argument("--tweets", required=True)
    _add_config_flags(p, "scores_file", help="precomputed score CSV (default: lexicon scorer)")
    p.add_argument("--variant", default="cleaned_prosus", choices=list(VARIANTS))
    _add_config_flags(p, "memory_days", "kernel_mode")
    p.add_argument("--out", required=True, help="output master CSV")


def _add_train(sub):
    p = sub.add_parser("train", help="train a model on a master CSV")
    p.add_argument("--master", required=True)
    p.add_argument("--lookback", type=int, required=True)
    _add_config_flags(p, "hidden_units", "epochs", "batch_size", "validation_split", "patience",
                      "learning_rate", "split_ratio", "fit_scope", "seed")
    p.add_argument("--model-out", required=True, help="output model .npz")
    p.add_argument("--history-out", default=None, help="optional loss-curve CSV")


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="evaluate a trained model on a master CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--master", required=True)
    _add_config_flags(p, "metric_units", "max_lag")
    p.add_argument("--out", required=True, help="output report CSV row")
    p.add_argument("--pred-out", default=None, help="optional prediction CSV")


def _add_grid(sub):
    p = sub.add_parser("grid", help="run the full (variant x lookback) sweep")
    p.add_argument("--config", required=True, help="JSON experiment config")
    _add_config_flags(p, "stock_file", "tweet_files", "output_dir", "seed", "epochs", "lookbacks")
    p.add_argument("--with-sentiment", action="store_true", default=None)
    p.add_argument("--without-sentiment", dest="with_sentiment", action="store_false")


def _config_flags(args) -> dict:
    """The given flags whose dest names an ExperimentConfig field; the
    config supplies the defaults of the others and checks every value."""
    fields = harness.ExperimentConfig.__dataclass_fields__
    return {k: v for k, v in vars(args).items() if k in fields and v is not None}


def _cmd_clean(args) -> int:
    corpus = load_tweets(args.tweets)
    write_tweets(dataclasses.replace(corpus, raw_texts=clean_tweets(corpus.raw_texts)), args.out)
    print(f"cleaned {len(corpus)} tweets -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    cfg = harness.ExperimentConfig(**_config_flags(args))
    corpus = load_tweets(args.tweets)
    write_scores_csv(score_corpus(cfg.scores_file, corpus, cfg.variants), args.out)
    print(f"scored {len(corpus)} tweets x {len(cfg.variants)} variants -> {args.out}")
    return 0


def _cmd_map(args) -> int:
    cfg = harness.ExperimentConfig(tweet_files=[args.tweets], variants=[args.variant],
                                   **_config_flags(args))
    master = harness.build_masters(cfg, harness.load_stock(cfg))[args.variant]
    if isinstance(master, PipelineError):
        raise master
    write_stock_csv(master, args.out)
    print(f"mapped {args.variant} onto {master.n_rows} trading days -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = harness.ExperimentConfig(lookbacks=[args.lookback], **_config_flags(args))
    cell = harness.prepare_cell(load_master_csv(args.master), cfg)
    model, history = harness.train_model(harness.window(cell.train, args.lookback), cfg, cfg.seed)
    model.trained_on = {"split_ratio": cfg.split_ratio, "fit_scope": cfg.fit_scope,
                        "columns": list(cell.train.columns)}
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
    if len(model.trained_on) < 3:  # a format-1 file records none of them
        raise ConfigError(f"model file {args.model} records no training split; train writes one")
    ratio, scope, columns = (model.trained_on[key] for key in ("split_ratio", "fit_scope", "columns"))
    lookback, master = model.config.input_shape[0], load_master_csv(args.master)
    if list(master.columns) != columns:
        raise ShapeMismatchError(f"master columns {list(master.columns)} differ from the model's {columns}")
    cfg = harness.ExperimentConfig(lookbacks=[lookback], split_ratio=ratio, fit_scope=scope,
                                   **_config_flags(args))
    cell = harness.prepare_cell(master, cfg)
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
    cfg = harness.load_config(args.config, _config_flags(args))
    records = harness.run_grid(cfg)
    n_failed = sum(1 for r in records if not r.ok)
    print(f"grid finished: {len(records) - n_failed} ok, {n_failed} failed")
    return 1 if n_failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sentistock", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for add_subcommand in (_add_clean, _add_score, _add_map, _add_train, _add_evaluate, _add_grid):
        add_subcommand(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    handlers = {
        "clean": _cmd_clean,
        "score": _cmd_score,
        "map": _cmd_map,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "grid": _cmd_grid,
    }
    made = []  # the directories this call creates, removed again if it exits 2
    try:
        for name in ("out", "model_out", "history_out", "pred_out"):
            path = getattr(args, name, None)
            if path:
                made += [d for d in Path(path).parents if not d.exists()]
                Path(path).parent.mkdir(parents=True, exist_ok=True)
        return handlers[args.command](args)
    except (SentiStockError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for directory in sorted(made, key=lambda d: len(d.parts), reverse=True):
            with suppress(OSError):  # only an empty directory goes
                directory.rmdir()
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Experiment orchestration: grid sweeps and reporting.

A run wires the stages together: load stock and tweets, score, aggregate to
daily channels, memory-map, join, scale, split, window, train, predict,
inverse-scale, evaluate. This module is the only place that knows that
sequence; the CLI subcommands call the same stage functions. A grid loads
the stock and tweet files once and sweeps (variant, lookback) cells with
per-cell derived seeds, isolating failures so one bad cell cannot take down
the sweep.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import date
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dataset as ds
from . import evalmetrics as em
from . import neuralnet as nn
from .errors import ConfigError, PipelineError
from .ingest import MasterDataset, TweetCorpus, load_stock_csv, load_tweets
from .mapping import MemoryKernel, daily_aggregate, join_with_stock, memory_weighted_map
from .sentiment import VARIANTS, ScorerConfig, ScoreTable, score_corpus

logger = logging.getLogger(__name__)

CONFIG_VERSION = 1
SUMMARY_COLUMNS = ("scrip", "variant", "lookback", "val_score", "r2", "rmse", "mae", "T", "acc", "units")
DEFAULT_LOOKBACKS = (5, 10, 20, 30, 60, 90)
_INT_FIELDS = ("memory_days", "hidden_units", "epochs", "batch_size", "patience", "max_lag", "seed")
_FLOAT_FIELDS = ("split_ratio", "validation_split", "learning_rate")
_NAME_FIELDS = ("stock_file", "scores_file", "output_dir", "scrip")


@dataclass
class ExperimentConfig:
    """Everything a run or grid needs, overridable from a JSON config file."""

    stock_file: str | None = None
    tweet_files: list[str] = field(default_factory=list)
    scorer_kind: str = "lexicon"
    scores_file: str | None = None
    variants: list[str] = field(default_factory=lambda: list(VARIANTS))
    memory_days: int = 30
    kernel_mode: str = "recency"
    split_ratio: float = 0.8
    fit_scope: str = "train_only"
    lookbacks: list[int] = field(default_factory=lambda: list(DEFAULT_LOOKBACKS))
    hidden_units: int = 50
    epochs: int = 100
    batch_size: int = 32
    validation_split: float = 0.1
    patience: int = 10
    learning_rate: float = 1e-3
    with_sentiment: bool = True
    metric_units: str = "data"
    max_lag: int = 14
    output_dir: str | None = None
    scrip: str | None = None
    seed: int = 0

    def __post_init__(self):
        """Check every value once, and build the stage configs a run uses.

        ``training``, ``scorer`` and ``kernel`` are plain attributes, not
        fields, so asdict (and with it the fingerprint) sees only the values.
        """
        for name in _INT_FIELDS:
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer, not {getattr(self, name)!r}")
        for name in _FLOAT_FIELDS:  # an int is a number; a bool is not
            if type(getattr(self, name)) not in (int, float):
                raise ConfigError(f"{name} must be a number, not {getattr(self, name)!r}")
        for name in _NAME_FIELDS:
            if type(getattr(self, name)) not in (str, type(None)):
                raise ConfigError(f"{name} must be a string, not {getattr(self, name)!r}")
        if type(self.with_sentiment) is not bool:
            raise ConfigError(f"with_sentiment must be true or false, not {self.with_sentiment!r}")
        if type(self.tweet_files) is not list or any(type(f) is not str for f in self.tweet_files):
            raise ConfigError(f"tweet_files must be a list of file names, not {self.tweet_files!r}")
        if not self.lookbacks or any(type(w) is not int or w < 1 for w in self.lookbacks):
            raise ConfigError(f"lookbacks must be a non-empty list of integers >= 1, not {self.lookbacks!r}")
        if len(set(self.lookbacks)) != len(self.lookbacks):
            raise ConfigError(f"lookbacks repeat a value: {self.lookbacks!r}")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ConfigError(f"unknown variants {unknown}; choose from {list(VARIANTS)}")
        if len(set(self.variants)) != len(self.variants):
            raise ConfigError(f"variants repeat a name: {self.variants!r}")
        if not 0 < self.split_ratio < 1:
            raise ConfigError("split_ratio must be in (0, 1)")
        if self.fit_scope not in ds.FIT_SCOPES:
            raise ConfigError(f"fit_scope must be one of {ds.FIT_SCOPES}, not {self.fit_scope!r}")
        if self.metric_units not in ("data", "scaled"):
            raise ConfigError(f"metric_units must be 'data' or 'scaled', not {self.metric_units!r}")
        if self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, not {self.hidden_units!r}")
        if self.max_lag < 0:
            raise ConfigError(f"max_lag must be >= 0, not {self.max_lag!r}")
        try:
            self.training = nn.TrainConfig(
                epochs=self.epochs,
                batch_size=self.batch_size,
                validation_split=self.validation_split,
                patience=self.patience,
                learning_rate=self.learning_rate,
            )
            self.scorer = ScorerConfig(kind=self.scorer_kind, source=self.scores_file)
            self.kernel = MemoryKernel(self.memory_days, self.kernel_mode)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file, applying overrides on top."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not a {type(raw).__name__}")
    version = raw.pop("config_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config_version {version}")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentRecord:
    """Outcome of one grid cell."""

    scrip: str
    variant: str
    lookback: int
    seed: int
    fingerprint: str
    report: em.EvalReport | None = None
    history: nn.TrainingHistory | None = None
    test_dates: list[date] = field(default_factory=list)
    actual: np.ndarray | None = None
    predicted: np.ndarray | None = None
    error: str | None = None
    failed_stage: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Evaluation(NamedTuple):
    """Test-set forecasts of one model; the fields of the same name in ExperimentRecord."""

    report: em.EvalReport
    test_dates: list[date]
    actual: np.ndarray  # data units
    predicted: np.ndarray  # data units


@dataclass
class CellData:
    """A master dataset min-max scaled and split chronologically."""

    scalers: ds.ScalerSet
    train: MasterDataset
    test: MasterDataset


def _hash_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def input_hashes(cfg: ExperimentConfig) -> dict:
    """SHA-256 of each input file a run reads; tweet and score files only
    when the sentiment path reads them."""
    hashes = {}
    if cfg.stock_file:
        hashes["stock"] = _hash_file(cfg.stock_file)
    if cfg.with_sentiment:
        hashes["tweets"] = [_hash_file(f) for f in cfg.tweet_files]
        if cfg.scores_file:
            hashes["scores"] = _hash_file(cfg.scores_file)
    return hashes


def fingerprint(cfg: ExperimentConfig, variant: str, lookback: int, seed: int,
                hashes: dict | None = None) -> str:
    """Stable identity for (config but its output_dir, data hashes, cell).

    ``hashes`` defaults to input_hashes(cfg); a grid hashes once for all cells.
    """
    payload = asdict(cfg)
    del payload["output_dir"]
    payload.update({"cell_variant": variant, "cell_lookback": lookback, "cell_seed": seed})
    payload["data_hashes"] = input_hashes(cfg) if hashes is None else hashes
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def master_data_hash(master: MasterDataset) -> str:
    digest = hashlib.sha256()
    digest.update(",".join(d.isoformat() for d in master.calendar).encode())
    for name in master.columns:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(master.columns[name]).tobytes())
    return digest.hexdigest()


@contextmanager
def _stage(name: str):
    """Tag a failure inside the block with the pipeline stage name.

    Only errors are tagged: KeyboardInterrupt and SystemExit pass through,
    so they stop a grid instead of failing one cell.
    """
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def merge_corpora(corpora: list[TweetCorpus]) -> TweetCorpus:
    """Concatenate corpora; with several sources, ids get a source prefix."""
    if len(corpora) == 1:
        return corpora[0]
    def joined(column: str) -> list:
        return [value for corpus in corpora for value in getattr(corpus, column)]

    ids = [f"{index}:{tweet_id}" for index, corpus in enumerate(corpora) for tweet_id in corpus.ids]
    return TweetCorpus.by_date(ids, np.concatenate([corpus.ordinals for corpus in corpora]),
                               joined("raw_texts"), joined("cleaned_texts"), joined("pos_texts"),
                               sources=len(corpora))


def load_stock(cfg: ExperimentConfig) -> MasterDataset:
    """Stage load_stock: read the configured stock file."""
    with _stage("load_stock"):
        if cfg.stock_file is None:
            raise ConfigError("stock_file is required")
        return load_stock_csv(cfg.stock_file, symbol=cfg.scrip)


def load_corpus(cfg: ExperimentConfig, tweet_loader=load_tweets) -> TweetCorpus | None:
    """Stage load_tweets: read and merge every tweet file, once per run.

    Returns None without reading anything when the run uses no sentiment.
    """
    if not cfg.with_sentiment:
        return None
    with _stage("load_tweets"):
        if not cfg.tweet_files:
            raise ConfigError("with_sentiment=true requires at least one tweet file")
        return merge_corpora([tweet_loader(f) for f in cfg.tweet_files])


def score(cfg: ExperimentConfig, corpus: TweetCorpus) -> ScoreTable:
    """Stage score: the corpus scored once for every variant; one that fails, fails alone in build_master."""
    with _stage("score"):
        return score_corpus(cfg.scorer, corpus, cfg.variants)


def build_master(cfg: ExperimentConfig, variant: str, stock: MasterDataset,
                 corpus: TweetCorpus | None, table: ScoreTable | None) -> MasterDataset:
    """Produce the master dataset for one variant from a loaded corpus and
    its score table (stage-tagged); both are None without sentiment, and
    the master is the stock itself."""
    if not cfg.with_sentiment:
        return stock
    with _stage("score"):
        table.probabilities(variant)  # a variant that could not be scored fails here
    with _stage("aggregate"):
        daily = daily_aggregate(table, variant, corpus, stock.calendar)
    with _stage("map"):
        mapped = memory_weighted_map(daily, cfg.kernel)
    with _stage("join"):
        return join_with_stock(mapped, stock)


def prepare_cell(master: MasterDataset, cfg: ExperimentConfig) -> CellData:
    """Stages scale and split: fit the scalers, scale, split chronologically."""
    with _stage("scale"):
        scalers = ds.fit_scalers(master, cfg.split_ratio, cfg.fit_scope)
        scaled = ds.transform(scalers, master)
    with _stage("split"):
        train_part, test_part = ds.chronological_split(scaled, cfg.split_ratio)
    return CellData(scalers=scalers, train=train_part, test=test_part)


def window(part: MasterDataset, lookback: int) -> ds.WindowedSet:
    """Stage window: the lookback windows of one scaled part of a cell."""
    with _stage("window"):
        return ds.make_windows(part, lookback)


def train_model(windows: ds.WindowedSet, cfg: ExperimentConfig,
                seed: int) -> tuple[nn.BiLstmModel, nn.TrainingHistory]:
    """Stages create_model and train on the training windows."""
    with _stage("create_model"):
        model = nn.init_model(nn.ModelConfig(
            hidden_units=cfg.hidden_units,
            input_shape=windows.X.shape[1:],
            seed=seed,
        ))
    with _stage("train"):
        history = nn.train(model, windows, cfg.training)
    return model, history


def evaluate_model(model: nn.BiLstmModel, cell: CellData, windows: ds.WindowedSet,
                   cfg: ExperimentConfig, history: nn.TrainingHistory | None = None) -> Evaluation:
    """Stages predict, inverse_scale and evaluate on the windows of the cell's test part.

    The report's val_score comes from the training history, and is None
    without one.
    """
    with _stage("predict"):
        pred_scaled = np.asarray(nn.predict(model, windows, chunk_size=cfg.batch_size))
        actual_scaled = windows.y
    with _stage("inverse_scale"):
        target = cell.test.target_column
        pred_data = ds.inverse_transform(cell.scalers, target, pred_scaled)
        actual_data = ds.inverse_transform(cell.scalers, target, actual_scaled)
    with _stage("evaluate"):
        if cfg.metric_units == "scaled":
            pred_eval, actual_eval = pred_scaled, actual_scaled
        else:
            pred_eval, actual_eval = pred_data, actual_data
        mae, rmse, r2 = em.compute_metrics(pred_eval, actual_eval)
        max_lag = min(cfg.max_lag, len(pred_eval) - 2)
        offset, acc = em.best_time_offset(pred_eval, actual_eval, max_lag)
        report = em.EvalReport(
            mae=mae,
            rmse=rmse,
            r2=r2,
            val_score=None if history is None else em.validation_score(history),
            time_offset=offset,
            acc=acc,
            n_samples=len(pred_eval),
            units=cfg.metric_units,
        )
    return Evaluation(report=report, test_dates=cell.test.calendar[windows.lookback:],
                      actual=actual_data, predicted=pred_data)


def run_master(master: MasterDataset, cfg: ExperimentConfig, variant: str, lookback: int,
               seed: int, scrip: str, hashes: dict | None = None) -> ExperimentRecord:
    """Scale, window, train, predict and evaluate a ready master dataset.

    ``hashes`` as in fingerprint; without a stock file it also hashes the master.
    """
    hashes = input_hashes(cfg) if hashes is None else hashes
    if not cfg.stock_file:
        hashes = {**hashes, "inline_data": master_data_hash(master)}
    fp = fingerprint(cfg, variant, lookback, seed, hashes)
    cell = prepare_cell(master, cfg)
    train_windows = window(cell.train, lookback)
    test_windows = window(cell.test, lookback)
    model, history = train_model(train_windows, cfg, seed)
    evaluation = evaluate_model(model, cell, test_windows, cfg, history)
    return ExperimentRecord(scrip=scrip, variant=variant, lookback=lookback, seed=seed,
                            fingerprint=fp, history=history, **evaluation._asdict())


def run_grid(cfg: ExperimentConfig, tweet_loader=load_tweets) -> list[ExperimentRecord]:
    """Sweep every (variant, lookback) cell, isolating per-cell failures.

    The stock and tweet files are read and hashed once, and the corpus is
    scored once for all variants. Lookbacks of at least half the test-set
    length are skipped with a warning. Writes summary and per-record
    artifacts when output_dir is set.
    """
    stock = load_stock(cfg)
    n = stock.n_rows
    n_test = n - math.floor(cfg.split_ratio * n)
    usable = []
    for w in cfg.lookbacks:
        if w >= n_test / 2:
            logger.warning("skipping lookback %d: test set has only %d rows", w, n_test)
        else:
            usable.append(w)
    variants = list(cfg.variants) if cfg.with_sentiment else ["none"]
    corpus = table = None
    corpus_error: PipelineError | None = None
    try:
        corpus = load_corpus(cfg, tweet_loader)
        if cfg.with_sentiment:
            table = score(cfg, corpus)
    except PipelineError as exc:
        corpus_error = exc
    try:
        hashes = input_hashes(cfg)
    except OSError:
        hashes = None  # an unreadable input fails every cell before training

    records = []
    cell_index = 0
    for variant in variants:
        master = None
        master_error = corpus_error
        if master_error is None:
            try:
                master = build_master(cfg, variant, stock, corpus, table)
            except PipelineError as exc:
                master_error = exc
        for lookback in usable:
            seed = cfg.seed + cell_index
            cell_index += 1
            if master_error is not None:
                record = _failure_record(cfg, stock.symbol, variant, lookback, seed, master_error, hashes)
            else:
                try:
                    record = run_master(master, cfg, variant, lookback, seed, scrip=stock.symbol,
                                        hashes=hashes)
                except PipelineError as exc:
                    logger.warning("cell (%s, %d) failed at %s: %s", variant, lookback, exc.stage, exc.cause)
                    record = _failure_record(cfg, stock.symbol, variant, lookback, seed, exc, hashes)
            records.append(record)
    if cfg.output_dir is not None and records:
        emit_report(records, cfg.output_dir)
        for record in records:
            write_record_artifacts(record, cfg.output_dir)
    return records


def _failure_record(cfg, scrip, variant, lookback, seed, exc: PipelineError, hashes):
    fp = "" if hashes is None else fingerprint(cfg, variant, lookback, seed, hashes)
    return ExperimentRecord(
        scrip=scrip, variant=variant, lookback=lookback, seed=seed, fingerprint=fp,
        error=str(exc.cause), failed_stage=exc.stage,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def _record_stem(record: ExperimentRecord) -> str:
    return f"{record.scrip}_{record.variant}_w{record.lookback}"


def _loss_and_pred_paths(record: ExperimentRecord, out_dir: Path) -> list[Path]:
    stem = _record_stem(record)
    return [out_dir / f"{stem}_loss.csv", out_dir / f"{stem}_pred.csv"]


def write_loss_csv(history: nn.TrainingHistory, path: str | Path) -> Path:
    """Loss-curve CSV: epoch,train_loss,val_loss."""
    with open(path, "w", newline="") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, (tl, vl) in enumerate(zip(history.train_loss, history.val_loss)):
            fh.write(f"{epoch},{_fmt(tl)},{_fmt(vl)}\n")
    return Path(path)


def write_pred_csv(record: ExperimentRecord, path: str | Path) -> Path:
    """Prediction CSV: date,actual,predicted in data units."""
    with open(path, "w", newline="") as fh:
        fh.write("date,actual,predicted\n")
        for d, a, p in zip(record.test_dates, record.actual, record.predicted):
            fh.write(f"{d.isoformat()},{_fmt(a)},{_fmt(p)}\n")
    return Path(path)


def write_record_artifacts(record: ExperimentRecord, out_dir: str | Path) -> list[Path]:
    """Write the JSON record of one cell.

    Its "artifacts" list names the cell's loss-curve and prediction CSVs,
    which emit_report writes, by file name in the record's own directory.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / f"{_record_stem(record)}_record.json"
    blob = {
        "scrip": record.scrip,
        "variant": record.variant,
        "lookback": record.lookback,
        "seed": record.seed,
        "fingerprint": record.fingerprint,
        "error": record.error,
        "failed_stage": record.failed_stage,
    }
    if record.ok:
        blob["report"] = asdict(record.report)
        blob["history"] = {
            "n_epochs": record.history.n_epochs,
            "best_epoch": record.history.best_epoch,
            "stopped_early": record.history.stopped_early,
        }
        blob["artifacts"] = [p.name for p in _loss_and_pred_paths(record, out_dir)]
    with open(record_path, "w") as fh:
        json.dump(blob, fh, indent=2)
    return [record_path]


def _summary_row(record: ExperimentRecord) -> list[str]:
    head = [record.scrip, record.variant, str(record.lookback)]
    if not record.ok:
        return head + ["", "", "", "", "", "", f"failed:{record.failed_stage}"]
    r = record.report
    val_score = "" if r.val_score is None else _fmt(r.val_score)
    return head + [val_score, _fmt(r.r2), _fmt(r.rmse), _fmt(r.mae),
                   str(r.time_offset), _fmt(r.acc), r.units]


def write_summary_csv(records: list[ExperimentRecord], path: str | Path) -> Path:
    """Summary CSV with one row per record; failed cells carry failed:<stage>."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for record in records:
            fh.write(",".join(_summary_row(record)) + "\n")
    return Path(path)


def emit_report(records: list[ExperimentRecord], out_dir: str | Path) -> list[Path]:
    """Write per-scrip summary CSVs plus loss-curve and prediction CSVs."""
    if not records:
        raise ValueError("no records to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scrips = list(dict.fromkeys(record.scrip for record in records))
    written = [write_summary_csv([r for r in records if r.scrip == scrip],
                                 out_dir / f"summary_{scrip}.csv")
               for scrip in scrips]
    for record in records:
        if record.ok:
            loss_path, pred_path = _loss_and_pred_paths(record, out_dir)
            written += [write_loss_csv(record.history, loss_path), write_pred_csv(record, pred_path)]
    return written

"""Experiment orchestration: grid sweeps and reporting.

A run wires the stages together: load stock and tweets, score, aggregate to
daily channels, memory-map, join, split, scale, window, train, predict,
inverse-scale, evaluate. This module is the only place that knows that
sequence; the CLI subcommands call the same stage functions. A grid first
builds every variant's master dataset from stock and tweet files read once,
then sweeps (variant, lookback) cells with per-cell derived seeds, isolating
failures so one bad cell cannot take down the sweep.
"""

from __future__ import annotations

import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import date
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dataset as ds
from . import evalmetrics as em
from . import neuralnet as nn
from .errors import ConfigError, PipelineError, check_field_types
from .ingest import TARGET_COLUMN, MasterDataset, TweetCorpus, load_stock_csv, load_tweets, write_csv
from .mapping import MemoryKernel, daily_aggregate, join_with_stock, memory_weighted_map
from .sentiment import VARIANTS, ScoreTable, score_corpus

logger = logging.getLogger(__name__)

CONFIG_VERSION = 1
SUMMARY_COLUMNS = ("scrip", "variant", "lookback", "val_score", "r2", "rmse", "mae", "T", "acc", "units")
DEFAULT_LOOKBACKS = (5, 10, 20, 30, 60, 90)
# The fields of a record, and of its history, that its JSON file holds, in file order.
_RECORD_KEYS = ("scrip", "variant", "lookback", "seed", "fingerprint", "error", "failed_stage")
_HISTORY_KEYS = ("n_epochs", "best_epoch", "stopped_early")
# The config fields that prepare_cell, train_model and evaluate_model read:
# with the master and the cell, all that a cell's fingerprint hashes.
_CELL_FIELDS = ("split_ratio", "fit_scope", "hidden_units", "epochs", "batch_size",
                "validation_split", "patience", "learning_rate", "metric_units", "max_lag")


@dataclass
class ExperimentConfig:
    """Everything a run or grid needs, overridable from a JSON config file."""

    stock_file: str | None = None
    tweet_files: list[str] = field(default_factory=list)
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

        ``training`` and ``kernel`` are plain attributes, not fields: asdict
        and dataclasses.replace see only the values.
        """
        check_field_types(self, ConfigError)
        if any(c in (self.scrip or "") for c in "/\0"):  # it names the result files
            raise ConfigError(f"scrip must hold no '/' or NUL byte, not {self.scrip!r}")
        if not self.lookbacks or any(w < 1 for w in self.lookbacks):
            raise ConfigError(f"lookbacks must be a non-empty list of integers >= 1, not {self.lookbacks!r}")
        if len(set(self.lookbacks)) != len(self.lookbacks):
            raise ConfigError(f"lookbacks repeat a value: {self.lookbacks!r}")
        if not self.variants:  # a grid with sentiment would have no cell
            raise ConfigError("variants must name at least one variant")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ConfigError(f"unknown variants {unknown}; choose from {list(VARIANTS)}")
        if len(set(self.variants)) != len(self.variants):
            raise ConfigError(f"variants repeat a name: {self.variants!r}")
        if self.metric_units not in ("data", "scaled"):
            raise ConfigError(f"metric_units must be 'data' or 'scaled', not {self.metric_units!r}")
        if self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, not {self.hidden_units!r}")
        for name in ("max_lag", "seed"):  # numpy's generators reject a negative seed
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, not {getattr(self, name)!r}")
        try:
            ds.check_split(self.split_ratio, self.fit_scope)
            self.training = nn.TrainConfig(
                epochs=self.epochs,
                batch_size=self.batch_size,
                validation_split=self.validation_split,
                patience=self.patience,
                learning_rate=self.learning_rate,
            )
            self.kernel = MemoryKernel(self.memory_days, self.kernel_mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file, applying overrides on top."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or a byte that is not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not a {type(raw).__name__}")
    version = raw.pop("config_version", CONFIG_VERSION)
    if type(version) is not int or version != CONFIG_VERSION:  # true == 1 == 1.0
        raise ConfigError(f"unsupported config_version {version!r}")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**raw)


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
    """A master dataset split chronologically and min-max scaled."""

    scalers: ds.ScalerSet
    train: MasterDataset
    test: MasterDataset


def fingerprint(cfg: ExperimentConfig, variant: str, lookback: int, seed: int,
                master: MasterDataset | None) -> str:
    """Stable identity of one cell: the config fields that scaling, splitting,
    training and evaluation read, the bytes of the master (None when it
    failed) and the cell; not the files, scorer or settings that built it."""
    payload = {k: getattr(cfg, k) for k in _CELL_FIELDS}
    payload.update({"cell_variant": variant, "cell_lookback": lookback, "cell_seed": seed,
                    "master": None if master is None else master_data_hash(master)})
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


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


def load_stock(cfg: ExperimentConfig) -> MasterDataset:
    """Stage load_stock: read the configured stock file."""
    with _stage("load_stock"):
        if cfg.stock_file is None:
            raise ConfigError("stock_file is required")
        return load_stock_csv(cfg.stock_file, symbol=cfg.scrip)


def build_master(cfg: ExperimentConfig, variant: str, stock: MasterDataset,
                 corpus: TweetCorpus, table: ScoreTable) -> MasterDataset:
    """Produce the master dataset for one variant from a loaded corpus and
    its score table (stage-tagged)."""
    with _stage("score"):
        probabilities = table.probabilities(variant)  # a variant that could not be scored fails here
    with _stage("aggregate"):
        daily = daily_aggregate(probabilities, corpus.ordinals, stock.calendar)
    with _stage("map"):
        mapped = memory_weighted_map(daily, cfg.kernel)
    with _stage("join"):
        return join_with_stock(mapped, stock)


def build_masters(cfg: ExperimentConfig, stock: MasterDataset,
                  tweet_loader=load_tweets) -> dict[str, MasterDataset | PipelineError]:
    """Each variant's master dataset, or the stage-tagged error that stopped it.

    Without sentiment the stock is the one master, variant "none", and no
    tweet is read. Otherwise the tweet files (none is a ConfigError) are
    loaded and scored once, an error there failing every variant; no master
    or stored error refers to the corpus."""
    if not cfg.with_sentiment:
        return {"none": stock}
    if not cfg.tweet_files:
        raise ConfigError("with_sentiment=true requires at least one tweet file")
    try:
        with _stage("load_tweets"):
            corpus = tweet_loader(*cfg.tweet_files)
        with _stage("score"):  # a variant that could not be scored fails alone in build_master
            table = score_corpus(cfg.scores_file, corpus, cfg.variants)
    except PipelineError as exc:
        return dict.fromkeys(cfg.variants, exc)
    masters = {}
    for variant in cfg.variants:
        try:
            masters[variant] = build_master(cfg, variant, stock, corpus, table)
        except PipelineError as exc:  # the cause's traceback frames hold the corpus
            masters[variant] = PipelineError(exc.stage, exc.cause.with_traceback(None))
    return masters


def prepare_cell(master: MasterDataset, cfg: ExperimentConfig) -> CellData:
    """Stages split and scale: split, fit scalers on the train part (the master if "full"), scale both parts."""
    with _stage("split"):
        parts = ds.chronological_split(master, cfg.split_ratio)
    with _stage("scale"):
        scalers = ds.fit_scalers(parts[0] if cfg.fit_scope == "train_only" else master)
        return CellData(scalers, *(ds.transform(scalers, part) for part in parts))


def window(part: MasterDataset, lookback: int) -> ds.WindowedSet:
    """Stage window: the lookback windows of one scaled part of a cell."""
    with _stage("window"):
        return ds.make_windows(part, lookback)


def train_model(windows: ds.WindowedSet, cfg: ExperimentConfig,
                seed: int) -> tuple[nn.BiLstmModel, nn.TrainingHistory]:
    """Stages create_model and train on the training windows."""
    with _stage("create_model"):
        model = nn.init_model(nn.ModelConfig(hidden_units=cfg.hidden_units,
                                             input_shape=windows.X.shape[1:], seed=seed))
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
        pred_scaled = np.asarray(nn.predict(model, windows.X, chunk_size=cfg.batch_size))
        actual_scaled = windows.y
    with _stage("inverse_scale"):
        pred_data = ds.inverse_transform(cell.scalers, TARGET_COLUMN, pred_scaled)
        actual_data = ds.inverse_transform(cell.scalers, TARGET_COLUMN, actual_scaled)
    with _stage("evaluate"):
        scaled = cfg.metric_units == "scaled"
        pred_eval, actual_eval = (pred_scaled, actual_scaled) if scaled else (pred_data, actual_data)
        mae, rmse, r2 = em.compute_metrics(pred_eval, actual_eval)
        max_lag = min(cfg.max_lag, len(pred_eval) - 2)
        offset, acc = em.best_time_offset(pred_eval, actual_eval, max_lag)
        val_score = None if history is None else em.validation_score(history)
        report = em.EvalReport(mae=mae, rmse=rmse, r2=r2, val_score=val_score, time_offset=offset,
                               acc=acc, n_samples=len(pred_eval), units=cfg.metric_units)
    return Evaluation(report=report, test_dates=cell.test.calendar[windows.lookback:],
                      actual=actual_data, predicted=pred_data)


def run_master(master: MasterDataset, cfg: ExperimentConfig, variant: str, lookback: int,
               seed: int, scrip: str) -> ExperimentRecord:
    """Scale, window, train, predict and evaluate a ready master dataset."""
    fp = fingerprint(cfg, variant, lookback, seed, master)
    cell = prepare_cell(master, cfg)
    train_windows = window(cell.train, lookback)
    test_windows = window(cell.test, lookback)
    model, history = train_model(train_windows, cfg, seed)
    evaluation = evaluate_model(model, cell, test_windows, cfg, history)
    return ExperimentRecord(scrip=scrip, variant=variant, lookback=lookback, seed=seed,
                            fingerprint=fp, history=history, **evaluation._asdict())


def run_grid(cfg: ExperimentConfig, tweet_loader=load_tweets) -> list[ExperimentRecord]:
    """Sweep every (variant, lookback) cell, isolating per-cell failures.

    First, each once: read the stock, skip with a warning each lookback of
    at least half the test-set length (a ConfigError if none is left), build
    every master (build_masters), create output_dir if set (a ConfigError if
    that fails). Then run the cells variant-major with seed
    cfg.seed + cell index, a failed master failing its cells. Every record,
    failed or not, is fingerprinted by its cell and its master (None for a
    failed master). Writes summary and per-record artifacts when output_dir
    is set.
    """
    stock = load_stock(cfg)
    n_test = stock.n_rows - ds.train_rows(stock.n_rows, cfg.split_ratio)
    usable = []
    for w in cfg.lookbacks:
        if w >= n_test / 2:
            logger.warning("skipping lookback %d: test set has only %d rows", w, n_test)
        else:
            usable.append(w)
    if not usable:
        raise ConfigError(f"no lookback in {cfg.lookbacks} is below half the test set's {n_test} rows")
    masters = build_masters(cfg, stock, tweet_loader)
    if cfg.output_dir is not None:
        try:
            Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {cfg.output_dir}: {exc}") from exc
    records = []
    for cell_index, (variant, lookback) in enumerate(product(masters, usable)):
        seed = cfg.seed + cell_index
        master = masters[variant]
        try:
            if isinstance(master, PipelineError):
                raise master
            record = run_master(master, cfg, variant, lookback, seed, scrip=stock.symbol)
        except PipelineError as exc:
            logger.warning("cell (%s, %d) failed at %s: %s", variant, lookback, exc.stage, exc.cause)
            fp = fingerprint(cfg, variant, lookback, seed,
                             None if isinstance(master, PipelineError) else master)
            record = ExperimentRecord(scrip=stock.symbol, variant=variant, lookback=lookback, seed=seed,
                                      fingerprint=fp, error=str(exc.cause), failed_stage=exc.stage)
        records.append(record)
    if cfg.output_dir is not None:
        emit_report(records, cfg.output_dir)
        for record in records:
            write_record_artifacts(record, cfg.output_dir)
    return records


def _record_stem(record: ExperimentRecord) -> str:
    return f"{record.scrip}_{record.variant}_w{record.lookback}"


def _loss_and_pred_paths(record: ExperimentRecord, out_dir: Path) -> list[Path]:
    stem = _record_stem(record)
    return [out_dir / f"{stem}_loss.csv", out_dir / f"{stem}_pred.csv"]


def write_loss_csv(history: nn.TrainingHistory, path: str | Path) -> Path:
    """Loss-curve CSV: epoch,train_loss,val_loss."""
    rows = zip(range(history.n_epochs), history.train_loss, history.val_loss)
    return write_csv(path, ("epoch", "train_loss", "val_loss"), rows, line_end="\n")


def write_pred_csv(record: ExperimentRecord, path: str | Path) -> Path:
    """Prediction CSV: date,actual,predicted in data units."""
    rows = zip(record.test_dates, record.actual, record.predicted)
    return write_csv(path, ("date", "actual", "predicted"), rows, line_end="\n")


def write_record_artifacts(record: ExperimentRecord, out_dir: str | Path) -> list[Path]:
    """Write the JSON record of one cell.

    Its "artifacts" list names the cell's loss-curve and prediction CSVs,
    which emit_report writes, by file name in the record's own directory.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / f"{_record_stem(record)}_record.json"
    blob = {name: getattr(record, name) for name in _RECORD_KEYS}
    if record.ok:
        blob["report"] = asdict(record.report)
        blob["history"] = {name: getattr(record.history, name) for name in _HISTORY_KEYS}
        blob["artifacts"] = [p.name for p in _loss_and_pred_paths(record, out_dir)]
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2)
    return [record_path]


def _summary_row(record: ExperimentRecord) -> list:
    head = [record.scrip, record.variant, record.lookback]
    if not record.ok:
        return head + [None] * 6 + [f"failed:{record.failed_stage}"]
    r = record.report
    return head + [r.val_score, r.r2, r.rmse, r.mae, r.time_offset, r.acc, r.units]


def write_summary_csv(records: list[ExperimentRecord], path: str | Path) -> Path:
    """Summary CSV with one row per record; failed cells carry failed:<stage>."""
    return write_csv(path, SUMMARY_COLUMNS, map(_summary_row, records), line_end="\n")


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

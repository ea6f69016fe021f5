"""Exception types raised across the package, and the one check of a config's field types."""

from dataclasses import fields


class SentiStockError(Exception):
    """Base class for all package-specific errors."""


# --- ingest ---

class MissingColumnError(SentiStockError):
    """A required CSV column is absent; the message names the column."""


class UnparseableRowError(SentiStockError):
    """An input line could not be parsed; carries its 1-based line number and
    the reason, and names the line's file when given its path."""

    def __init__(self, line_number, reason, path=None):
        where = f"line {line_number}" if path is None else f"{path}: line {line_number}"
        super().__init__(f"{where}: {reason}")
        self.line_number = line_number
        self.reason = reason


class EmptySeriesError(SentiStockError):
    """A stock or master CSV file contained no data rows."""


class UnparseableRecordError(UnparseableRowError):
    """A tweet record could not be parsed."""


class EmptyCorpusError(SentiStockError):
    """A tweet file contained no records."""


# --- sentiment ---

class ScorerUnavailableError(SentiStockError):
    """The configured scorer cannot produce a score for this input."""


class MissingVariantTextError(SentiStockError):
    """A tweet lacks the text form a scoring variant requires."""

    def __init__(self, tweet_id, variant):
        super().__init__(f"tweet {tweet_id!r} has no text for variant {variant!r}")
        self.tweet_id = tweet_id
        self.variant = variant


class UnknownTweetIdError(UnparseableRowError):
    """A score row references a tweet id absent from the corpus."""


class AmbiguousTweetIdError(UnparseableRowError):
    """A score row's tweet id names more than one tweet of a merged corpus."""


class ProbabilityRowInvalidError(UnparseableRowError):
    """A score row holds a negative probability or does not sum to 1 within 1e-3."""


# --- mapping ---

class MissingScoreError(SentiStockError):
    """The score table has no entry for a variant."""


# --- dataset ---

class DegenerateDatasetError(SentiStockError):
    """The dataset (or the requested slice of it) has too few rows."""


class UnknownColumnError(SentiStockError):
    """A scaler or dataset operation referenced a column that does not exist."""


class InsufficientRowsError(SentiStockError):
    """Not enough rows to form a single lookback window."""


# --- neuralnet ---

class InvalidShapeError(SentiStockError):
    """A model configuration specifies non-positive dimensions."""


class ShapeMismatchError(SentiStockError):
    """Input shapes or master columns do not match the model's."""


class EmptyTrainingSetError(SentiStockError):
    """No training samples remain after the validation split."""


class NonFiniteLossError(SentiStockError):
    """Training diverged; carries the epoch at which it happened."""

    def __init__(self, epoch, message=None):
        super().__init__(message or f"non-finite loss or parameter at epoch {epoch}")
        self.epoch = epoch


# --- evalmetrics ---

class LengthMismatchError(SentiStockError):
    """Prediction and actual sequences have different lengths."""


class ZeroVarianceError(SentiStockError):
    """The actual series is constant, so R^2 is undefined."""


class SeriesTooShortError(SentiStockError):
    """Series too short for the requested time-offset search."""


class EmptyHistoryError(SentiStockError):
    """A training history with no epochs was given."""


# --- harness ---

class PipelineError(SentiStockError):
    """A pipeline stage failed; wraps the underlying error with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


class ConfigError(SentiStockError):
    """An experiment configuration file or value is invalid."""


_FIELD_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),  # a bool is neither
                "bool": ((bool,), "true or false"), "str": ((str,), "a string"),
                "str | None": ((str, type(None)), "a string"), "tuple[int, int]": ((int,), "a pair of integers"),
                "list[int]": ((int,), "a list of integers"), "list[str]": ((str,), "a list of strings")}


def check_field_types(config, error=ValueError) -> None:
    """Raise ``error`` for the first field of dataclass ``config`` whose value (a list's or tuple's
    items, in exactly that container) is not of a type that _FIELD_TYPES gives its annotation."""
    for f in fields(config):
        types, kind = _FIELD_TYPES[f.type]
        value = getattr(config, f.name)
        items = value if f.type.startswith(f"{type(value).__name__}[") else [value]
        if (items is value) != ("[" in f.type) or any(type(x) not in types for x in items):
            raise error(f"{f.name} must be {kind}, not {value!r}")

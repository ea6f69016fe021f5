"""Exception types raised across the package."""


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
    """Input shapes do not match the model configuration."""


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

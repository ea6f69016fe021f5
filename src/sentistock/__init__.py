"""Sentiment-aware stock forecasting toolkit.

Pipelines tweet sentiment onto trading-day stock series via memory-weighted
aggregation, trains a from-scratch bidirectional LSTM on windowed min-max
scaled features, and evaluates forecasts with error, fit, directional and
time-offset indicators.
"""

import os

# One BLAS thread, set before numpy loads, so that result bytes do not depend
# on the CPU count; a count already set is kept (README, "Determinism").
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from . import errors
from .dataset import (
    ColumnScaler,
    ScalerSet,
    WindowedSet,
    chronological_split,
    fit_scalers,
    inverse_transform,
    make_windows,
    transform,
)
from .evalmetrics import (
    EvalReport,
    best_time_offset,
    compute_metrics,
    directional_accuracy,
    validation_score,
)
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    emit_report,
    run_grid,
    run_master,
)
from .ingest import (
    MasterDataset,
    Tweet,
    TweetCorpus,
    clean_tweets,
    load_master_csv,
    load_stock_csv,
    load_tweets,
    write_stock_csv,
    write_tweets,
)
from .mapping import (
    MemoryKernel,
    class_contributions,
    daily_aggregate,
    join_with_stock,
    memory_weighted_map,
)
from .neuralnet import (
    BiLstmModel,
    ModelConfig,
    TrainConfig,
    TrainingHistory,
    forward,
    init_model,
    load_model,
    loss_and_gradients,
    predict,
    save_model,
    train,
)
from .sentiment import (
    VARIANTS,
    ScoreTable,
    labels,
    load_precomputed_scores,
    score_corpus,
    score_texts,
)

__version__ = "0.1.0"

"""Sentiment-aware stock forecasting toolkit.

Pipelines tweet sentiment onto trading-day stock series via memory-weighted
aggregation, trains a from-scratch bidirectional LSTM on windowed min-max
scaled features, and evaluates forecasts with error, fit, directional and
time-offset indicators.
"""

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
    run_pipeline,
)
from .ingest import (
    StockSeries,
    Tweet,
    TweetCorpus,
    clean_tweet,
    load_stock_csv,
    load_tweets,
    write_stock_csv,
)
from .mapping import (
    DailySentimentSeries,
    MasterDataset,
    MemoryKernel,
    class_contribution,
    daily_aggregate,
    join_with_stock,
    load_master_csv,
    memory_weighted_map,
    stock_only_master,
    write_master_csv,
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
    ScorerConfig,
    ScoreTable,
    SentimentScore,
    load_precomputed_scores,
    score_corpus,
    score_tweet,
)

__version__ = "0.1.0"

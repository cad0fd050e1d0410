"""``repro.fcm`` — the paper's core contribution: FCM model, training, scoring."""

from .chart_encoder import SegmentLineChartEncoder
from .config import FCMConfig, paper_scale_config
from .da_layers import (
    DataAggregationEncoder,
    HierarchicalMultiScaleLayer,
    MixtureOfExpertsLayer,
    TransformationLayer,
)
from .dataset_encoder import SegmentDatasetEncoder
from .matcher import AveragedMatcher, HCMANMatcher, build_matcher
from .model import FCMModel
from .preprocessing import (
    ChartInput,
    TableInput,
    column_segments,
    line_segment_features,
    prepare_chart_input,
    prepare_table_input,
    resample_series,
    table_segments,
)
from .sampling import (
    NEGATIVE_STRATEGIES,
    batch_indices,
    select_negatives,
    select_negatives_batch,
)
from .scorer import EncodedTable, FCMScorer, build_scorer_for_repository
from .training import (
    EpochStats,
    FCMTrainer,
    TrainerConfig,
    TrainingData,
    TrainingExample,
    TrainingHistory,
    build_training_data,
    ground_truth_relevance,
    ground_truth_relevances,
    relevance_matrix,
    train_fcm,
)

__all__ = [
    "AveragedMatcher",
    "ChartInput",
    "DataAggregationEncoder",
    "EncodedTable",
    "EpochStats",
    "FCMConfig",
    "FCMModel",
    "FCMScorer",
    "FCMTrainer",
    "HCMANMatcher",
    "HierarchicalMultiScaleLayer",
    "MixtureOfExpertsLayer",
    "NEGATIVE_STRATEGIES",
    "SegmentDatasetEncoder",
    "SegmentLineChartEncoder",
    "TableInput",
    "TrainerConfig",
    "TrainingData",
    "TrainingExample",
    "TrainingHistory",
    "TransformationLayer",
    "batch_indices",
    "build_matcher",
    "build_scorer_for_repository",
    "build_training_data",
    "column_segments",
    "ground_truth_relevance",
    "ground_truth_relevances",
    "line_segment_features",
    "paper_scale_config",
    "prepare_chart_input",
    "prepare_table_input",
    "relevance_matrix",
    "resample_series",
    "select_negatives",
    "select_negatives_batch",
    "table_segments",
    "train_fcm",
]

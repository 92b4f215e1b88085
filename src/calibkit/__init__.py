"""calibkit: calibration metrics, a differentiable calibration loss, and a
small deterministic trainer for studying confidence calibration.
"""

__version__ = "0.1.0"

from .data import Dataset, LogFormat, SplitSpec, gen_synthetic, load_predictions, split
from .errors import (
    DomainError,
    LabelRangeError,
    MalformedRowError,
    MissingLogError,
    PredictionLogError,
    ProbabilitySumError,
)
from .losses import (
    IndicatorVariant,
    LossConfig,
    LossValue,
    auto_gamma,
    curriculum_weight,
    soft_ece,
    soft_ece_grad,
    soft_indicator,
    softmax,
    weighted_loss,
)
from .metrics import (
    ClassificationReport,
    Predictions,
    ReliabilityTable,
    build_reliability_table,
    classification_report,
    ece,
)
from .reporting import (
    comparison_table,
    render_reliability_svg,
    save_predictions,
)
from .training import (
    EpochStats,
    ModelParams,
    TrainConfig,
    TrainReport,
    TrainingMode,
    backward,
    evaluate,
    forward,
    init_model,
    train,
    train_arms,
)

__all__ = [
    "__version__",
    "ClassificationReport",
    "Dataset",
    "DomainError",
    "EpochStats",
    "IndicatorVariant",
    "LabelRangeError",
    "LogFormat",
    "LossConfig",
    "LossValue",
    "MalformedRowError",
    "MissingLogError",
    "ModelParams",
    "PredictionLogError",
    "Predictions",
    "ProbabilitySumError",
    "ReliabilityTable",
    "SplitSpec",
    "TrainConfig",
    "TrainReport",
    "TrainingMode",
    "auto_gamma",
    "backward",
    "build_reliability_table",
    "classification_report",
    "comparison_table",
    "curriculum_weight",
    "ece",
    "evaluate",
    "forward",
    "gen_synthetic",
    "init_model",
    "load_predictions",
    "render_reliability_svg",
    "save_predictions",
    "soft_ece",
    "soft_ece_grad",
    "soft_indicator",
    "softmax",
    "split",
    "train",
    "train_arms",
    "weighted_loss",
]

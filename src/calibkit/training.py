"""Small deterministic SGD trainer for linear / one-hidden-layer tanh models.

Determinism contract: same config and data => bit-identical parameters and
reports. Initialization draws from ``default_rng(seed)``; the shuffle for
epoch ``e`` draws from ``default_rng([seed, e])`` so epoch order never
depends on how much randomness initialization consumed. Per-epoch wall
time is recorded but excluded from report comparisons.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import DomainError
from .losses import (
    LossConfig,
    LossValue,
    curriculum_weight,
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


class TrainingMode(Enum):
    """How the calibration term enters the objective."""

    VANILLA_NLL = "vanilla"          # weight fixed at 0
    CALIBRATED_CURRICULUM = "curriculum"  # weight ramps from s_e to gamma_E
    CALIBRATED_FIXED = "fixed"       # weight fixed at gamma_E from epoch 0

    @classmethod
    def from_name(cls, name: str) -> "TrainingMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise DomainError(f"unknown training mode {name!r}") from None


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Weights for a linear model (hidden fields None) or a 1-hidden tanh MLP."""

    w_out: np.ndarray
    b_out: np.ndarray
    w_hidden: np.ndarray | None = None
    b_hidden: np.ndarray | None = None

    @property
    def has_hidden(self) -> bool:
        return self.w_hidden is not None


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int
    loss: LossConfig
    mode: TrainingMode
    hidden_dim: int = 0
    eval_bins: int = 15

    def __post_init__(self):
        if self.epochs < 1:
            raise DomainError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DomainError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        if self.hidden_dim < 0:
            raise DomainError(f"hidden_dim must be >= 0, got {self.hidden_dim}")
        if self.eval_bins < 1:
            raise DomainError(f"eval_bins must be >= 1, got {self.eval_bins}")
        if self.epochs != self.loss.total_epochs:
            raise DomainError(
                f"epochs ({self.epochs}) and loss.total_epochs "
                f"({self.loss.total_epochs}) must match"
            )


@dataclass(frozen=True)
class EpochStats:
    """Sample-weighted means of the per-batch losses over one epoch."""

    epoch: int
    nll: float
    soft_ece: float
    ece_weight: float
    total: float
    train_accuracy: float
    seconds: float = field(compare=False)


@dataclass(frozen=True)
class TrainReport:
    epochs: tuple[EpochStats, ...]
    final_report: ClassificationReport
    final_ece: float
    reliability: ReliabilityTable
    eval_bins: int


def init_model(input_dim: int, hidden_dim: int, k: int, seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases.

    hidden_dim == 0 selects the linear model.
    """
    if input_dim < 1:
        raise DomainError(f"input_dim must be >= 1, got {input_dim}")
    if hidden_dim < 0:
        raise DomainError(f"hidden_dim must be >= 0, got {hidden_dim}")
    if k < 2:
        raise DomainError(f"need at least 2 classes, got {k}")
    rng = np.random.default_rng(seed)
    if hidden_dim == 0:
        bound = 1.0 / np.sqrt(input_dim)
        return ModelParams(
            w_out=rng.uniform(-bound, bound, (input_dim, k)),
            b_out=np.zeros(k),
        )
    bound_h = 1.0 / np.sqrt(input_dim)
    bound_o = 1.0 / np.sqrt(hidden_dim)
    return ModelParams(
        w_hidden=rng.uniform(-bound_h, bound_h, (input_dim, hidden_dim)),
        b_hidden=np.zeros(hidden_dim),
        w_out=rng.uniform(-bound_o, bound_o, (hidden_dim, k)),
        b_out=np.zeros(k),
    )


def _forward_full(params: ModelParams, features: np.ndarray):
    if features.ndim != 2:
        raise DomainError(f"features must be 2-D, got shape {features.shape}")
    expected = params.w_hidden.shape[0] if params.has_hidden else params.w_out.shape[0]
    if features.shape[1] != expected:
        raise DomainError(
            f"features have {features.shape[1]} columns, model expects {expected}"
        )
    if not params.has_hidden:
        return features @ params.w_out + params.b_out, None
    hidden = np.tanh(features @ params.w_hidden + params.b_hidden)
    return hidden @ params.w_out + params.b_out, hidden


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits of shape (n, K)."""
    return _forward_full(params, features)[0]


def _mode_weight(mode: TrainingMode, epoch: int, loss_cfg: LossConfig) -> float:
    if mode is TrainingMode.VANILLA_NLL:
        return 0.0
    if mode is TrainingMode.CALIBRATED_CURRICULUM:
        return curriculum_weight(epoch, loss_cfg)
    return loss_cfg.gamma_e


def _backward_impl(params, features, labels, weight, loss_cfg):
    logits, hidden = _forward_full(params, features)
    value = weighted_loss(logits, labels, weight, loss_cfg)
    dlogits = value.grad_logits
    if not params.has_hidden:
        grads = ModelParams(w_out=features.T @ dlogits, b_out=dlogits.sum(axis=0))
    else:
        d_hidden = (dlogits @ params.w_out.T) * (1.0 - hidden * hidden)
        grads = ModelParams(
            w_out=hidden.T @ dlogits,
            b_out=dlogits.sum(axis=0),
            w_hidden=features.T @ d_hidden,
            b_hidden=d_hidden.sum(axis=0),
        )
    return value, grads, logits


def backward(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    epoch: int,
    config: TrainConfig,
) -> tuple[LossValue, ModelParams]:
    """Loss at the current parameters plus gradients in a parallel container.

    The calibration weight is set by the mode: 0, the epoch ramp, or the
    constant gamma_E.
    """
    weight = _mode_weight(config.mode, epoch, config.loss)
    value, grads, _ = _backward_impl(params, features, labels, weight, config.loss)
    return value, grads


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float) -> ModelParams:
    """One plain SGD update: p - lr * g for every parameter array."""
    if learning_rate <= 0:
        raise DomainError(f"learning_rate must be positive, got {learning_rate}")
    if params.has_hidden != grads.has_hidden:
        raise DomainError("params and grads disagree on model shape")
    for name in ("w_out", "b_out", "w_hidden", "b_hidden"):
        p, g = getattr(params, name), getattr(grads, name)
        if p is not None and p.shape != g.shape:
            raise DomainError(f"{name}: shape {g.shape} does not match {p.shape}")
    if not params.has_hidden:
        return ModelParams(
            w_out=params.w_out - learning_rate * grads.w_out,
            b_out=params.b_out - learning_rate * grads.b_out,
        )
    return ModelParams(
        w_out=params.w_out - learning_rate * grads.w_out,
        b_out=params.b_out - learning_rate * grads.b_out,
        w_hidden=params.w_hidden - learning_rate * grads.w_hidden,
        b_hidden=params.b_hidden - learning_rate * grads.b_hidden,
    )


def evaluate(
    preds: Predictions, n_bins: int
) -> tuple[ClassificationReport, float, ReliabilityTable]:
    """Classification report, ECE, and reliability table at ``n_bins``."""
    table = build_reliability_table(preds, n_bins)
    return classification_report(preds), ece(table), table


def train(
    train_set: Dataset, val_set: Dataset, config: TrainConfig
) -> tuple[ModelParams, TrainReport]:
    """Full SGD run; returns final parameters and the epoch-by-epoch report.

    Every epoch reshuffles the training set (seeded by [seed, epoch]) and
    walks it in batches of ``batch_size``; a short final batch is still
    trained on. Epoch stats are sample-weighted means, so short batches
    count by their actual size. Validation metrics use ``eval_bins``.
    """
    if train_set.n < 1 or val_set.n < 1:
        raise DomainError("train and validation splits must be non-empty")
    if train_set.k != val_set.k or train_set.dim != val_set.dim:
        raise DomainError("train and validation splits disagree on classes or features")
    params = init_model(train_set.dim, config.hidden_dim, train_set.k, config.seed)
    n = train_set.n
    stats: list[EpochStats] = []
    for epoch in range(config.epochs):
        tic = time.perf_counter()
        weight = _mode_weight(config.mode, epoch, config.loss)
        order = np.random.default_rng([config.seed, epoch]).permutation(n)
        nll_sum = soft_sum = total_sum = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = train_set.features[idx], train_set.labels[idx]
            value, grads, logits = _backward_impl(params, xb, yb, weight, config.loss)
            params = sgd_step(params, grads, config.learning_rate)
            b = idx.shape[0]
            nll_sum += value.nll * b
            soft_sum += value.soft_ece * b
            total_sum += value.total * b
            correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        stats.append(
            EpochStats(
                epoch=epoch,
                nll=nll_sum / n,
                soft_ece=soft_sum / n,
                ece_weight=weight,
                total=total_sum / n,
                train_accuracy=correct / n,
                seconds=time.perf_counter() - tic,
            )
        )
    val_preds = Predictions.from_probs(softmax(forward(params, val_set.features)), val_set.labels)
    report, final_ece, table = evaluate(val_preds, config.eval_bins)
    return params, TrainReport(
        epochs=tuple(stats),
        final_report=report,
        final_ece=final_ece,
        reliability=table,
        eval_bins=config.eval_bins,
    )

"""Small deterministic SGD trainer for linear / one-hidden-layer tanh models.

Determinism contract: same config and data => bit-identical parameters and
reports. Initialization draws from ``default_rng(seed)``; the shuffle for
epoch ``e`` draws from ``default_rng([seed, e])`` so epoch order never
depends on how much randomness initialization consumed. Per-epoch wall
time is recorded but excluded from report comparisons.

Runs that share seed, data and schedule and differ only in their
calibration weight train together in one loop over a leading model axis
(:func:`train_arms`); :func:`train` is a stack of one. Each run in a
stack is bit-identical to training it alone.
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
    _joint_loss,
    _softmax,
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


def _check_features(params: ModelParams, features: np.ndarray) -> None:
    if features.ndim != 2:
        raise DomainError(f"features must be 2-D, got shape {features.shape}")
    expected = params.w_hidden.shape[0] if params.has_hidden else params.w_out.shape[0]
    if features.shape[1] != expected:
        raise DomainError(
            f"features have {features.shape[1]} columns, model expects {expected}"
        )


def _stack(params: ModelParams) -> ModelParams:
    """One model as a stack of one: weights (1, d, h), biases (1, 1, h)."""
    return ModelParams(
        w_out=params.w_out[None],
        b_out=params.b_out[None, None],
        w_hidden=None if params.w_hidden is None else params.w_hidden[None],
        b_hidden=None if params.b_hidden is None else params.b_hidden[None, None],
    )


def _arm(stacked: ModelParams, s: int) -> ModelParams:
    """Model ``s`` of a stack, as views."""
    return ModelParams(
        w_out=stacked.w_out[s],
        b_out=stacked.b_out[s, 0],
        w_hidden=None if stacked.w_hidden is None else stacked.w_hidden[s],
        b_hidden=None if stacked.b_hidden is None else stacked.b_hidden[s, 0],
    )


def _forward_stacked(params: ModelParams, features: np.ndarray):
    """Logits (S, n, K) and tanh activations (S, n, h) (None for a linear
    model) of a stack of S models on shared (n, d) features."""
    if not params.has_hidden:
        return features @ params.w_out + params.b_out, None
    hidden = np.tanh(features @ params.w_hidden + params.b_hidden)
    return hidden @ params.w_out + params.b_out, hidden


def _grads_stacked(params: ModelParams, features, hidden, dlogits) -> ModelParams:
    """Parameter gradients of a stack of S models from their logit
    gradients (S, n, K), in the stack's own shapes."""
    b_out = dlogits.sum(axis=1, keepdims=True)
    if not params.has_hidden:
        return ModelParams(w_out=features.T @ dlogits, b_out=b_out)
    d_hidden = (dlogits @ params.w_out.transpose(0, 2, 1)) * (1.0 - hidden * hidden)
    return ModelParams(
        w_out=hidden.transpose(0, 2, 1) @ dlogits,
        b_out=b_out,
        w_hidden=features.T @ d_hidden,
        b_hidden=d_hidden.sum(axis=1, keepdims=True),
    )


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits of shape (n, K)."""
    _check_features(params, features)
    return _forward_stacked(_stack(params), features)[0][0]


def _mode_weight(mode: TrainingMode, epoch: int, loss_cfg: LossConfig) -> float:
    if mode is TrainingMode.VANILLA_NLL:
        return 0.0
    if mode is TrainingMode.CALIBRATED_CURRICULUM:
        return curriculum_weight(epoch, loss_cfg)
    return loss_cfg.gamma_e


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
    _check_features(params, features)
    weight = _mode_weight(config.mode, epoch, config.loss)
    stacked = _stack(params)
    logits, hidden = _forward_stacked(stacked, features)
    value = weighted_loss(logits[0], labels, weight, config.loss)
    grads = _grads_stacked(stacked, features, hidden, value.grad_logits[None])
    return value, _arm(grads, 0)


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


# Fields every config of one stacked run must agree on: the arms share the
# data order, the initial weights, the update and the loss's binning.
_SHARED_FIELDS = ("seed", "epochs", "batch_size", "learning_rate", "hidden_dim", "eval_bins")
_SHARED_LOSS_FIELDS = ("s_e", "m_train", "indicator_variant")


def _check_arms(train_set: Dataset, val_set: Dataset, configs: list[TrainConfig]) -> None:
    if not configs:
        raise DomainError("train_arms needs at least one config")
    first = configs[0]
    for cfg in configs[1:]:
        for name in _SHARED_FIELDS:
            if getattr(cfg, name) != getattr(first, name):
                raise DomainError(f"configs disagree on {name}: "
                                  f"{getattr(first, name)!r} vs {getattr(cfg, name)!r}")
        for name in _SHARED_LOSS_FIELDS:
            if getattr(cfg.loss, name) != getattr(first.loss, name):
                raise DomainError(f"configs disagree on loss.{name}: "
                                  f"{getattr(first.loss, name)!r} vs {getattr(cfg.loss, name)!r}")
    if train_set.n < 1 or val_set.n < 1:
        raise DomainError("train and validation splits must be non-empty")
    if train_set.k != val_set.k or train_set.dim != val_set.dim:
        raise DomainError("train and validation splits disagree on classes or features")
    for name, ds in (("train", train_set), ("validation", val_set)):
        if not np.isfinite(ds.features).all():
            raise DomainError(f"{name} features contain non-finite values")


def _check_finite(logits, configs, weights, where: str) -> None:
    """Raise naming the first arm whose logits hold a non-finite entry."""
    if np.isfinite(logits).all():
        return
    s = int(np.argmax(~np.isfinite(logits).reshape(len(configs), -1).all(axis=1)))
    raise DomainError(
        f"{configs[s].mode.value} run diverged {where}: non-finite logits "
        f"(ece weight {weights[s]!r}, learning rate {configs[s].learning_rate!r})"
    )


def train_arms(
    train_set: Dataset, val_set: Dataset, configs
) -> list[tuple[ModelParams, TrainReport]]:
    """Train one run per config in a single SGD loop over a stack of models.

    The configs may differ only in ``mode`` and ``loss.gamma_e``: the runs
    share the initial weights, every epoch's batch order and the learning
    rate, and differ only in each epoch's calibration weight. Each run's
    parameters and report are bit-identical to training it alone.

    Every epoch reshuffles the training set (seeded by [seed, epoch]) and
    walks it in batches of ``batch_size``; a short final batch is still
    trained on. Epoch stats are sample-weighted means, so short batches
    count by their actual size. Validation metrics use ``eval_bins``.
    Non-finite logits stop training with a ``DomainError`` naming the
    run's mode, the epoch, the batch, the weight and the learning rate.
    Every run's ``EpochStats.seconds`` is the wall time of the shared epoch.
    """
    configs = list(configs)
    _check_arms(train_set, val_set, configs)
    first = configs[0]
    one = _stack(init_model(train_set.dim, first.hidden_dim, train_set.k, first.seed))
    params = ModelParams(**{
        name: None if arr is None else np.repeat(arr, len(configs), axis=0)
        for name, arr in vars(one).items()
    })
    n, lr = train_set.n, first.learning_rate
    stats: list[list[EpochStats]] = [[] for _ in configs]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(first.epochs):
            tic = time.perf_counter()
            weight_list = [_mode_weight(c.mode, epoch, c.loss) for c in configs]
            weights = np.array(weight_list, dtype=np.float64)
            order = np.random.default_rng([first.seed, epoch]).permutation(n)
            nll_sum = np.zeros(len(configs))
            soft_sum = np.zeros(len(configs))
            total_sum = np.zeros(len(configs))
            correct = np.zeros(len(configs), dtype=np.int64)
            for batch, start in enumerate(range(0, n, first.batch_size)):
                idx = order[start:start + first.batch_size]
                xb, yb = train_set.features[idx], train_set.labels[idx]
                logits, hidden = _forward_stacked(params, xb)
                _check_finite(logits, configs, weight_list,
                              f"at epoch {epoch}, batch {batch}")
                nll, soft, dlogits = _joint_loss(_softmax(logits), yb, weights, first.loss)
                params = sgd_step(params, _grads_stacked(params, xb, hidden, dlogits), lr)
                b = idx.shape[0]
                nll_sum += nll * b
                soft_sum += soft * b
                total_sum += (nll + weights * soft) * b
                correct += (np.argmax(logits, axis=2) == yb).sum(axis=1)
            seconds = time.perf_counter() - tic
            for s, arm_stats in enumerate(stats):
                arm_stats.append(
                    EpochStats(
                        epoch=epoch,
                        nll=float(nll_sum[s] / n),
                        soft_ece=float(soft_sum[s] / n),
                        ece_weight=weight_list[s],
                        total=float(total_sum[s] / n),
                        train_accuracy=int(correct[s]) / n,
                        seconds=seconds,
                    )
                )
        val_logits, _ = _forward_stacked(params, val_set.features)
        _check_finite(val_logits, configs, weight_list,
                      f"on the validation set after epoch {first.epochs - 1}")
    results = []
    for s, cfg in enumerate(configs):
        val_preds = Predictions.from_probs(softmax(val_logits[s]), val_set.labels)
        report, final_ece, table = evaluate(val_preds, cfg.eval_bins)
        results.append((_arm(params, s), TrainReport(
            epochs=tuple(stats[s]),
            final_report=report,
            final_ece=final_ece,
            reliability=table,
        )))
    return results


def train(
    train_set: Dataset, val_set: Dataset, config: TrainConfig
) -> tuple[ModelParams, TrainReport]:
    """Full SGD run; returns final parameters and the epoch-by-epoch report.

    One run of :func:`train_arms`, which documents the loop.
    """
    return train_arms(train_set, val_set, [config])[0]

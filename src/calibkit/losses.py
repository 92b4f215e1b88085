"""Differentiable calibration loss, NLL, and the curriculum-weighted
joint training objective.

The calibration term replaces the 0/1 correctness indicator inside the
binned calibration error with sigmoid(tan(pi*q - pi/2)), a smooth,
strictly increasing map of a probability q onto (0, 1) with fixed point
0.5. Probabilities are clamped to [EPSILON, 1-EPSILON] before the tangent,
and below by EPSILON inside the NLL's log, with the constant
``kernels.EPSILON`` = 1e-6, so the loss and its gradient stay finite at
the interval ends. Two choices of q ship: the max probability (the
confidence itself, the default) and the true-class probability, which
tracks the hard correctness indicator more closely.

The joint objective adds the calibration term to the NLL with a weight
that ramps linearly from 0 (at epoch ``s_e``) to ``gamma_e`` (at epoch
``total_epochs``); :mod:`calibkit.training` maps each training mode and
epoch to the weight it uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .kernels import EPSILON, bin_edges, soft_ece_backward


class IndicatorVariant(Enum):
    """Which probability feeds the smoothed correctness indicator."""

    MAX_PROB = "max_prob"
    TRUE_CLASS_PROB = "true_class_prob"


@dataclass(frozen=True)
class LossConfig:
    """Settings of the joint objective.

    gamma_e: target weight of the calibration term.
    s_e: epoch at which the calibration term starts ramping in.
    total_epochs: ramp length N; the ramp hits gamma_e at epoch N.
    m_train: confidence bins used inside the loss (10 by default).
    """

    gamma_e: float
    s_e: int = 0
    total_epochs: int = 50
    m_train: int = 10
    indicator_variant: IndicatorVariant = IndicatorVariant.MAX_PROB

    def __post_init__(self):
        # 0 is allowed so the joint objective can degenerate to plain NLL.
        if not (math.isfinite(self.gamma_e) and self.gamma_e >= 0):
            raise DomainError(
                f"gamma_e must be finite and non-negative, got {self.gamma_e}"
            )
        if self.total_epochs < 1:
            raise DomainError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if not 0 <= self.s_e < self.total_epochs:
            raise DomainError(
                f"s_e must satisfy 0 <= s_e < total_epochs, got {self.s_e}"
            )
        if self.m_train < 1:
            raise DomainError(f"m_train must be >= 1, got {self.m_train}")


@dataclass(frozen=True, eq=False)
class LossValue:
    """One evaluation of the joint objective on a batch.

    ``total`` always equals ``nll + ece_weight * soft_ece``;
    ``grad_logits`` is the matching (batch, K) gradient.
    """

    nll: float
    soft_ece: float
    ece_weight: float
    total: float
    grad_logits: np.ndarray


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] < 2:
        raise DomainError(f"softmax needs K >= 2 classes, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise DomainError("softmax input contains non-finite entries")
    return _softmax(z)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _as_batch(probs, labels):
    p = np.ascontiguousarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] == 0:
        raise DomainError(f"expected a non-empty (n, K) batch, got shape {p.shape}")
    y = np.ascontiguousarray(labels, dtype=np.int64)
    if y.shape != (p.shape[0],):
        raise DomainError("labels must be one class index per batch row")
    if y.min() < 0 or y.max() >= p.shape[1]:
        raise DomainError(f"labels outside [0, {p.shape[1]})")
    return p, y


def nll_loss(probs, labels):
    """Mean negative log-likelihood and its gradient with respect to logits.

    Probabilities are clamped below by ``EPSILON`` inside the log. The
    gradient is the usual (softmax - onehot) / batch_size.
    """
    p, y = _as_batch(probs, labels)
    loss, grad = _nll(p[None], y)
    return float(loss[0]), grad[0]


def _nll(p: np.ndarray, y: np.ndarray):
    """Per-batch mean NLL (S,) and logit gradient (S, n, K) of a stack of
    S batches (S, n, K) sharing the labels (n,)."""
    n = p.shape[1]
    # Array indices on every axis give a C-ordered gather; a leading slice
    # would give a strided one, on which np.log takes a loop that can round
    # differently from the contiguous one.
    arm = np.arange(p.shape[0])[:, None]
    rows = np.arange(n)
    picked = np.maximum(p[arm, rows, y], EPSILON)
    loss = -np.log(picked).mean(axis=1)
    grad = p.copy()
    grad[arm, rows, y] -= 1.0
    grad /= n
    return loss, grad


def soft_indicator(p: float) -> float:
    """Smoothed correctness indicator sigmoid(tan(pi*p - pi/2)).

    Total on [0, 1]: ``p`` is clamped to [EPSILON, 1-EPSILON] before the
    tangent, so the endpoints map to finite values just shy of 0 and 1.
    """
    q = min(max(p, EPSILON), 1.0 - EPSILON)
    t = math.tan(math.pi * q - 0.5 * math.pi)
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def soft_ece(probs, labels, n_bins: int,
             variant: IndicatorVariant = IndicatorVariant.MAX_PROB) -> float:
    """Binned calibration error with the smoothed indicator in place of 0/1
    correctness; binning (by max probability) stays the hard one."""
    p, y = _as_batch(probs, labels)
    if n_bins < 1:
        raise DomainError(f"bin count must be >= 1, got {n_bins}")
    value, _ = soft_ece_backward(p, y, bin_edges(n_bins),
                                 variant is IndicatorVariant.TRUE_CLASS_PROB)
    return value


def soft_ece_grad(logits, labels, n_bins: int,
                  variant: IndicatorVariant = IndicatorVariant.MAX_PROB) -> np.ndarray:
    """Analytic gradient of ``soft_ece(softmax(logits), ...)`` wrt logits.

    Bin membership is treated as fixed at its forward value; the absolute
    value contributes sign(gap) with sign(0) = 0.
    """
    p, y = _as_batch(softmax(logits), labels)
    if n_bins < 1:
        raise DomainError(f"bin count must be >= 1, got {n_bins}")
    _, grad = soft_ece_backward(p, y, bin_edges(n_bins),
                                variant is IndicatorVariant.TRUE_CLASS_PROB)
    return grad


def curriculum_weight(c_e: int, config: LossConfig) -> float:
    """Linear ramp ((c_e - s_e) / (N - s_e)) * gamma_e, zero before s_e."""
    if c_e < 0 or c_e > config.total_epochs:
        raise DomainError(
            f"epoch {c_e} outside [0, {config.total_epochs}]"
        )
    if c_e < config.s_e:
        return 0.0
    return ((c_e - config.s_e) / (config.total_epochs - config.s_e)) * config.gamma_e


def weighted_loss(logits, labels, weight: float, config: LossConfig) -> LossValue:
    """NLL plus ``weight`` times the calibration term, with joint gradient."""
    z = np.ascontiguousarray(logits, dtype=np.float64)
    p, y = _as_batch(softmax(z), labels)
    nll, soft, grad = _joint_loss(p[None], y, np.array([weight], dtype=np.float64), config)
    nll_value, soft_value = float(nll[0]), float(soft[0])
    return LossValue(
        nll=nll_value,
        soft_ece=soft_value,
        ece_weight=weight,
        total=nll_value + weight * soft_value,
        grad_logits=grad[0],
    )


def _joint_loss(p: np.ndarray, y: np.ndarray, weights: np.ndarray, config: LossConfig):
    """NLL (S,), soft-ECE (S,) and the logit gradient (S, n, K) of
    ``nll + weights[s] * soft_ece`` for a stack of S probability batches
    (S, n, K) sharing the labels (n,). Inputs are trusted: callers check
    them once, at their own boundary."""
    nll, nll_grad = _nll(p, y)
    soft, soft_grad = soft_ece_backward(
        p, y, bin_edges(config.m_train),
        config.indicator_variant is IndicatorVariant.TRUE_CLASS_PROB,
    )
    return nll, soft, nll_grad + weights[:, None, None] * soft_grad


def auto_gamma(nll_sample: float, soft_ece_sample: float) -> float:
    """Target weight that equalizes the magnitudes of two observed losses."""
    if nll_sample <= 0 or soft_ece_sample <= 0:
        raise DomainError("loss samples must both be positive")
    return nll_sample / soft_ece_sample

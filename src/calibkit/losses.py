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

The joint objective (:func:`weighted_loss`) adds the calibration term to
the NLL with a weight that ramps linearly from 0 (at epoch ``s_e``) to
``gamma_e`` (at epoch ``total_epochs``); :mod:`calibkit.training` maps
each training mode and epoch to the weight it uses. It holds the one NLL:
at weight 0 it is the plain NLL and its gradient. Logits follow the array
rule of :mod:`calibkit.errors` and probabilities are checked as in
``Predictions.from_probs``; calibkit's own softmax output is not rechecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, _class_labels, _count, _float_array, _real
from .kernels import EPSILON, bin_edges, row_offsets, soft_ece_backward
from .metrics import Predictions


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
        object.__setattr__(self, "gamma_e", _real(self.gamma_e, "gamma_e"))
        for name, minimum in (("total_epochs", 1), ("s_e", 0), ("m_train", 1)):
            object.__setattr__(self, name, _count(getattr(self, name), name, minimum))
        if self.s_e >= self.total_epochs:
            raise DomainError(
                f"s_e must satisfy 0 <= s_e < total_epochs, got {self.s_e}"
            )


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
    z = _float_array(logits, "logits")
    if z.ndim == 0 or z.shape[-1] < 2:
        raise DomainError(f"softmax needs K >= 2 classes, got shape {z.shape}")
    return _softmax(z, z.max(axis=-1, keepdims=True))


def _softmax(z: np.ndarray, z_max: np.ndarray) -> np.ndarray:
    """Softmax of finite logits given their row maxima (..., 1)."""
    e = np.exp(z - z_max)
    return e / e.sum(axis=-1, keepdims=True)


def _nll(p: np.ndarray, y: np.ndarray):
    """Per-batch mean NLL (S,) and logit gradient (S, n, K) of a stack of
    S batches (S, n, K) sharing the labels (n,)."""
    n_stack, n, k = p.shape
    # A flat gather is C-ordered; a leading slice would give a strided one,
    # on which np.log takes a loop that can round differently.
    at_label = row_offsets(n_stack, n, k) + y
    picked = np.maximum(p.reshape(-1)[at_label], EPSILON)
    loss = -np.log(picked).sum(axis=1) / n  # np.mean's sum and divide, unwrapped
    grad = p.copy()
    grad.reshape(-1)[at_label] -= 1.0
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
    preds = Predictions.from_probs(probs, labels)
    value, _ = soft_ece_backward(preds.probs, preds.labels, bin_edges(n_bins),
                                 variant is IndicatorVariant.TRUE_CLASS_PROB)
    return value


def soft_ece_grad(logits, labels, n_bins: int,
                  variant: IndicatorVariant = IndicatorVariant.MAX_PROB) -> np.ndarray:
    """Analytic gradient of ``soft_ece(softmax(logits), ...)`` wrt logits.

    Bin membership is treated as fixed at its forward value; the absolute
    value contributes sign(gap) with sign(0) = 0.
    """
    p = softmax(_float_array(logits, "logits", (1, 2)))
    _, grad = soft_ece_backward(p, _class_labels(labels, *p.shape), bin_edges(n_bins),
                                variant is IndicatorVariant.TRUE_CLASS_PROB)
    return grad


def curriculum_weight(c_e: int, config: LossConfig) -> float:
    """Linear ramp ((c_e - s_e) / (N - s_e)) * gamma_e, zero before s_e."""
    c_e = _count(c_e, "epoch", 0)
    if c_e > config.total_epochs:
        raise DomainError(
            f"epoch {c_e} outside [0, {config.total_epochs}]"
        )
    if c_e < config.s_e:
        return 0.0
    return ((c_e - config.s_e) / (config.total_epochs - config.s_e)) * config.gamma_e


def weighted_loss(logits, labels, weight: float, config: LossConfig) -> LossValue:
    """NLL plus ``weight`` times the calibration term, with joint gradient."""
    weight = _real(weight, "weight")
    p = softmax(_float_array(logits, "logits", (1, 2)))
    y = _class_labels(labels, *p.shape)
    nll, soft, grad = _joint_loss(p[None], y, np.array([weight], dtype=np.float64),
                                  bin_edges(config.m_train),
                                  config.indicator_variant is IndicatorVariant.TRUE_CLASS_PROB)
    nll_value, soft_value = float(nll[0]), float(soft[0])
    return LossValue(
        nll=nll_value,
        soft_ece=soft_value,
        ece_weight=weight,
        total=nll_value + weight * soft_value,
        grad_logits=grad[0],
    )


def _joint_loss(p: np.ndarray, y: np.ndarray, weights: np.ndarray,
                edges: np.ndarray, use_true_q: bool):
    """NLL (S,), soft-ECE (S,) and the logit gradient (S, n, K) of
    ``nll + weights[s] * soft_ece`` for a stack of S probability batches
    (S, n, K) sharing the labels (n,), binned at ``edges`` with the
    indicator variant that ``use_true_q`` picks. Inputs are trusted:
    callers check them, and build the edges, once at their own boundary."""
    nll, nll_grad = _nll(p, y)
    soft, soft_grad = soft_ece_backward(p, y, edges, use_true_q)
    return nll, soft, nll_grad + weights[:, None, None] * soft_grad


def auto_gamma(nll_sample: float, soft_ece_sample: float) -> float:
    """Target weight that equalizes the magnitudes of two observed losses."""
    return _real(nll_sample, "nll_sample", True) / _real(soft_ece_sample, "soft_ece_sample", True)

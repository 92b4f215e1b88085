"""Binned calibration measurement and multi-class classification metrics.

Confidences live on the unit interval split into M equal right-closed bins
((m-1)/M, m/M]; a confidence of exactly 0 (impossible for a softmax max,
which is at least 1/K) is assigned to bin 0 so the mapping is total. The
expected calibration error is the bin-count-weighted mean absolute gap
between per-bin accuracy and per-bin mean confidence; empty bins carry
zero weight. A :class:`ReliabilityTable` is three length-M arrays, so no
Python loop runs per bin.

Every scorer reads one :class:`Predictions`: an (n, K) probability matrix
and its n true labels, held as arrays and validated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _class_labels, _float_array
from .kernels import bin_edges, reliability_sums


@dataclass(frozen=True, eq=False)
class Predictions:
    """An (n, K) probability matrix with one true label per row.

    ``predicted`` (first argmax) and ``confidence`` (the probability there)
    are computed at construction. ``from_probs`` holds its input to the
    array and label rules, with n >= 1 rows of K >= 2 non-negative entries
    that sum to 1 within 1e-9. The plain constructor trusts float64 (n, K)
    rows and int64 labels, such as a softmax and a ``Dataset``'s labels.
    """

    probs: np.ndarray
    labels: np.ndarray
    predicted: np.ndarray = field(init=False)
    confidence: np.ndarray = field(init=False)

    def __post_init__(self):
        predicted = np.argmax(self.probs, axis=1)
        object.__setattr__(self, "predicted", predicted)
        confidence = self.probs[np.arange(predicted.shape[0]), predicted]
        object.__setattr__(self, "confidence", confidence)

    @classmethod
    def from_probs(cls, probs, labels) -> "Predictions":
        p = _float_array(probs, "probs", (1, 2))
        if np.any(p < 0.0):
            raise DomainError("probs contain negative entries")
        totals = p.sum(axis=1)
        off = np.abs(totals - 1.0) > 1e-9
        if off.any():
            total = float(totals[np.argmax(off)])
            raise DomainError(f"probs sum to {total!r}, expected 1 within 1e-9")
        return cls(p, _class_labels(labels, *p.shape))


@dataclass(frozen=True, eq=False)
class ReliabilityTable:
    """Per-bin sample ``counts`` (int64), accuracy ``acc`` and mean
    confidence ``conf`` (float64) as three length-M arrays. Empty bins carry
    count 0 and acc = conf = 0. Tables are equal when all three arrays are."""

    counts: np.ndarray
    acc: np.ndarray
    conf: np.ndarray

    @property
    def m(self) -> int:
        return self.counts.shape[0]

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other):
        if not isinstance(other, ReliabilityTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in ("counts", "acc", "conf"))


def build_reliability_table(preds: Predictions, n_bins: int) -> ReliabilityTable:
    """Bin rows by confidence and aggregate per-bin accuracy and confidence."""
    correct = (preds.predicted == preds.labels).astype(np.float64)
    counts, acc_sums, conf_sums = reliability_sums(preds.confidence, correct, bin_edges(n_bins))
    occupied = np.maximum(counts, 1)
    acc_sums /= occupied
    conf_sums /= occupied
    return ReliabilityTable(counts, acc_sums, conf_sums)


def ece(table: ReliabilityTable) -> float:
    """Bin-weighted mean absolute gap between accuracy and confidence."""
    n = table.n
    if n < 1:
        raise DomainError("reliability table holds no samples")
    # cumsum adds strictly in bin order, as a loop would; np.sum would pair the terms up.
    return float(np.cumsum(table.counts / n * np.abs(table.acc - table.conf))[-1])


@dataclass(frozen=True)
class ClassificationReport:
    """Macro-averaged precision/recall/F1 plus overall accuracy.

    ``per_class`` holds one (precision, recall, f1) triple per class; a
    class absent from both predictions and labels scores 0 throughout,
    as do precision/recall with zero denominators.
    """

    per_class: tuple[tuple[float, float, float], ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float


def classification_report(preds: Predictions) -> ClassificationReport:
    """Per-class and macro-averaged classification metrics over the K columns."""
    k = preds.probs.shape[1]
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (preds.labels, preds.predicted), 1)
    tp = np.diag(cm).astype(np.float64)
    with np.errstate(invalid="ignore"):  # 0/0 scores 0
        precision = np.nan_to_num(tp / cm.sum(axis=0))
        recall = np.nan_to_num(tp / cm.sum(axis=1))
        f1 = np.nan_to_num(2 * precision * recall / (precision + recall))
    return ClassificationReport(
        per_class=tuple(zip(precision.tolist(), recall.tolist(), f1.tolist())),
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        accuracy=float(np.trace(cm) / preds.labels.shape[0]),
    )

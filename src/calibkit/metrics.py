"""Binned calibration measurement and multi-class classification metrics.

Confidences live on the unit interval split into M equal right-closed bins
((m-1)/M, m/M]; a confidence of exactly 0 (impossible for a softmax max,
which is at least 1/K) is assigned to bin 0 so the mapping is total. The
expected calibration error is the bin-count-weighted mean absolute gap
between per-bin accuracy and per-bin mean confidence; empty bins carry
zero weight.

Every scorer reads one :class:`Predictions`: an (n, K) probability matrix
and its n true labels, held as arrays and validated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernels import bin_edges, reliability_sums


@dataclass(frozen=True, eq=False)
class Predictions:
    """An (n, K) probability matrix with one true label per row.

    ``predicted`` (first argmax) and ``confidence`` (the probability there)
    are computed at construction. ``from_probs`` validates its input; the
    plain constructor trusts float64 (n, K) rows and int64 labels.
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
        p = np.array(probs, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 2:
            raise DomainError(f"expected an (n, K) matrix, n >= 1, K >= 2, got shape {p.shape}")
        y = np.asarray(labels)
        if y.dtype.kind == "f":
            # Checked before the int cast, which would truncate 0.7 to class 0.
            if not (y == np.trunc(y)).all():  # NaN fails this too
                raise DomainError("labels must be whole numbers")
            if (np.abs(y) >= 2.0**63).any():  # the cast of such a float, or inf, is undefined
                raise DomainError("labels outside the int64 range")
        try:
            y = np.array(labels, dtype=np.int64)
        except OverflowError:
            raise DomainError("labels outside the int64 range") from None
        if y.shape != (p.shape[0],):
            raise DomainError("probs and labels disagree on sample count")
        if not np.all(np.isfinite(p)):
            raise DomainError("probs contain non-finite entries")
        if np.any(p < 0.0):
            raise DomainError("probs contain negative entries")
        totals = p.sum(axis=1)
        off = np.abs(totals - 1.0) > 1e-9
        if off.any():
            total = float(totals[np.argmax(off)])
            raise DomainError(f"probs sum to {total!r}, expected 1 within 1e-9")
        k = p.shape[1]
        outside = (y < 0) | (y >= k)
        if outside.any():
            raise DomainError(f"true_class {int(y[np.argmax(outside)])} outside [0, {k})")
        return cls(p, y)


@dataclass(frozen=True)
class BinStats:
    count: int
    acc: float
    conf: float


@dataclass(frozen=True)
class ReliabilityTable:
    """Per-bin sample count, accuracy, and mean confidence over M bins.

    Empty bins carry count 0 and acc = conf = 0; bin counts always sum
    to ``n``.
    """

    m: int
    bins: tuple[BinStats, ...]
    n: int


def build_reliability_table(preds: Predictions, n_bins: int) -> ReliabilityTable:
    """Bin rows by confidence and aggregate per-bin accuracy and confidence."""
    if n_bins < 1:
        raise DomainError(f"bin count must be >= 1, got {n_bins}")
    correct = (preds.predicted == preds.labels).astype(np.float64)
    counts, acc_sums, conf_sums = reliability_sums(preds.confidence, correct, bin_edges(n_bins))
    bins = []
    for m in range(n_bins):
        c = int(counts[m])
        if c == 0:
            bins.append(BinStats(0, 0.0, 0.0))
        else:
            bins.append(BinStats(c, float(acc_sums[m] / c), float(conf_sums[m] / c)))
    return ReliabilityTable(m=n_bins, bins=tuple(bins), n=correct.shape[0])


def ece(table: ReliabilityTable) -> float:
    """Bin-weighted mean absolute gap between accuracy and confidence."""
    if table.n < 1:
        raise DomainError("reliability table holds no samples")
    total = 0.0
    for b in table.bins:
        if b.count:
            total += (b.count / table.n) * abs(b.acc - b.conf)
    return total


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
    per_class = []
    for c in range(k):
        tp = float(cm[c, c])
        fp = float(cm[:, c].sum() - cm[c, c])
        fn = float(cm[c, :].sum() - cm[c, c])
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append((precision, recall, f1))
    return ClassificationReport(
        per_class=tuple(per_class),
        macro_precision=float(np.mean([p for p, _, _ in per_class])),
        macro_recall=float(np.mean([r for _, r, _ in per_class])),
        macro_f1=float(np.mean([f for _, _, f in per_class])),
        accuracy=float(np.trace(cm) / preds.labels.shape[0]),
    )

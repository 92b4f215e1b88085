"""Independent numpy oracle for the numbers calibkit reports.

It shares no code with calibkit: confidences are binned into M right-closed
bins ((m-1)/M, m/M] with ``searchsorted`` on the interior edges, then
per-bin sums come from ``bincount``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def calibration(probs: np.ndarray, labels: np.ndarray, n_bins: int) -> tuple[float, float]:
    """(accuracy, ECE) of an (n, K) probability matrix against its labels.

    The predicted class is the first argmax, as in calibkit.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = probs.shape[0]
    pred = probs.argmax(axis=1)
    conf = probs[np.arange(n), pred]
    correct = (pred == labels).astype(np.float64)
    edges = np.arange(1, n_bins) / float(n_bins)
    bins = np.searchsorted(edges, conf, side="left")
    counts = np.bincount(bins, minlength=n_bins)
    acc_sums = np.bincount(bins, weights=correct, minlength=n_bins)
    conf_sums = np.bincount(bins, weights=conf, minlength=n_bins)
    full = counts > 0
    gaps = np.abs(acc_sums[full] - conf_sums[full]) / counts[full]
    ece = float(np.sum(counts[full] / n * gaps))
    return float(correct.mean()), ece


def read_jsonl_log(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and labels of a ``{"probs": [...], "label": i}`` log."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    probs = np.array([r["probs"] for r in rows], dtype=np.float64)
    labels = np.array([r["label"] for r in rows], dtype=np.int64)
    return probs, labels

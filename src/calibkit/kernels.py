"""Hot numeric kernels: binned accumulation and the smoothed-indicator
calibration gap with its gradient, as vectorized numpy.

Binning convention: the unit interval splits into M right-closed bins
((m-1)/M, m/M]; a confidence of exactly 0 lands in bin 0 so the map is
total. ``bin_edges(M)`` returns the M-1 interior edges; the bin index of
``c`` is the number of edges strictly below ``c``.
"""

from __future__ import annotations

import numpy as np


def bin_edges(n_bins: int) -> np.ndarray:
    """Interior bin edges k/M for k = 1..M-1, shared by every code path."""
    return np.arange(1, n_bins) / float(n_bins)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows.
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def bin_indices(conf: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index per sample: count of interior edges strictly below conf."""
    return np.searchsorted(edges, conf, side="left").astype(np.int64)


def reliability_sums(conf, correct, edges, n_bins):
    """Per-bin (count, sum of correctness, sum of confidence)."""
    bins = bin_indices(conf, edges)
    counts = np.bincount(bins, minlength=n_bins).astype(np.int64)
    acc_sums = np.bincount(bins, weights=correct, minlength=n_bins)
    conf_sums = np.bincount(bins, weights=conf, minlength=n_bins)
    return counts, acc_sums, conf_sums


def soft_ece_backward(probs, labels, edges, eps, use_true_q):
    """Binned gap between smoothed per-bin accuracy and mean confidence,
    plus its exact gradient with respect to the logits that produced
    ``probs`` via softmax. Returns ``(value, dlogits)``.

    Samples are binned by max probability. The smoothed correctness of a
    sample is sigmoid(tan(pi*q - pi/2)) with q the max probability, or the
    true-class probability when ``use_true_q``; q is clamped to
    [eps, 1-eps] before the tangent. Bin membership is frozen at its
    forward value; the absolute value uses sign with sign(0) = 0; the
    clamp contributes zero slope outside [eps, 1-eps].
    """
    n = probs.shape[0]
    n_bins = edges.shape[0] + 1
    pred = np.argmax(probs, axis=1)
    rows = np.arange(n)
    conf = probs[rows, pred]
    q = probs[rows, labels] if use_true_q else conf
    qc = np.clip(q, eps, 1.0 - eps)
    t = np.tan(np.pi * qc - 0.5 * np.pi)
    g = _sigmoid(t)
    bins = bin_indices(conf, edges)
    gsum = np.bincount(bins, weights=g, minlength=n_bins)
    csum = np.bincount(bins, weights=conf, minlength=n_bins)
    value = float(np.abs(gsum - csum).sum() / n)

    s = np.sign(gsum - csum)[bins] / n
    dgdq = g * (1.0 - g) * np.pi * (1.0 + t * t)
    dgdq[(q < eps) | (q > 1.0 - eps)] = 0.0
    dprobs = np.zeros_like(probs)
    qcol = labels if use_true_q else pred
    np.add.at(dprobs, (rows, qcol), s * dgdq)
    np.add.at(dprobs, (rows, pred), -s)
    inner = np.einsum("ij,ij->i", dprobs, probs)
    dlogits = probs * (dprobs - inner[:, None])
    return value, dlogits

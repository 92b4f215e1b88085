"""Hot numeric kernels: binned accumulation and the smoothed-indicator
calibration gap with its gradient, as vectorized numpy.

Binning convention: the unit interval splits into M right-closed bins
((m-1)/M, m/M]; a confidence of exactly 0 lands in bin 0 so the map is
total. ``bin_edges(M)`` returns the M-1 interior edges; the bin index of
``c`` is the number of edges strictly below ``c``.

Gathers and scatters on a stack of batches (S, n, K) use flat indices into
its C-ordered buffer, ``row_offsets(S, n, K) + column``: one index array
in place of three broadcast ones, and a C-ordered result.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import _count

# Probability clamp: keeps the indicator's tangent and the NLL's log finite.
EPSILON = 1e-6


def bin_edges(n_bins: int) -> np.ndarray:
    """Interior bin edges k/M, k = 1..M-1: every path's bins and bin-count check."""
    n_bins = _count(n_bins, "bin count", 1)
    return np.arange(1, n_bins) / float(n_bins)


@lru_cache(maxsize=64)
def row_offsets(n_stack: int, n: int, k: int) -> np.ndarray:
    """Flat offset of row i of batch s in a C-ordered (S, n, K) array, as a
    read-only (S, n) array; add a column index per row to address one
    entry of each row."""
    offsets = (np.arange(n_stack)[:, None] * n + np.arange(n)) * k
    offsets.flags.writeable = False
    return offsets


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # exp of -|t| never overflows; each sign takes the form that uses it.
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    return np.where(t >= 0, 1.0 / d, e / d)


def smoothed_indicator(q):
    """sigmoid(tan(pi*q - pi/2)) of q clamped to [EPSILON, 1-EPSILON], and the tangent."""
    qc = np.minimum(np.maximum(q, EPSILON), 1.0 - EPSILON)
    t = np.tan(np.pi * qc - 0.5 * np.pi)
    return _sigmoid(t), t


def bin_indices(conf: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index per sample: count of interior edges strictly below conf."""
    return edges.searchsorted(conf, side="left").astype(np.int64, copy=False)


def reliability_sums(conf, correct, edges):
    """Per-bin (count, sum of correctness, sum of confidence)."""
    n_bins = edges.shape[0] + 1
    bins = bin_indices(conf, edges)
    counts = np.bincount(bins, minlength=n_bins).astype(np.int64, copy=False)
    acc_sums = np.bincount(bins, weights=correct, minlength=n_bins)
    conf_sums = np.bincount(bins, weights=conf, minlength=n_bins)
    return counts, acc_sums, conf_sums


def soft_ece_backward(probs, labels, edges, use_true_q):
    """Binned gap between smoothed per-bin accuracy and mean confidence,
    plus its exact gradient with respect to the logits that produced
    ``probs`` via softmax. Returns ``(value, dlogits)``.

    ``probs`` is a stack of S batches (S, n, K) sharing the labels (n,);
    the values come back as (S,) and the gradients as (S, n, K). One
    (n, K) batch is a stack of one and gives a float and an (n, K) array.
    Each batch's result is bit-identical to computing it on its own.

    Samples are binned by max probability. The smoothed correctness of a
    sample is sigmoid(tan(pi*q - pi/2)) with q the max probability, or the
    true-class probability when ``use_true_q``; q is clamped to
    [EPSILON, 1-EPSILON] before the tangent. Bin membership is frozen at
    its forward value; the absolute value uses sign with sign(0) = 0. The
    clamp is flat outside [EPSILON, 1-EPSILON] with no mask: at either
    end |t| is about 1/(pi*EPSILON), so g is exactly 0 or 1 and the slope
    g*(1-g)*pi*(1+t^2) is exactly 0.
    """
    if probs.ndim == 2:
        value, dlogits = soft_ece_backward(probs[None], labels, edges, use_true_q)
        return float(value[0]), dlogits[0]
    n_stack, n, k = probs.shape
    n_bins = edges.shape[0] + 1
    flat = probs.reshape(-1)
    offsets = row_offsets(n_stack, n, k)
    pred = probs.argmax(axis=2)
    at_pred = offsets + pred
    conf = flat[at_pred]
    at_q = offsets + labels if use_true_q else at_pred
    q = flat[at_q] if use_true_q else conf
    g, t = smoothed_indicator(q)
    # batch s owns bins s*M .. s*M + M-1
    ids = bin_indices(conf, edges) + n_bins * np.arange(n_stack)[:, None]
    gsum = np.bincount(ids.ravel(), weights=g.ravel(), minlength=n_stack * n_bins)
    csum = np.bincount(ids.ravel(), weights=conf.ravel(), minlength=n_stack * n_bins)
    gap = gsum - csum
    value = np.abs(gap).reshape(n_stack, n_bins).sum(axis=1) / n

    s = np.sign(gap)[ids] / n
    dgdq = g * (1.0 - g) * np.pi * (1.0 + t * t)
    dprobs = np.zeros(probs.shape)
    dflat = dprobs.reshape(-1)
    dflat[at_q] = s * dgdq
    dflat[at_pred] -= s
    inner = np.einsum("sij,sij->si", dprobs, probs)
    dlogits = probs * (dprobs - inner[..., None])
    return value, dlogits

"""Kernel-level checks: binning, bin sums, and the soft-ECE kernel."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from calibkit import kernels


@st.composite
def bins_and_confidences(draw):
    """A bin count M plus confidences that include every exact k/M, its
    float neighbours on both sides, and arbitrary values in [0, 1]."""
    m = draw(st.integers(1, 50))
    exact = [k / m for k in range(m + 1)]
    near = [np.nextafter(e, side) for e in exact for side in (0.0, 1.0)]
    free = draw(st.lists(st.floats(0.0, 1.0), max_size=50))
    return m, np.array(exact + near + free)


def test_bin_edges_are_interior_multiples():
    np.testing.assert_allclose(kernels.bin_edges(10), np.arange(1, 10) / 10.0)
    assert kernels.bin_edges(1).size == 0


@given(bins_and_confidences())
def test_bin_indices_match_interval_membership(case):
    m, conf = case
    got = kernels.bin_indices(conf, kernels.bin_edges(m))
    for c, b in zip(conf, got):
        members = [j for j in range(m)
                   if (j / m < c or j == 0) and c <= (j + 1) / m]
        assert members == [b]


def test_reliability_sums_match_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = int(rng.integers(1, 200)), int(rng.integers(1, 16))
        conf = rng.uniform(0, 1, n)
        correct = rng.integers(0, 2, n).astype(np.float64)
        edges = kernels.bin_edges(m)
        counts, acc_sums, conf_sums = kernels.reliability_sums(conf, correct, edges, m)
        for b in range(m):
            lo, hi = b / m, (b + 1) / m
            mask = (conf > lo) & (conf <= hi) if b else (conf <= hi)
            assert counts[b] == mask.sum()
            np.testing.assert_allclose(acc_sums[b], correct[mask].sum(), atol=1e-12)
            np.testing.assert_allclose(conf_sums[b], conf[mask].sum(), atol=1e-12)
        assert counts.sum() == n


def test_forward_is_finite_for_extreme_probabilities():
    # a max-probability within epsilon of 1 must not overflow the sigmoid
    probs = np.array([[1.0 - 1e-9, 1e-9], [0.5, 0.5]])
    labels = np.array([0, 1], dtype=np.int64)
    v, g = kernels.soft_ece_backward(probs, labels, kernels.bin_edges(10), 1e-6, False)
    assert np.isfinite(v)
    assert np.all(np.isfinite(g))

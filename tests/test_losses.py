"""Loss surface checks: softmax, NLL, the smoothed indicator, the binned
calibration surrogate and its analytic gradient, and the epoch-weighted
joint objective. Gradients are verified against central finite differences."""

import math

import numpy as np
import pytest

from calibkit import (
    DomainError,
    IndicatorVariant,
    LossConfig,
    auto_gamma,
    curriculum_weight,
    nll_loss,
    soft_ece,
    soft_ece_grad,
    soft_indicator,
    softmax,
    weighted_loss,
)
from calibkit.kernels import bin_edges

SIG1 = 0.7310585786300049  # 1 / (1 + e^-1)


def fd_soft_ece(logits, labels, m, variant=IndicatorVariant.MAX_PROB, h=1e-5):
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            zp = logits.copy(); zp[i, j] += h
            zm = logits.copy(); zm[i, j] -= h
            grad[i, j] = (soft_ece(softmax(zp), labels, m, variant)
                          - soft_ece(softmax(zm), labels, m, variant)) / (2 * h)
    return grad


def away_from_bin_edges(probs, m, tol=1e-4):
    conf = probs.max(axis=1)
    return np.all(np.abs(conf[:, None] - bin_edges(m)[None, :]) > tol, axis=1)


def well_separated_logits(rng, n, k, margin=1e-3):
    """Random logits whose top-two gap stays clear of argmax ties."""
    while True:
        z = rng.normal(0.0, 2.0, (n, k))
        p = softmax(z)
        part = np.partition(p, -2, axis=1)
        if np.all(part[:, -1] - part[:, -2] > margin):
            return z


class TestSoftmax:
    def test_symmetry_cases(self):
        np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(softmax(np.full(3, 7.3)), np.full(3, 1 / 3), atol=1e-15)

    def test_two_logit_value(self):
        np.testing.assert_allclose(softmax(np.array([1.0, 0.0])),
                                   [SIG1, 1 - SIG1], atol=1e-6)

    def test_shift_invariance_and_overflow_safety(self):
        z = np.array([1000.0, 999.0, 998.0])
        p = softmax(z)
        np.testing.assert_allclose(p, softmax(z - 1000.0), atol=1e-15)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            softmax(np.array([1.0]))
        with pytest.raises(DomainError):
            softmax(np.array([1.0, np.nan]))


class TestNll:
    def test_confident_correct_is_near_zero(self):
        loss, _ = nll_loss(np.array([[1.0 - 1e-9, 1e-9]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-8)

    def test_uniform_four_way_is_ln4(self):
        loss, _ = nll_loss(np.full((3, 4), 0.25), np.array([0, 1, 3]))
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_gradient_is_softmax_minus_onehot_over_n(self):
        _, grad = nll_loss(softmax(np.zeros((1, 2))), np.array([0]))
        np.testing.assert_allclose(grad, [[-0.5, 0.5]], atol=1e-12)

    def test_rejects_bad_labels(self):
        with pytest.raises(DomainError):
            nll_loss(np.full((1, 2), 0.5), np.array([2]))


class TestSoftIndicator:
    def test_fixed_points(self):
        assert soft_indicator(0.5) == 0.5
        assert soft_indicator(0.75) == pytest.approx(SIG1, abs=1e-6)

    def test_clamped_endpoints_saturate_finitely(self):
        # the clamp keeps tan() finite; the sigmoid then rounds to the
        # asymptote in float64, which is fine -- no overflow, no NaN
        hi = soft_indicator(1.0)
        lo = soft_indicator(0.0)
        assert hi > 0.999 and math.isfinite(hi)
        assert lo < 0.001 and math.isfinite(lo)

    def test_symmetry_about_half(self):
        for p in np.linspace(0.01, 0.99, 23):
            assert soft_indicator(p) + soft_indicator(1 - p) == pytest.approx(1.0, abs=1e-9)

    def test_strictly_increasing(self):
        grid = np.linspace(1e-6, 1 - 1e-6, 101)
        vals = [soft_indicator(p) for p in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestSoftEce:
    def test_all_half_confidence_is_exactly_calibrated(self):
        probs = np.full((6, 2), 0.5)
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert soft_ece(probs, labels, 10) == pytest.approx(0.0, abs=1e-15)

    def test_single_sample_hand_value(self):
        v = soft_ece(np.array([[0.75, 0.25]]), np.array([0]), 10)
        assert v == pytest.approx(abs(SIG1 - 0.75), abs=1e-6)

    def test_variants_differ_when_prediction_is_wrong(self):
        probs = np.array([[0.75, 0.25]])
        wrong = np.array([1])
        v_max = soft_ece(probs, wrong, 10, IndicatorVariant.MAX_PROB)
        v_true = soft_ece(probs, wrong, 10, IndicatorVariant.TRUE_CLASS_PROB)
        assert v_max == pytest.approx(abs(SIG1 - 0.75), abs=1e-6)
        assert v_true == pytest.approx(0.75 - soft_indicator(0.25), abs=1e-6)
        assert v_true > v_max

    def test_bounded_and_permutation_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n, k = int(rng.integers(1, 50)), int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k), n)
            labels = rng.integers(0, k, n)
            v = soft_ece(probs, labels, 10)
            assert 0.0 <= v <= 1.0
            perm = rng.permutation(n)
            v2 = soft_ece(probs[perm], labels[perm], 10)
            assert v2 == pytest.approx(v, abs=1e-12)

    def test_matches_brute_force_binning(self):
        rng = np.random.default_rng(22)
        for variant in IndicatorVariant:
            for _ in range(10):
                n, k, m = int(rng.integers(1, 80)), int(rng.integers(2, 6)), int(rng.integers(1, 16))
                probs = rng.dirichlet(np.ones(k), n)
                labels = rng.integers(0, k, n)
                conf = probs.max(axis=1)
                q = conf if variant is IndicatorVariant.MAX_PROB \
                    else probs[np.arange(n), labels]
                total = 0.0
                for b in range(m):
                    lo, hi = b / m, (b + 1) / m
                    mask = (conf > lo) & (conf <= hi) if b else conf <= hi
                    if mask.any():
                        g = np.mean([soft_indicator(x) for x in q[mask]])
                        total += mask.mean() * abs(g - conf[mask].mean())
                assert soft_ece(probs, labels, m, variant) == pytest.approx(total, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            soft_ece(np.empty((0, 3)), np.empty(0, dtype=int), 10)


class TestSoftEceGrad:
    @pytest.mark.parametrize("variant", list(IndicatorVariant))
    def test_matches_finite_differences(self, variant):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 25:
            n, k = int(rng.integers(2, 17)), int(rng.integers(2, 5))
            m = int(rng.choice([2, 10, 15]))
            z = well_separated_logits(rng, n, k)
            keep = away_from_bin_edges(softmax(z), m)
            if not keep.all():
                continue
            labels = rng.integers(0, k, n)
            analytic = soft_ece_grad(z, labels, m, variant)
            fd = fd_soft_ece(z, labels, m, variant)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7)
            checked += 1

    def test_duplicated_rows_get_identical_gradients(self):
        z = np.array([[1.2, -0.3, 0.4], [1.2, -0.3, 0.4], [0.1, 0.9, -1.0]])
        g = soft_ece_grad(z, np.array([0, 0, 1]), 10)
        np.testing.assert_array_equal(g[0], g[1])

    def test_zero_gap_gives_zero_gradient(self):
        # soft acc == conf in the only occupied bin => sign(0) = 0
        probs = np.full((4, 2), 0.5)
        z = np.log(probs)  # logits reproducing the uniform probs
        g = soft_ece_grad(z, np.array([0, 1, 0, 1]), 10)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)


class TestCurriculumWeight:
    def test_ramp_endpoints_and_midpoint(self):
        cfg = LossConfig(gamma_e=0.05, s_e=0, total_epochs=50)
        assert curriculum_weight(0, cfg) == 0.0
        assert curriculum_weight(10, cfg) == pytest.approx(0.01, abs=1e-15)
        assert curriculum_weight(50, cfg) == cfg.gamma_e

    def test_zero_before_ramp_start(self):
        cfg = LossConfig(gamma_e=1.0, s_e=10, total_epochs=50)
        assert curriculum_weight(9, cfg) == 0.0
        assert curriculum_weight(10, cfg) == 0.0  # (10-10)/(50-10) * 1
        assert curriculum_weight(11, cfg) == pytest.approx(1 / 40)

    def test_monotone_nondecreasing(self):
        cfg = LossConfig(gamma_e=0.7, s_e=5, total_epochs=40)
        ws = [curriculum_weight(c, cfg) for c in range(41)]
        assert all(a <= b for a, b in zip(ws, ws[1:]))

    def test_epoch_past_total_rejected(self):
        cfg = LossConfig(gamma_e=0.05, total_epochs=50)
        with pytest.raises(DomainError):
            curriculum_weight(51, cfg)
        with pytest.raises(DomainError):
            curriculum_weight(-1, cfg)


class TestCombinedLoss:
    """The joint objective at epoch e: weighted_loss with the ramped weight."""

    @staticmethod
    def at_epoch(z, labels, epoch, cfg):
        return weighted_loss(z, labels, curriculum_weight(epoch, cfg), cfg)

    def test_total_decomposition_holds(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 1, (20, 3))
        labels = rng.integers(0, 3, 20)
        cfg = LossConfig(gamma_e=0.8, s_e=0, total_epochs=10)
        v = self.at_epoch(z, labels, 7, cfg)
        assert v.total == pytest.approx(v.nll + v.ece_weight * v.soft_ece, abs=1e-12)
        assert v.ece_weight == pytest.approx(0.7 * 0.8)

    def test_ramp_start_is_pure_nll(self):
        z = np.array([[0.3, -0.2], [1.0, 0.5]])
        labels = np.array([0, 1])
        cfg = LossConfig(gamma_e=2.0, s_e=0, total_epochs=10)
        v = self.at_epoch(z, labels, 0, cfg)
        nll, nll_grad = nll_loss(softmax(z), labels)
        assert v.total == nll
        np.testing.assert_array_equal(v.grad_logits, nll_grad)

    def test_zero_gamma_equals_nll_exactly(self):
        rng = np.random.default_rng(12)
        cfg = LossConfig(gamma_e=0.0, s_e=0, total_epochs=10)
        for _ in range(5):
            z = rng.normal(0, 2, (8, 4))
            labels = rng.integers(0, 4, 8)
            v = self.at_epoch(z, labels, 5, cfg)
            nll, nll_grad = nll_loss(softmax(z), labels)
            assert v.total == nll
            np.testing.assert_array_equal(v.grad_logits, nll_grad)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(44)
        cfg = LossConfig(gamma_e=1.5, s_e=0, total_epochs=20, m_train=10)
        checked = 0
        while checked < 10:
            n, k = int(rng.integers(2, 12)), int(rng.integers(2, 5))
            z = well_separated_logits(rng, n, k)
            if not away_from_bin_edges(softmax(z), 10).all():
                continue
            labels = rng.integers(0, k, n)
            v = self.at_epoch(z, labels, 13, cfg)
            h = 1e-5
            fd = np.zeros_like(z)
            for i in range(n):
                for j in range(k):
                    zp = z.copy(); zp[i, j] += h
                    zm = z.copy(); zm[i, j] -= h
                    fd[i, j] = (self.at_epoch(zp, labels, 13, cfg).total
                                - self.at_epoch(zm, labels, 13, cfg).total) / (2 * h)
            np.testing.assert_allclose(v.grad_logits, fd, rtol=1e-4, atol=1e-7)
            checked += 1


class TestWeightedLoss:
    def test_explicit_weight_passthrough(self):
        z = np.array([[0.5, -0.5], [0.1, 0.2]])
        labels = np.array([0, 1])
        cfg = LossConfig(gamma_e=3.0)
        v = weighted_loss(z, labels, 0.25, cfg)
        assert v.ece_weight == 0.25
        assert v.total == pytest.approx(v.nll + 0.25 * v.soft_ece, abs=1e-15)


class TestAutoGamma:
    @pytest.mark.parametrize("nll,soft,expect", [
        (0.1, 2.0, 0.05),
        (2.5, 0.5, 5.0),
        (0.37, 0.37, 1.0),
    ])
    def test_ratio(self, nll, soft, expect):
        assert auto_gamma(nll, soft) == pytest.approx(expect, abs=1e-15)

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(DomainError):
            auto_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            auto_gamma(1.0, -2.0)


class TestLossConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            LossConfig(gamma_e=-0.1)
        with pytest.raises(DomainError):
            LossConfig(gamma_e=1.0, s_e=50, total_epochs=50)
        with pytest.raises(DomainError):
            LossConfig(gamma_e=1.0, m_train=0)

"""Binning, reliability tables, hard calibration error, classification metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibkit import (
    DomainError,
    Predictions,
    ReliabilityTable,
    build_reliability_table,
    classification_report,
    ece,
)


def preds(rows, labels):
    return Predictions.from_probs(np.asarray(rows, dtype=float), labels)


def no_rows():
    return Predictions.from_probs(np.empty((0, 2)), [])


def brute_force_ece(preds, m):
    """Independent double loop over bins and samples, straight off the definition."""
    records = list(zip(preds.confidence.tolist(), preds.predicted.tolist(),
                       preds.labels.tolist()))
    n = len(records)
    total = 0.0
    for b in range(m):
        lo, hi = b / m, (b + 1) / m
        members = [r for r in records
                   if (lo < r[0] <= hi) or (b == 0 and r[0] <= hi)]
        if not members:
            continue
        acc = sum(1.0 for r in members if r[1] == r[2]) / len(members)
        conf = sum(r[0] for r in members) / len(members)
        total += (len(members) / n) * abs(acc - conf)
    return total


class TestPredictions:
    def test_recomputes_prediction_and_confidence(self):
        r = preds([[0.7, 0.3]], [0])
        assert r.predicted[0] == 0
        assert r.confidence[0] == pytest.approx(0.7)
        assert r.predicted[0] == r.labels[0]

    def test_argmax_tie_breaks_to_lowest_index(self):
        r = preds([[0.25, 0.25, 0.25, 0.25]], [2])
        assert r.predicted[0] == 0
        assert r.predicted[0] != r.labels[0]

    def test_rejects_bad_probability_vectors(self):
        with pytest.raises(DomainError):
            preds([[0.9, 0.2]], [0])           # sum 1.1
        with pytest.raises(DomainError):
            preds([[1.1, -0.1]], [0])          # negative entry
        with pytest.raises(DomainError):
            preds([[1.0]], [0])                # K < 2
        with pytest.raises(DomainError):
            preds([[0.5, 0.5]], [2])           # label out of range
        with pytest.raises(DomainError, match="whole numbers"):
            preds([[0.5, 0.5], [0.5, 0.5]], [0.7, 1.2])  # fractional labels
        with pytest.raises(DomainError, match="whole numbers"):
            preds([[0.5, 0.5]], [float("nan")])
        with pytest.raises(DomainError, match=r"labels outside \[0, 2\)"):
            preds([[0.5, 0.5]], np.array([np.inf]))

    @pytest.mark.parametrize("off", [0.999e-9, -0.999e-9, 1.001e-9, -1.001e-9])
    def test_rows_within_1e_9_of_sum_1_are_kept_as_given_and_the_rest_fail(self, off):
        row = [0.5 + off, 0.5]
        if abs(off) > 1e-9:
            with pytest.raises(DomainError, match="expected 1 within 1e-9"):
                preds([row], [0])
        else:
            assert preds([row], [0]).probs.tolist() == [row]


class TestReliabilityTable:
    def test_two_correct_records_m2(self):
        t = build_reliability_table(preds([[0.9, 0.1], [0.8, 0.2]], [0, 0]), 2)
        assert t.n == 2 and t.m == 2
        assert (t.counts[0], t.acc[0], t.conf[0]) == (0, 0.0, 0.0)
        assert t.counts[1] == 2
        assert t.acc[1] == pytest.approx(1.0)
        assert t.conf[1] == pytest.approx(0.85)

    def test_single_incorrect_record(self):
        t = build_reliability_table(preds([[0.4, 0.6]], [0]), 2)
        assert t.counts[1] == 1
        assert t.acc[1] == 0.0
        assert t.conf[1] == pytest.approx(0.6)

    def test_m1_degenerates_to_overall_stats(self):
        recs = preds([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4]], [0, 0, 0])
        t = build_reliability_table(recs, 1)
        assert t.counts[0] == 3
        assert t.acc[0] == pytest.approx(2 / 3)
        assert t.conf[0] == pytest.approx((0.9 + 0.7 + 0.6) / 3)

    def test_counts_sum_to_n_and_order_invariance(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5), 100)
        labels = rng.integers(0, 5, 100)
        recs = Predictions.from_probs(probs, labels)
        t = build_reliability_table(recs, 10)
        assert t.counts.sum() == 100
        order = rng.permutation(100)
        shuffled = Predictions.from_probs(probs[order], labels[order])
        t2 = build_reliability_table(shuffled, 10)
        np.testing.assert_array_equal(t2.counts, t.counts)
        np.testing.assert_allclose(t2.acc, t.acc, atol=1e-12)
        np.testing.assert_allclose(t2.conf, t.conf, atol=1e-12)

    def test_empty_records_rejected(self):
        with pytest.raises(DomainError):
            build_reliability_table(no_rows(), 10)

    @pytest.mark.parametrize("field", ["counts", "acc", "conf"])
    def test_tables_differing_in_one_bin_compare_unequal(self, field):
        t = build_reliability_table(preds([[0.9, 0.1], [0.4, 0.6], [0.7, 0.3]], [0, 0, 1]), 4)
        arrays = {"counts": t.counts.copy(), "acc": t.acc.copy(), "conf": t.conf.copy()}
        assert ReliabilityTable(**arrays) == t
        arrays[field][2] += 1
        assert ReliabilityTable(**arrays) != t
        assert t != (t.counts, t.acc, t.conf)


class TestEce:
    def test_perfectly_calibrated_table_scores_zero(self):
        recs = preds([[0.8, 0.2], [0.8, 0.2],
                      [0.8, 0.2], [0.8, 0.2],
                      [0.8, 0.2]], [0, 0, 0, 0, 1])  # acc 0.8 = conf 0.8
        assert ece(build_reliability_table(recs, 10)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_worked_two_record_cases(self):
        t = build_reliability_table(preds([[0.9, 0.1], [0.8, 0.2]], [0, 0]), 2)
        assert ece(t) == pytest.approx(0.15, abs=1e-12)
        t = build_reliability_table(preds([[0.4, 0.6], [0.9, 0.1]], [0, 0]), 10)
        assert ece(t) == pytest.approx(0.5 * 0.6 + 0.5 * 0.1, abs=1e-12)

    def test_m1_equals_accuracy_confidence_gap(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), 200)
        labels = rng.integers(0, 4, 200)
        recs = Predictions.from_probs(probs, labels)
        t = build_reliability_table(recs, 1)
        acc = np.mean(recs.predicted == recs.labels)
        conf = np.mean(recs.confidence)
        assert ece(t) == pytest.approx(abs(acc - conf), abs=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 15, 40])
    def test_equals_an_ordered_per_bin_loop_exactly(self, m):
        """The terms add up from 0.0 in bin order, as in this loop; a pairwise
        sum differs from it in the last bit on some tables."""
        rng = np.random.default_rng(m)
        for _ in range(100):
            n = int(rng.integers(1, 501))
            k = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0), n)
            t = build_reliability_table(Predictions.from_probs(probs, rng.integers(0, k, n)), m)
            want = 0.0
            for count, acc, conf in zip(t.counts.tolist(), t.acc.tolist(), t.conf.tolist()):
                if count:
                    want += (count / t.n) * abs(acc - conf)
            assert ece(t) == want

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(2, 13))
            m = int(rng.choice([1, 2, 10, 15]))
            probs = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0), n)
            labels = rng.integers(0, k, n)
            recs = Predictions.from_probs(probs, labels)
            got = ece(build_reliability_table(recs, m))
            assert got == pytest.approx(brute_force_ece(recs, m), abs=1e-12)
            assert 0.0 <= got <= 1.0


@st.composite
def weight_rows(draw):
    """Rows of small integer weights, so ties and confidences on exact bin
    edges are common, plus one label per row."""
    k = draw(st.integers(2, 8))
    rows = draw(st.lists(st.lists(st.integers(0, 12), min_size=k, max_size=k),
                         min_size=1, max_size=60))
    rows = [r if any(r) else [1] * k for r in rows]
    labels = draw(st.lists(st.integers(0, k - 1), min_size=len(rows), max_size=len(rows)))
    return rows, labels


@settings(max_examples=200, deadline=None)
@given(weight_rows(), st.integers(1, 30))
def test_ece_matches_a_brute_force_double_loop(data, m):
    rows, labels = data
    probs = [[w / sum(r) for w in r] for r in rows]
    got = ece(build_reliability_table(Predictions.from_probs(probs, labels), m))
    # The oracle takes prediction and confidence from the rows itself.
    want = 0.0
    for b in range(m):
        lo, hi = b / m, (b + 1) / m
        members = [(max(p), p.index(max(p)), y) for p, y in zip(probs, labels)
                   if lo < max(p) <= hi or (b == 0 and max(p) <= hi)]
        if members:
            acc = sum(1.0 for _, pred, y in members if pred == y) / len(members)
            conf = sum(c for c, _, _ in members) / len(members)
            want += (len(members) / len(rows)) * abs(acc - conf)
    assert got == pytest.approx(want, abs=1e-12)


class TestClassificationReport:
    def test_all_correct(self):
        recs = preds([[0.9, 0.1], [0.1, 0.9]], [0, 1])
        rep = classification_report(recs)
        assert rep.macro_precision == rep.macro_recall == rep.macro_f1 == rep.accuracy == 1.0

    def test_all_wrong_accuracy_zero(self):
        recs = preds([[0.9, 0.1], [0.1, 0.9]], [1, 0])
        assert classification_report(recs).accuracy == 0.0

    def test_hand_worked_macro_f1(self):
        # predictions 0/0 against labels 0/1
        recs = preds([[0.9, 0.1], [0.9, 0.1]], [0, 1])
        rep = classification_report(recs)
        assert rep.per_class[0] == pytest.approx((0.5, 1.0, 2 / 3))
        assert rep.per_class[1] == (0.0, 0.0, 0.0)
        assert rep.macro_f1 == pytest.approx(1 / 3)
        assert rep.accuracy == pytest.approx(0.5)

    def test_class_absent_everywhere_scores_zero(self):
        recs = preds([[0.9, 0.1, 0.0]], [0])
        rep = classification_report(recs)
        assert rep.per_class[2] == (0.0, 0.0, 0.0)

    def test_accuracy_equals_single_bin_acc(self):
        rng = np.random.default_rng(9)
        probs = rng.dirichlet(np.ones(3), 60)
        labels = rng.integers(0, 3, 60)
        recs = Predictions.from_probs(probs, labels)
        rep = classification_report(recs)
        t = build_reliability_table(recs, 1)
        assert rep.accuracy == pytest.approx(t.acc[0], abs=1e-15)

    def test_empty_records_rejected(self):
        with pytest.raises(DomainError):
            classification_report(no_rows())

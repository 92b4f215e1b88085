"""One label rule and one bin-count check at every boundary that takes them.

Labels are integers or whole-number floats in [0, K), held as int64;
anything else stops at the boundary with a DomainError.
"""

import numpy as np
import pytest

from calibkit import (
    Dataset,
    DomainError,
    IndicatorVariant,
    LossConfig,
    Predictions,
    SplitSpec,
    TrainConfig,
    TrainingMode,
    build_reliability_table,
    gen_synthetic,
    soft_ece,
    soft_ece_grad,
    softmax,
    split,
    train,
    weighted_loss,
)

K = 3
LOGITS = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 0.0]])
PROBS = softmax(LOGITS)
TRUE_Q = IndicatorVariant.TRUE_CLASS_PROB  # so that soft-ECE reads the labels

# Each entry point maps two rows of K = 3 classes and their labels to what
# it gives back for them.
ENTRY_POINTS = {
    "Dataset": lambda y: Dataset(np.zeros((2, 2)), y, K).labels,
    "Predictions.from_probs": lambda y: Predictions.from_probs(PROBS, y).labels,
    "weighted_loss": lambda y: weighted_loss(LOGITS, y, 0.5, LossConfig(gamma_e=1.0)),
    "soft_ece": lambda y: soft_ece(PROBS, y, 10, TRUE_Q),
    "soft_ece_grad": lambda y: soft_ece_grad(LOGITS, y, 10, TRUE_Q),
}

BAD_LABELS = {
    "str": ["0", "2"],
    "None": None,
    "bool": [False, True],
    "complex": np.array([0, 2], dtype=complex),
    "mixed-object": np.array([0, "2"], dtype=object),
    "fractional": [0, 0.7],
    "nan": [0, np.nan],
    "inf": [0, np.inf],
    "past-int64": [0, 2**70],
    "negative": [0, -1],
    "k": [0, K],
    "wrong-shape": [[0], [2]],
    "ragged": [0, [2]],
}

GOOD_LABELS = {
    "int32": np.array([0, 2], dtype=np.int32),
    "whole-floats": [0.0, 2.0],
    "list": [0, 2],
}


def _parts(result):
    """The arrays and floats a result is made of, for exact comparison."""
    if hasattr(result, "grad_logits"):
        return [result.nll, result.soft_ece, result.total, result.grad_logits]
    return [result]


@pytest.mark.parametrize("labels", BAD_LABELS.values(), ids=BAD_LABELS.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_bad_labels_stop_at_the_boundary(entry, labels):
    with pytest.raises(DomainError, match="labels"):
        entry(labels)


@pytest.mark.parametrize("labels", GOOD_LABELS.values(), ids=GOOD_LABELS.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_good_labels_read_as_the_same_int64_labels(entry, labels):
    want = entry(np.array([0, 2], dtype=np.int64))
    got = entry(labels)
    for g, w in zip(_parts(got), _parts(want), strict=True):
        assert np.asarray(g).dtype == np.asarray(w).dtype
        np.testing.assert_array_equal(g, w)


def test_a_float_labelled_dataset_trains_like_an_int_labelled_one():
    ds = gen_synthetic(3, 20, 4, 1.0, seed=0)
    config = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05, seed=0,
                         loss=LossConfig(gamma_e=0.5, total_epochs=2),
                         mode=TrainingMode.CALIBRATED_CURRICULUM, hidden_dim=0)

    def run(labels):
        tr, va, _ = split(Dataset(ds.features, labels, ds.k),
                          SplitSpec(ratios=(0.6, 0.2, 0.2), seed=0))
        return train(tr, va, config)

    (params, report), (want_params, want_report) = run(ds.labels.astype(float)), run(ds.labels)
    assert report == want_report
    np.testing.assert_array_equal(params.w_out, want_params.w_out)
    with pytest.raises(DomainError, match="whole numbers"):
        run(ds.labels + 0.5)


@pytest.mark.parametrize("entry", [
    lambda m: soft_ece(PROBS, [0, 2], m),
    lambda m: soft_ece_grad(LOGITS, [0, 2], m),
    lambda m: build_reliability_table(Predictions.from_probs(PROBS, [0, 2]), m),
], ids=["soft_ece", "soft_ece_grad", "build_reliability_table"])
def test_bad_bin_counts_stop_with_one_message(entry):
    for m in (0, -3):
        with pytest.raises(DomainError, match=f"^bin count must be >= 1, got {m}$"):
            entry(m)

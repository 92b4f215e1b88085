"""One array rule, one count rule and one scalar rule at every boundary,
beside the label rule.

Feature, logit and probability arrays hold integers or floats, all finite,
and are read as float64. Counts are Python or numpy integers at or above
a minimum. Scalars are Python or numpy reals, finite and positive or
non-negative, and are held as float. Anything else stops at the boundary
with a DomainError that names the field, and without a warning.
"""

import re
import warnings

import numpy as np
import pytest

from calibkit import (
    Dataset,
    DomainError,
    LossConfig,
    Predictions,
    SplitSpec,
    TrainConfig,
    TrainingMode,
    auto_gamma,
    backward,
    curriculum_weight,
    forward,
    gen_synthetic,
    init_model,
    soft_ece,
    soft_ece_grad,
    softmax,
    weighted_loss,
)
from calibkit.kernels import bin_edges

# Whole numbers, so that int and float32 arrays hold exactly the same values.
FEATURES = [[1, 2], [0, -1]]
LOGITS = [[1, 2, 3], [3, 1, 0]]
PROBS = [[1, 0, 0], [0, 0, 1]]
LABELS = [0, 2]
LOSS = LossConfig(gamma_e=1.0, total_epochs=2)
CONFIG = TrainConfig(epochs=2, batch_size=2, learning_rate=0.1, seed=0, loss=LOSS,
                     mode=TrainingMode.CALIBRATED_CURRICULUM)
PARAMS = init_model(2, 3, 3, seed=0)

# Each array entry point: the field it names, its good nested-list input,
# and the call that maps that input to what it gives back.
ARRAY_ENTRY_POINTS = {
    "Dataset": ("features", FEATURES, lambda x: Dataset(x, LABELS, 3)),
    "forward": ("features", FEATURES, lambda x: forward(PARAMS, x)),
    "backward": ("features", FEATURES, lambda x: backward(PARAMS, x, LABELS, 1, CONFIG)),
    "softmax": ("logits", LOGITS, softmax),
    "weighted_loss": ("logits", LOGITS, lambda z: weighted_loss(z, LABELS, 0.5, LOSS)),
    "soft_ece_grad": ("logits", LOGITS, lambda z: soft_ece_grad(z, LABELS, 10)),
    "Predictions.from_probs": ("probs", PROBS, lambda p: Predictions.from_probs(p, LABELS)),
    "soft_ece": ("probs", PROBS, lambda p: soft_ece(p, LABELS, 10)),
}


def _with_first(rows, value):
    return [[value, *rows[0][1:]], *rows[1:]]


BAD_ARRAYS = {
    "str": lambda rows: [[str(v) for v in row] for row in rows],
    "None": lambda rows: None,
    "ragged": lambda rows: [rows[0], rows[1][:-1]],
    "complex": lambda rows: np.array(rows, dtype=complex),
    "bool": lambda rows: np.array(rows) != 0,
    "nan": lambda rows: _with_first(rows, np.nan),
    "inf": lambda rows: _with_first(rows, np.inf),
}

GOOD_ARRAYS = {
    "int64": lambda rows: np.array(rows, dtype=np.int64),
    "int32": lambda rows: np.array(rows, dtype=np.int32),
    "float32": lambda rows: np.array(rows, dtype=np.float32),
    "nested-list": lambda rows: rows,
}


def _parts(result):
    """The arrays and values a result is made of, for exact comparison."""
    if isinstance(result, tuple):
        return [part for item in result for part in _parts(item)]
    if hasattr(result, "__dict__"):
        return [part for value in vars(result).values() for part in _parts(value)]
    return [result]


def _assert_identical(got, want):
    for g, w in zip(_parts(got), _parts(want), strict=True):
        assert np.asarray(g).dtype == np.asarray(w).dtype
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("bad", BAD_ARRAYS.values(), ids=BAD_ARRAYS.keys())
@pytest.mark.parametrize("field, rows, entry", ARRAY_ENTRY_POINTS.values(),
                         ids=ARRAY_ENTRY_POINTS.keys())
def test_bad_arrays_stop_at_the_boundary_without_a_warning(field, rows, entry, bad):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match=f"^{field} "):
            entry(bad(rows))
    assert caught == []


@pytest.mark.parametrize("good", GOOD_ARRAYS.values(), ids=GOOD_ARRAYS.keys())
@pytest.mark.parametrize("field, rows, entry", ARRAY_ENTRY_POINTS.values(),
                         ids=ARRAY_ENTRY_POINTS.keys())
def test_good_arrays_give_bit_identical_results(field, rows, entry, good):
    _assert_identical(entry(good(rows)), entry(np.array(rows, dtype=np.float64)))


def test_float64_arrays_pass_uncopied():
    x, p = np.array(FEATURES, dtype=np.float64), np.array(PROBS, dtype=np.float64)
    assert Dataset(x, LABELS, 3).features is x
    assert Predictions.from_probs(p, LABELS).probs is p


@pytest.mark.parametrize("probs", [[[1.0, 1.0]], [[1.0]]], ids=["sum-2", "one-class"])
def test_soft_ece_takes_only_probability_rows(probs):
    with pytest.raises(DomainError, match="^probs "):
        soft_ece(probs, [0], 10)


def _train_config(**fields):
    return TrainConfig(**{"epochs": 2, "batch_size": 2, "learning_rate": 0.1, "seed": 0,
                          "loss": LOSS, "mode": TrainingMode.VANILLA_NLL, **fields})


# Each count field: the name its errors give, its minimum, a good value,
# and the call that sets the field to a value.
COUNT_FIELDS = {
    "bin_edges": ("bin count", 1, 4, bin_edges),
    # The loss's N follows epochs, so that only epochs itself can be at fault.
    "TrainConfig.epochs": ("epochs", 1, 2, lambda v: _train_config(
        epochs=v, loss=LossConfig(gamma_e=1.0, total_epochs=max(int(v), 1)))),
    "TrainConfig.batch_size": ("batch_size", 1, 2, lambda v: _train_config(batch_size=v)),
    "TrainConfig.seed": ("seed", 0, 3, lambda v: _train_config(seed=v)),
    "TrainConfig.hidden_dim": ("hidden_dim", 0, 3, lambda v: _train_config(hidden_dim=v)),
    "TrainConfig.eval_bins": ("eval_bins", 1, 4, lambda v: _train_config(eval_bins=v)),
    "LossConfig.total_epochs": ("total_epochs", 1, 3,
                                lambda v: LossConfig(gamma_e=1.0, total_epochs=v)),
    "LossConfig.s_e": ("s_e", 0, 1, lambda v: LossConfig(gamma_e=1.0, s_e=v)),
    "LossConfig.m_train": ("m_train", 1, 4, lambda v: LossConfig(gamma_e=1.0, m_train=v)),
    "SplitSpec.seed": ("seed", 0, 3, lambda v: SplitSpec(ratios=(0.5, 0.25, 0.25), seed=v)),
    "gen_synthetic.k": ("k", 2, 3, lambda v: gen_synthetic(v, 2, 2, 1.0, 0)),
    "gen_synthetic.n_per_class": ("n_per_class", 1, 2, lambda v: gen_synthetic(2, v, 2, 1.0, 0)),
    "gen_synthetic.dim": ("dim", 2, 3, lambda v: gen_synthetic(2, 2, v, 1.0, 0)),
    "gen_synthetic.seed": ("seed", 0, 3, lambda v: gen_synthetic(2, 2, 2, 1.0, v)),
    "init_model.input_dim": ("input_dim", 1, 2, lambda v: init_model(v, 3, 2, 0)),
    "init_model.hidden_dim": ("hidden_dim", 0, 3, lambda v: init_model(2, v, 2, 0)),
    "init_model.k": ("k", 2, 3, lambda v: init_model(2, 3, v, 0)),
    "init_model.seed": ("seed", 0, 3, lambda v: init_model(2, 3, 2, v)),
    "curriculum_weight": ("epoch", 0, 1, lambda v: curriculum_weight(v, LOSS)),
    "Dataset.k": ("k", 2, 3, lambda v: Dataset(FEATURES, [0, 1], v)),
}


@pytest.mark.parametrize("bad", [2.5, True, "3", "below-minimum"])
@pytest.mark.parametrize("field, minimum, good, entry", COUNT_FIELDS.values(),
                         ids=COUNT_FIELDS.keys())
def test_bad_counts_stop_at_the_boundary(field, minimum, good, entry, bad):
    if bad == "below-minimum":
        bad = minimum - 1
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        message = f"^{field} must be {bound}, got {bad}$"
    else:
        message = f"^{field} must be an integer, got {bad!r}$"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match=message):
            entry(bad)
    assert caught == []


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("field, minimum, good, entry", COUNT_FIELDS.values(),
                         ids=COUNT_FIELDS.keys())
def test_numpy_integer_counts_are_accepted(field, minimum, good, entry, numpy_int):
    for value in (minimum, good):
        got, want = entry(numpy_int(value)), entry(value)
        if isinstance(want, (TrainConfig, LossConfig, SplitSpec)):
            assert got == want and type(getattr(got, field)) is int
        else:
            _assert_identical(got, want)


def test_a_dataset_holds_its_class_count_as_an_int():
    k = Dataset(FEATURES, [0, 1], np.int64(2)).k
    assert type(k) is int and k == 2


# Each scalar field: the name its errors give, whether it must be positive
# (else non-negative), and the call that sets the field to a value. 0.5 is
# a good value for every field.
REAL_FIELDS = {
    "LossConfig.gamma_e": ("gamma_e", False, lambda v: LossConfig(gamma_e=v)),
    "TrainConfig.learning_rate": ("learning_rate", True,
                                  lambda v: _train_config(learning_rate=v)),
    "gen_synthetic.overlap": ("overlap", False, lambda v: gen_synthetic(2, 2, 2, v, 0)),
    "SplitSpec.ratios": ("ratios", True, lambda v: SplitSpec(ratios=(v, 0.25, 0.25), seed=0)),
    "weighted_loss.weight": ("weight", False, lambda v: weighted_loss(LOGITS, LABELS, v, LOSS)),
    "auto_gamma.nll_sample": ("nll_sample", True, lambda v: auto_gamma(v, 0.5)),
    "auto_gamma.soft_ece_sample": ("soft_ece_sample", True, lambda v: auto_gamma(0.5, v)),
}

NOT_REAL = {"bool": True, "str": "0.5", "None": None, "complex": 0.5 + 0j,
            "numpy-bool": np.True_, "numpy-complex": np.complex128(0.5)}
NOT_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
              "numpy-nan": np.float64("nan"), "int-past-float": 10 ** 400}


def _raises_without_a_warning(entry, value, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match=message):
            entry(value)
    assert caught == []


@pytest.mark.parametrize("bad", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("field, positive, entry", REAL_FIELDS.values(), ids=REAL_FIELDS.keys())
def test_non_real_scalars_stop_at_the_boundary(field, positive, entry, bad):
    message = f"^{field} must be a real number, got {re.escape(repr(bad))}$"
    _raises_without_a_warning(entry, bad, message)


@pytest.mark.parametrize("bad", [*NOT_FINITE.values(), "below-minimum"],
                         ids=[*NOT_FINITE.keys(), "below-minimum"])
@pytest.mark.parametrize("field, positive, entry", REAL_FIELDS.values(), ids=REAL_FIELDS.keys())
def test_non_finite_and_out_of_range_scalars_stop_at_the_boundary(field, positive, entry, bad):
    if bad == "below-minimum":
        bad = 0.0 if positive else -0.5
    bound = "positive" if positive else "non-negative"
    message = f"^{field} must be finite and {bound}, got {re.escape(str(bad))}$"
    _raises_without_a_warning(entry, bad, message)


@pytest.mark.parametrize("real", [np.float64, np.float32, np.float16])
@pytest.mark.parametrize("field, positive, entry", REAL_FIELDS.values(), ids=REAL_FIELDS.keys())
def test_numpy_real_scalars_are_held_as_float(field, positive, entry, real):
    got, want = entry(real(0.5)), entry(0.5)
    if isinstance(want, (TrainConfig, LossConfig, SplitSpec)):
        held = getattr(got, field)
        assert got == want
        assert all(type(v) is float for v in (held if isinstance(held, tuple) else (held,)))
    else:
        _assert_identical(got, want)
        assert type(got) is type(want)


def test_zero_is_the_least_non_negative_scalar_and_ints_are_held_as_float():
    assert LossConfig(gamma_e=0).gamma_e == 0.0 and type(LossConfig(gamma_e=0).gamma_e) is float
    assert type(_train_config(learning_rate=np.int64(1)).learning_rate) is float
    assert weighted_loss(LOGITS, LABELS, 0, LOSS).ece_weight == 0.0
    assert gen_synthetic(2, 2, 2, 0, 0).features.shape == (4, 2)


@pytest.mark.parametrize("ratios", [0.5, None, (0.5, 0.5), (0.25,) * 4], ids=str)
def test_ratios_are_three_numbers(ratios):
    _raises_without_a_warning(lambda r: SplitSpec(ratios=r, seed=0), ratios,
                              "^ratios must be three numbers, got ")

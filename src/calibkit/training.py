"""Small deterministic SGD trainer for linear / one-hidden-layer tanh models.

Determinism contract: same config and data => bit-identical parameters and
reports. Initialization draws from ``default_rng(seed)``; the shuffle for
epoch ``e`` draws from ``default_rng([seed, e])`` so epoch order never
depends on how much randomness initialization consumed. Per-epoch wall
time is recorded but excluded from report comparisons.

Runs that share seed, data and schedule and differ only in their
calibration weight train together in one loop over a leading model axis
(:func:`train_arms`); :func:`train` is a stack of one. Each run in a
stack is bit-identical to training it alone. The one SGD update is the
loop's in-place ``w -= lr * g`` on the stacked parameters.

This is the one module that calls BLAS, and :func:`train_arms`,
:func:`forward` and :func:`backward` run it on one thread: OpenBLAS's
one-thread path rounds the stacked matmuls differently in the last bit
from its threaded path, and on wide batches a second thread buys little
wall time for much more CPU. So the artifacts do not depend on the CPU
count. They are bit-identical for one numpy build, one BLAS build, one
numpy dispatch level and one OpenBLAS core: ``np.exp``, ``np.log`` and
``np.tan`` round differently on numpy's AVX-512 and AVX2 loops, and so
do OpenBLAS's SkylakeX and Haswell GEMM kernels. The caller's thread
count is given back on every return, exceptions included. A BLAS other
than OpenBLAS is left as it is, and is not pinned.
"""

from __future__ import annotations

import ctypes
import functools
import threading
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import DomainError, _count, _float_array, _real
from .kernels import bin_edges, row_offsets
from .losses import (
    IndicatorVariant,
    LossConfig,
    LossValue,
    _joint_loss,
    _softmax,
    curriculum_weight,
    softmax,
    weighted_loss,
)
from .metrics import (
    ClassificationReport,
    Predictions,
    ReliabilityTable,
    build_reliability_table,
    classification_report,
    ece,
)

# The thread-count entry points of the OpenBLAS that numpy loaded, tried in
# order: numpy's own wheels (scipy-openblas), then a system OpenBLAS built
# with 64-bit or with 32-bit integers.
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _numpy_library():
    """numpy's extension module as a ctypes library, or None. dlsym on it
    also searches the libraries it links, its BLAS among them. Loaded on
    first use, so that importing calibkit never loads a library."""
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        from numpy._core import _multiarray_umath
    else:  # touching numpy.core warns on numpy 2
        from numpy.core import _multiarray_umath
    try:
        return ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the loaded OpenBLAS, or
    None when numpy uses another BLAS."""
    lib = _numpy_library()
    if lib is None:
        return None
    for get_name, set_name in _OPENBLAS_THREADS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# The thread count is one per process, shared by every Python thread: the
# first pinned call to start saves the caller's count and the last to end
# gives it back.
_pin_lock = threading.Lock()
_pin = {"calls": 0, "saved": 0}


def _one_blas_thread(func):
    """``func`` run with the loaded OpenBLAS on one thread (see the module
    docstring); the caller's thread count is restored on every path."""
    @functools.wraps(func)
    def pinned(*args, **kwargs):
        threads = _openblas_threads()
        if threads is None:
            return func(*args, **kwargs)
        get, set_ = threads
        with _pin_lock:
            if _pin["calls"] == 0:
                _pin["saved"] = get()
                set_(1)
            _pin["calls"] += 1
        try:
            return func(*args, **kwargs)
        finally:
            with _pin_lock:
                _pin["calls"] -= 1
                if _pin["calls"] == 0:
                    set_(_pin["saved"])
    return pinned


class TrainingMode(Enum):
    """How the calibration term enters the objective."""

    VANILLA_NLL = "vanilla"          # weight fixed at 0
    CALIBRATED_CURRICULUM = "curriculum"  # weight ramps from s_e to gamma_E
    CALIBRATED_FIXED = "fixed"       # weight fixed at gamma_E from epoch 0

    @classmethod
    def from_name(cls, name: str) -> "TrainingMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise DomainError(f"unknown training mode {name!r}") from None


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Weights for a linear model (hidden fields None) or a 1-hidden tanh MLP."""

    w_out: np.ndarray
    b_out: np.ndarray
    w_hidden: np.ndarray | None = None
    b_hidden: np.ndarray | None = None

    @property
    def has_hidden(self) -> bool:
        return self.w_hidden is not None


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int
    loss: LossConfig
    mode: TrainingMode
    hidden_dim: int = 0
    eval_bins: int = 15

    def __post_init__(self):
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("seed", 0),
                              ("hidden_dim", 0), ("eval_bins", 1)):
            object.__setattr__(self, name, _count(getattr(self, name), name, minimum))
        object.__setattr__(self, "learning_rate", _real(self.learning_rate, "learning_rate", True))
        if self.epochs != self.loss.total_epochs:
            raise DomainError(
                f"epochs ({self.epochs}) and loss.total_epochs "
                f"({self.loss.total_epochs}) must match"
            )


@dataclass(frozen=True)
class EpochStats:
    """Sample-weighted means of the per-batch losses over one epoch."""

    epoch: int
    nll: float
    soft_ece: float
    ece_weight: float
    total: float
    train_accuracy: float
    seconds: float = field(compare=False)


@dataclass(frozen=True)
class TrainReport:
    epochs: tuple[EpochStats, ...]
    final_report: ClassificationReport
    final_ece: float
    reliability: ReliabilityTable


def init_model(input_dim: int, hidden_dim: int, k: int, seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases.

    hidden_dim == 0 selects the linear model.
    """
    input_dim = _count(input_dim, "input_dim", 1)
    hidden_dim = _count(hidden_dim, "hidden_dim", 0)
    k = _count(k, "k", 2)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    if hidden_dim == 0:
        bound = 1.0 / np.sqrt(input_dim)
        return ModelParams(
            w_out=rng.uniform(-bound, bound, (input_dim, k)),
            b_out=np.zeros(k),
        )
    bound_h = 1.0 / np.sqrt(input_dim)
    bound_o = 1.0 / np.sqrt(hidden_dim)
    return ModelParams(
        w_hidden=rng.uniform(-bound_h, bound_h, (input_dim, hidden_dim)),
        b_hidden=np.zeros(hidden_dim),
        w_out=rng.uniform(-bound_o, bound_o, (hidden_dim, k)),
        b_out=np.zeros(k),
    )


def _check_features(params: ModelParams, features) -> np.ndarray:
    features = _float_array(features, "features", (1, 1))
    expected = params.w_hidden.shape[0] if params.has_hidden else params.w_out.shape[0]
    if features.shape[1] != expected:
        raise DomainError(
            f"features have {features.shape[1]} columns, model expects {expected}"
        )
    return features


def _stack(params: ModelParams) -> ModelParams:
    """One model as a stack of one: weights (1, d, h), biases (1, 1, h)."""
    return ModelParams(
        w_out=params.w_out[None],
        b_out=params.b_out[None, None],
        w_hidden=None if params.w_hidden is None else params.w_hidden[None],
        b_hidden=None if params.b_hidden is None else params.b_hidden[None, None],
    )


def _arm(stacked: ModelParams, s: int) -> ModelParams:
    """Model ``s`` of a stack, as views."""
    return ModelParams(
        w_out=stacked.w_out[s],
        b_out=stacked.b_out[s, 0],
        w_hidden=None if stacked.w_hidden is None else stacked.w_hidden[s],
        b_hidden=None if stacked.b_hidden is None else stacked.b_hidden[s, 0],
    )


def _forward_stacked(params: ModelParams, features: np.ndarray):
    """Logits (S, n, K) and tanh activations (S, n, h) (None for a linear
    model) of a stack of S models on shared (n, d) features."""
    # In-place bias and tanh: at wide batches a fresh (S, n, h) array costs
    # more than the arithmetic on it.
    if not params.has_hidden:
        logits = features @ params.w_out
        logits += params.b_out
        return logits, None
    hidden = features @ params.w_hidden
    hidden += params.b_hidden
    np.tanh(hidden, out=hidden)
    logits = hidden @ params.w_out
    logits += params.b_out
    return logits, hidden


def _grads_stacked(params: ModelParams, features, hidden, dlogits) -> ModelParams:
    """Parameter gradients of a stack of S models from their logit
    gradients (S, n, K), in the stack's own shapes."""
    b_out = dlogits.sum(axis=1, keepdims=True)
    if not params.has_hidden:
        return ModelParams(w_out=features.T @ dlogits, b_out=b_out)
    slope = hidden * hidden
    np.subtract(1.0, slope, out=slope)
    d_hidden = dlogits @ params.w_out.transpose(0, 2, 1)
    d_hidden *= slope
    return ModelParams(
        w_out=hidden.transpose(0, 2, 1) @ dlogits,
        b_out=b_out,
        w_hidden=features.T @ d_hidden,
        b_hidden=d_hidden.sum(axis=1, keepdims=True),
    )


@_one_blas_thread
def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits of shape (n, K)."""
    features = _check_features(params, features)
    return _forward_stacked(_stack(params), features)[0][0]


def _mode_weight(mode: TrainingMode, epoch: int, loss_cfg: LossConfig) -> float:
    if mode is TrainingMode.VANILLA_NLL:
        return 0.0
    if mode is TrainingMode.CALIBRATED_CURRICULUM:
        return curriculum_weight(epoch, loss_cfg)
    return loss_cfg.gamma_e


@_one_blas_thread
def backward(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    epoch: int,
    config: TrainConfig,
) -> tuple[LossValue, ModelParams]:
    """Loss at the current parameters plus gradients in a parallel container.

    The calibration weight is set by the mode: 0, the epoch ramp, or the
    constant gamma_E.
    """
    features = _check_features(params, features)
    weight = _mode_weight(config.mode, epoch, config.loss)
    stacked = _stack(params)
    logits, hidden = _forward_stacked(stacked, features)
    value = weighted_loss(logits[0], labels, weight, config.loss)
    grads = _grads_stacked(stacked, features, hidden, value.grad_logits[None])
    return value, _arm(grads, 0)


def evaluate(
    preds: Predictions, n_bins: int
) -> tuple[ClassificationReport, float, ReliabilityTable]:
    """Classification report, ECE, and reliability table at ``n_bins``."""
    table = build_reliability_table(preds, n_bins)
    return classification_report(preds), ece(table), table


# Fields every config of one stacked run must agree on: the arms share the
# data order, the initial weights, the update and the loss's binning.
_SHARED_FIELDS = ("seed", "epochs", "batch_size", "learning_rate", "hidden_dim", "eval_bins")
_SHARED_LOSS_FIELDS = ("s_e", "m_train", "indicator_variant")


def _check_arms(train_set: Dataset, val_set: Dataset, configs: list[TrainConfig]) -> None:
    if not configs:
        raise DomainError("train_arms needs at least one config")
    first = configs[0]
    for cfg in configs[1:]:
        for name in _SHARED_FIELDS:
            if getattr(cfg, name) != getattr(first, name):
                raise DomainError(f"configs disagree on {name}: "
                                  f"{getattr(first, name)!r} vs {getattr(cfg, name)!r}")
        for name in _SHARED_LOSS_FIELDS:
            if getattr(cfg.loss, name) != getattr(first.loss, name):
                raise DomainError(f"configs disagree on loss.{name}: "
                                  f"{getattr(first.loss, name)!r} vs {getattr(cfg.loss, name)!r}")
    if train_set.k != val_set.k or train_set.dim != val_set.dim:
        raise DomainError("train and validation splits disagree on classes or features")


def _check_finite(logits, configs, weights, where: str) -> None:
    """Raise naming the first arm whose logits hold a non-finite entry."""
    if np.isfinite(logits).all():
        return
    s = int(np.argmax(~np.isfinite(logits).reshape(len(configs), -1).all(axis=1)))
    raise DomainError(
        f"{configs[s].mode.value} run diverged {where}: non-finite logits "
        f"(ece weight {weights[s]!r}, learning rate {configs[s].learning_rate!r})"
    )


@_one_blas_thread
def train_arms(
    train_set: Dataset, val_set: Dataset, configs
) -> list[tuple[ModelParams, TrainReport]]:
    """Train one run per config in a single SGD loop over a stack of models.

    The configs may differ only in ``mode`` and ``loss.gamma_e``: the runs
    share the initial weights, every epoch's batch order and the learning
    rate, and differ only in each epoch's calibration weight. Each run's
    parameters and report are bit-identical to training it alone.

    Every epoch reshuffles the training set (seeded by [seed, epoch]) and
    walks it in batches of ``batch_size``; a short final batch is still
    trained on. Epoch stats are sample-weighted means, so short batches
    count by their actual size. Validation metrics use ``eval_bins``.
    Non-finite logits stop training with a ``DomainError`` naming the
    run's mode, the epoch, the batch, the weight and the learning rate.
    Every run's ``EpochStats.seconds`` is the wall time of the shared epoch.

    Each step updates the stacked parameters in place, and the epoch's
    per-batch losses are summed once, at the epoch's end, in batch order.
    """
    configs = list(configs)
    _check_arms(train_set, val_set, configs)
    first = configs[0]
    one = _stack(init_model(train_set.dim, first.hidden_dim, train_set.k, first.seed))
    params = ModelParams(**{
        name: None if arr is None else np.repeat(arr, len(configs), axis=0)
        for name, arr in vars(one).items()
    })
    n, lr, batch_size = train_set.n, first.learning_rate, first.batch_size
    edges = bin_edges(first.loss.m_train)
    use_true_q = first.loss.indicator_variant is IndicatorVariant.TRUE_CLASS_PROB
    arrays = {name: arr for name, arr in vars(params).items() if arr is not None}
    starts = range(0, n, batch_size)
    # Per-batch tables have a zero row 0 so that each epoch sum adds up from
    # 0.0 in batch order, as a running total would.
    sizes = np.array([0, *(min(batch_size, n - start) for start in starts)])[:, None]
    stats: list[list[EpochStats]] = [[] for _ in configs]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(first.epochs):
            tic = time.perf_counter()
            weight_list = [_mode_weight(c.mode, epoch, c.loss) for c in configs]
            weights = np.array(weight_list, dtype=np.float64)
            order = np.random.default_rng([first.seed, epoch]).permutation(n)
            labels = train_set.labels[order]
            nll_rows = np.zeros((len(starts) + 1, len(configs)))
            soft_rows = np.zeros((len(starts) + 1, len(configs)))
            preds = np.empty((len(configs), n), dtype=np.intp)
            for batch, start in enumerate(starts):
                # Features are gathered per batch: a shuffled copy of the whole
                # training set per epoch (12.8 MB at 50 000 x 32) fragmented
                # glibc's heap, and a run's peak RSS then moved by up to
                # 12 MiB with the length of its --out path.
                xb = train_set.features[order[start:start + batch_size]]
                yb = labels[start:start + batch_size]
                logits, hidden = _forward_stacked(params, xb)
                _check_finite(logits, configs, weight_list,
                              f"at epoch {epoch}, batch {batch}")
                # One argmax gives the softmax's row max and the predictions.
                pred = logits.argmax(axis=2)
                top = logits.reshape(-1)[row_offsets(*logits.shape) + pred]
                nll, soft, dlogits = _joint_loss(_softmax(logits, top[..., None]),
                                                 yb, weights, edges, use_true_q)
                grads = _grads_stacked(params, xb, hidden, dlogits)
                for name, arr in arrays.items():
                    arr -= lr * getattr(grads, name)
                nll_rows[batch + 1] = nll
                soft_rows[batch + 1] = soft
                preds[:, start:start + batch_size] = pred
            # cumsum adds strictly in order; np.sum would pair the terms up.
            nll_sum, soft_sum, total_sum = np.cumsum(
                [nll_rows * sizes, soft_rows * sizes,
                 (nll_rows + weights * soft_rows) * sizes], axis=1)[:, -1]
            correct = (preds == labels).sum(axis=1)
            seconds = time.perf_counter() - tic
            for s, arm_stats in enumerate(stats):
                arm_stats.append(
                    EpochStats(
                        epoch=epoch,
                        nll=float(nll_sum[s] / n),
                        soft_ece=float(soft_sum[s] / n),
                        ece_weight=weight_list[s],
                        total=float(total_sum[s] / n),
                        train_accuracy=int(correct[s]) / n,
                        seconds=seconds,
                    )
                )
        val_logits, _ = _forward_stacked(params, val_set.features)
        _check_finite(val_logits, configs, weight_list,
                      f"on the validation set after epoch {first.epochs - 1}")
    results = []
    for s, cfg in enumerate(configs):
        val_preds = Predictions(softmax(val_logits[s]), val_set.labels)
        report, final_ece, table = evaluate(val_preds, cfg.eval_bins)
        results.append((_arm(params, s), TrainReport(
            epochs=tuple(stats[s]),
            final_report=report,
            final_ece=final_ece,
            reliability=table,
        )))
    return results


def train(
    train_set: Dataset, val_set: Dataset, config: TrainConfig
) -> tuple[ModelParams, TrainReport]:
    """Full SGD run; returns final parameters and the epoch-by-epoch report.

    One run of :func:`train_arms`, which documents the loop.
    """
    return train_arms(train_set, val_set, [config])[0]

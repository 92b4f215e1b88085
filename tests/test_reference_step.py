"""A frozen plain SGD trainer that the stacked loop must equal bit for bit.

``reference_train`` is one run of the trainer written as plain 2-D numpy,
in the trainer's original operation order: forward, softmax, NLL, the
soft-ECE gradient with two ``np.add.at`` scatters, backward and
``p - lr * g``. Any fast path in
``training.train_arms`` or ``kernels.soft_ece_backward`` must keep every
floating-point result of this code.
"""

import numpy as np
import pytest

from calibkit import (
    Dataset,
    IndicatorVariant,
    LossConfig,
    SplitSpec,
    TrainConfig,
    TrainingMode,
    curriculum_weight,
    forward,
    gen_synthetic,
    init_model,
    kernels,
    softmax,
    split,
    train_arms,
)

EPS = 1e-6


def ref_sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def ref_soft_ece_backward(p, y, edges, use_true_q):
    """Soft-ECE value and logit gradient of one (n, K) batch."""
    n = p.shape[0]
    rows = np.arange(n)
    pred = np.argmax(p, axis=1)
    conf = p[rows, pred]
    q = p[rows, y] if use_true_q else conf
    qc = np.clip(q, EPS, 1.0 - EPS)
    t = np.tan(np.pi * qc - 0.5 * np.pi)
    g = ref_sigmoid(t)
    bins = np.searchsorted(edges, conf, side="left")
    m = edges.shape[0] + 1
    gap = (np.bincount(bins, weights=g, minlength=m)
           - np.bincount(bins, weights=conf, minlength=m))
    value = np.abs(gap).sum() / n
    s = np.sign(gap)[bins] / n
    dgdq = g * (1.0 - g) * np.pi * (1.0 + t * t)
    dgdq[(q < EPS) | (q > 1.0 - EPS)] = 0.0
    dprobs = np.zeros_like(p)
    np.add.at(dprobs, (rows, y if use_true_q else pred), s * dgdq)
    np.add.at(dprobs, (rows, pred), -s)
    inner = np.einsum("ij,ij->i", dprobs, p)
    return value, p * (dprobs - inner[:, None])


def ref_weight(cfg, epoch):
    if cfg.mode is TrainingMode.VANILLA_NLL:
        return 0.0
    if cfg.mode is TrainingMode.CALIBRATED_CURRICULUM:
        return curriculum_weight(epoch, cfg.loss)
    return cfg.loss.gamma_e


def reference_train(train_set, cfg):
    """Final parameters (name -> array) and per-epoch
    (nll, soft_ece, total, train_accuracy) of one run."""
    init = init_model(train_set.dim, cfg.hidden_dim, train_set.k, cfg.seed)
    params = {name: arr for name, arr in vars(init).items() if arr is not None}
    hidden_model = "w_hidden" in params
    edges = kernels.bin_edges(cfg.loss.m_train)
    use_true_q = cfg.loss.indicator_variant is IndicatorVariant.TRUE_CLASS_PROB
    n, lr = train_set.n, cfg.learning_rate
    epochs = []
    for epoch in range(cfg.epochs):
        weight = ref_weight(cfg, epoch)
        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        nll_sum = soft_sum = total_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x, y = train_set.features[idx], train_set.labels[idx]
            b = idx.shape[0]
            rows = np.arange(b)
            h = None
            if hidden_model:
                h = np.tanh(x @ params["w_hidden"] + params["b_hidden"])
                logits = h @ params["w_out"] + params["b_out"]
            else:
                logits = x @ params["w_out"] + params["b_out"]
            z = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(z)
            p = e / e.sum(axis=1, keepdims=True)

            nll = -np.log(np.maximum(p[rows, y], EPS)).mean()
            nll_grad = p.copy()
            nll_grad[rows, y] -= 1.0
            nll_grad /= b
            soft, soft_grad = ref_soft_ece_backward(p, y, edges, use_true_q)
            dlogits = nll_grad + weight * soft_grad

            grads = {"b_out": dlogits.sum(axis=0)}
            if hidden_model:
                d_hidden = (dlogits @ params["w_out"].T) * (1.0 - h * h)
                grads["w_out"] = h.T @ dlogits
                grads["w_hidden"] = x.T @ d_hidden
                grads["b_hidden"] = d_hidden.sum(axis=0)
            else:
                grads["w_out"] = x.T @ dlogits
            params = {name: arr - lr * grads[name] for name, arr in params.items()}

            nll_sum += nll * b
            soft_sum += soft * b
            total_sum += (nll + weight * soft) * b
            correct += int((np.argmax(logits, axis=1) == y).sum())
        epochs.append((nll_sum / n, soft_sum / n, total_sum / n, correct / n))
    return params, epochs


@pytest.fixture(scope="module")
def short_batch_split():
    ds = gen_synthetic(3, 40, 4, 1.0, 0)
    tr, va, _ = split(ds, SplitSpec((0.7, 0.2, 0.1), 0))
    assert tr.n % 8 != 0  # the last batch of every epoch is short
    return tr, va


def configs_for(modes, hidden_dim, variant, s_e, gamma_e=0.6, epochs=6):
    return [
        TrainConfig(epochs=epochs, batch_size=8, learning_rate=0.05, seed=3,
                    loss=LossConfig(gamma_e=gamma_e, s_e=s_e, total_epochs=epochs,
                                    indicator_variant=variant),
                    mode=mode, hidden_dim=hidden_dim)
        for mode in modes
    ]


ALL_MODES = list(TrainingMode)


@pytest.mark.parametrize("hidden_dim", [0, 6], ids=["linear", "hidden"])
@pytest.mark.parametrize("variant", list(IndicatorVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("modes, s_e", [
    (ALL_MODES, 2),
    ([TrainingMode.CALIBRATED_CURRICULUM], 1),
    ([TrainingMode.CALIBRATED_FIXED], 0),
], ids=["S3-se2", "S1-curriculum-se1", "S1-fixed"])
def test_train_arms_equals_the_frozen_reference(short_batch_split, hidden_dim,
                                                variant, modes, s_e):
    tr, va = short_batch_split
    assert_train_arms_equals_the_reference(tr, va, configs_for(modes, hidden_dim, variant, s_e))


def assert_train_arms_equals_the_reference(tr, va, configs):
    for (params, report), cfg in zip(train_arms(tr, va, configs), configs):
        want_params, want_epochs = reference_train(tr, cfg)
        for name, want in want_params.items():
            got = getattr(params, name)
            assert got.shape == want.shape and np.array_equal(got, want), name
        got_epochs = [(e.nll, e.soft_ece, e.total, e.train_accuracy)
                      for e in report.epochs]
        assert got_epochs == want_epochs


def test_train_arms_equals_the_frozen_reference_where_the_nll_clamp_binds(short_batch_split):
    """Features scaled 100-fold give a linear model extreme logits from its
    first step, so label probabilities fall below EPS and the NLL's clamp
    sets the epoch losses: the trainer's clamp must be the frozen one."""
    tr, va = (Dataset(ds.features * 100.0, ds.labels, ds.k) for ds in short_batch_split)
    configs = configs_for(ALL_MODES, 0, IndicatorVariant.MAX_PROB, 2)
    first_batch = np.random.default_rng([configs[0].seed, 0]).permutation(tr.n)[:8]
    init = init_model(tr.dim, 0, tr.k, configs[0].seed)
    p = softmax(forward(init, tr.features[first_batch]))
    assert p[np.arange(8), tr.labels[first_batch]].min() < EPS
    assert_train_arms_equals_the_reference(tr, va, configs)


@pytest.mark.parametrize("shape", [(1, 1, 2), (3, 32, 4), (2, 2048, 10), (4, 7, 3)])
@pytest.mark.parametrize("use_true_q", [False, True])
def test_soft_ece_backward_equals_the_frozen_kernel(shape, use_true_q):
    s, n, k = shape
    rng = np.random.default_rng([s, n, k, use_true_q])
    edges = kernels.bin_edges(10)
    for trial in range(10):
        probs = rng.dirichlet(np.full(k, 0.3 + trial), size=(s, n))
        # one-hot rows, exact ties and clamp-range confidences on some trials
        if trial % 3 == 1:
            probs[:, : n // 2 + 1] = np.eye(k)[rng.integers(0, k, n // 2 + 1)]
        elif trial % 3 == 2:
            probs[:, ::2] = 1.0 / k
        labels = rng.integers(0, k, n)
        values, grads = kernels.soft_ece_backward(probs, labels, edges, use_true_q)
        for i in range(s):
            want_value, want_grad = ref_soft_ece_backward(probs[i], labels, edges,
                                                          use_true_q)
            assert values[i] == want_value
            assert np.array_equal(grads[i], want_grad)


CLAMP_QS = [0.0, kernels.EPSILON / 2, kernels.EPSILON,
            1.0 - kernels.EPSILON, 1.0 - kernels.EPSILON / 2, 1.0]


@pytest.mark.parametrize("use_true_q", [False, True])
def test_soft_ece_backward_is_flat_at_the_clamp(use_true_q):
    """The frozen kernel masks the slope past the clamp; the kernel must
    give the same gradient there. The label's probability takes every
    value of CLAMP_QS; the max probability, at least 1/K, takes the top
    three."""
    rows = [[q, (1.0 - q) / 2, (1.0 - q) / 2] for q in CLAMP_QS]
    probs = np.array(rows + [[0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
    labels = np.zeros(len(probs), dtype=np.int64)
    edges = kernels.bin_edges(10)
    value, grad = kernels.soft_ece_backward(probs, labels, edges, use_true_q)
    want_value, want_grad = ref_soft_ece_backward(probs, labels, edges, use_true_q)
    assert value == want_value
    assert np.array_equal(grad, want_grad)

"""Model init, forward/backward passes, SGD, and the training loop."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from calibkit import (
    Dataset,
    DomainError,
    EpochStats,
    IndicatorVariant,
    LossConfig,
    ModelParams,
    Predictions,
    SplitSpec,
    TrainConfig,
    TrainingMode,
    backward,
    evaluate,
    forward,
    gen_synthetic,
    init_model,
    kernels,
    softmax,
    split,
    train,
    train_arms,
    weighted_loss,
)
from calibkit import training


def predict(params, ds):
    return Predictions.from_probs(softmax(forward(params, ds.features)), ds.labels)


def small_config(mode=TrainingMode.VANILLA_NLL, epochs=5, **kw):
    loss = LossConfig(gamma_e=kw.pop("gamma_e", 0.5), s_e=kw.pop("s_e", 0),
                      total_epochs=epochs)
    return TrainConfig(epochs=epochs, batch_size=kw.pop("batch_size", 8),
                       learning_rate=kw.pop("learning_rate", 0.01),
                       seed=kw.pop("seed", 0), loss=loss, mode=mode, **kw)


def params_without_edge_confidences(seed, n=8, dim=3, hidden=4, k=3, m=10, tol=1e-3):
    """A model/batch pair whose max-prob confidences sit well inside bins.

    Finite differences on the joint loss are only meaningful when no sample
    is close enough to a bin edge for the perturbation to move it across.
    """
    rng = np.random.default_rng(seed)
    for _ in range(200):
        params = ModelParams(
            w_hidden=rng.normal(0, 0.8, (dim, hidden)),
            b_hidden=rng.normal(0, 0.3, hidden),
            w_out=rng.normal(0, 0.8, (hidden, k)),
            b_out=rng.normal(0, 0.3, k),
        )
        x = rng.normal(0, 1.0, (n, dim))
        y = rng.integers(0, k, n)
        conf = softmax(forward(params, x)).max(axis=1)
        edges = kernels.bin_edges(m)
        if np.abs(conf[:, None] - edges[None, :]).min() > tol:
            return params, x, y
    raise AssertionError("could not find an edge-free batch")


class TestInitModel:
    def test_deterministic_and_bounded(self):
        a = init_model(100, 0, 3, 42)
        b = init_model(100, 0, 3, 42)
        np.testing.assert_array_equal(a.w_out, b.w_out)
        assert np.abs(a.w_out).max() <= 0.1  # 1/sqrt(100)
        assert np.abs(a.w_out).max() > 0.05  # actually fills the range
        np.testing.assert_array_equal(a.b_out, np.zeros(3))

    def test_linear_has_no_hidden_block(self):
        p = init_model(5, 0, 4, 0)
        assert not p.has_hidden
        assert p.w_hidden is None and p.b_hidden is None
        assert p.w_out.shape == (5, 4)

    def test_mlp_shapes_and_fan_in(self):
        p = init_model(6, 16, 4, 0)
        assert p.has_hidden
        assert p.w_hidden.shape == (6, 16)
        assert p.b_hidden.shape == (16,)
        assert p.w_out.shape == (16, 4)
        assert np.abs(p.w_hidden).max() <= 1.0 / np.sqrt(6)
        assert np.abs(p.w_out).max() <= 0.25  # 1/sqrt(16)
        np.testing.assert_array_equal(p.b_hidden, np.zeros(16))

    def test_seed_changes_weights(self):
        assert not np.array_equal(init_model(8, 0, 3, 0).w_out,
                                  init_model(8, 0, 3, 1).w_out)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DomainError):
            init_model(0, 0, 3, 0)
        with pytest.raises(DomainError):
            init_model(4, -1, 3, 0)
        with pytest.raises(DomainError):
            init_model(4, 0, 1, 0)


class TestForward:
    def test_zero_params_give_uniform_softmax(self):
        p = ModelParams(w_out=np.zeros((4, 5)), b_out=np.zeros(5))
        logits = forward(p, np.random.default_rng(0).normal(size=(7, 4)))
        np.testing.assert_array_equal(logits, np.zeros((7, 5)))
        np.testing.assert_allclose(softmax(logits), np.full((7, 5), 0.2), atol=1e-15)

    def test_linear_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        p = ModelParams(w_out=rng.normal(size=(4, 3)), b_out=rng.normal(size=3))
        x = rng.normal(size=(3, 4))
        got = forward(p, x)
        want = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                want[i, j] = sum(x[i, d] * p.w_out[d, j] for d in range(4)) + p.b_out[j]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_mlp_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        p = ModelParams(
            w_hidden=rng.normal(size=(3, 4)), b_hidden=rng.normal(size=4),
            w_out=rng.normal(size=(4, 2)), b_out=rng.normal(size=2),
        )
        x = rng.normal(size=(5, 3))
        got = forward(p, x)
        want = np.empty((5, 2))
        for i in range(5):
            h = [np.tanh(sum(x[i, d] * p.w_hidden[d, j] for d in range(3))
                         + p.b_hidden[j]) for j in range(4)]
            for j in range(2):
                want[i, j] = sum(h[d] * p.w_out[d, j] for d in range(4)) + p.b_out[j]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_mismatched_features(self):
        p = init_model(4, 0, 3, 0)
        with pytest.raises(DomainError):
            forward(p, np.zeros((2, 5)))
        with pytest.raises(DomainError):
            forward(p, np.zeros(4))


class TestBackward:
    def test_vanilla_equals_plain_nll_backprop(self):
        """With the calibration weight at 0 the gradients are textbook NLL."""
        rng = np.random.default_rng(0)
        p = init_model(4, 0, 3, 0)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, 6)
        cfg = small_config(TrainingMode.VANILLA_NLL)
        value, grads = backward(p, x, y, epoch=2, config=cfg)
        assert value.ece_weight == 0.0
        probs = softmax(forward(p, x))
        dlogits = probs.copy()
        dlogits[np.arange(6), y] -= 1.0
        dlogits /= 6
        np.testing.assert_allclose(grads.w_out, x.T @ dlogits, atol=1e-15)
        np.testing.assert_allclose(grads.b_out, dlogits.sum(axis=0), atol=1e-15)

    def test_all_arrays_match_finite_differences(self):
        params, x, y = params_without_edge_confidences(seed=11)
        loss_cfg = LossConfig(gamma_e=2.0, s_e=0, total_epochs=5)
        cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=0.01, seed=0,
                          loss=loss_cfg, mode=TrainingMode.CALIBRATED_FIXED,
                          hidden_dim=4)
        _, grads = backward(params, x, y, epoch=1, config=cfg)

        def total_at(q):
            return weighted_loss(forward(q, x), y, 2.0, loss_cfg).total

        h = 1e-5
        for name in ("w_out", "b_out", "w_hidden", "b_hidden"):
            base = getattr(params, name)
            analytic = getattr(grads, name)
            fd = np.empty_like(base)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                bumped = {f: np.array(getattr(params, f)) for f in
                          ("w_out", "b_out", "w_hidden", "b_hidden")}
                bumped[name][idx] += h
                up = total_at(ModelParams(**bumped))
                bumped[name][idx] -= 2 * h
                fd[idx] = (up - total_at(ModelParams(**bumped))) / (2 * h)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)

    def test_duplicating_the_batch_keeps_gradients(self):
        """Mean reduction: feeding every sample twice changes nothing."""
        rng = np.random.default_rng(5)
        p = init_model(3, 4, 3, 1)
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 3, 8)
        cfg = small_config(TrainingMode.CALIBRATED_FIXED, hidden_dim=4, gamma_e=1.5)
        _, g1 = backward(p, x, y, epoch=0, config=cfg)
        _, g2 = backward(p, np.concatenate([x, x]), np.concatenate([y, y]),
                         epoch=0, config=cfg)
        for name in ("w_out", "b_out", "w_hidden", "b_hidden"):
            np.testing.assert_allclose(getattr(g1, name), getattr(g2, name),
                                       atol=1e-12)


class TestArrayLikeFeatures:
    """Nested lists enter as float64 arrays; float64 arrays enter uncopied."""

    X = [[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]]

    def test_dataset(self):
        ds = Dataset(self.X, [0, 1, 1], 2)
        assert ds.features.dtype == np.float64
        np.testing.assert_array_equal(ds.features, self.X)
        x = np.array(self.X)
        assert Dataset(x, [0, 1, 1], 2).features is x

    def test_forward(self):
        p = init_model(2, 3, 2, 0)
        np.testing.assert_array_equal(forward(p, self.X), forward(p, np.array(self.X)))

    def test_backward(self):
        p = init_model(2, 3, 2, 0)
        cfg = small_config(TrainingMode.CALIBRATED_FIXED, hidden_dim=3)
        value, grads = backward(p, self.X, [0, 1, 1], epoch=0, config=cfg)
        want_value, want_grads = backward(p, np.array(self.X), np.array([0, 1, 1]),
                                          epoch=0, config=cfg)
        assert value.total == want_value.total
        for name in ("w_out", "b_out", "w_hidden", "b_hidden"):
            np.testing.assert_array_equal(getattr(grads, name), getattr(want_grads, name))


class TestTrainConfig:
    def test_rejects_bad_learning_rate(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="learning_rate must be finite and positive"):
                small_config(learning_rate=bad)


@pytest.fixture(scope="module")
def tiny_splits():
    ds = gen_synthetic(3, 40, 4, 1.0, 0)
    return split(ds, SplitSpec((0.7, 0.2, 0.1), 0))


class TestTrainLoop:
    def test_vanilla_never_weights_the_calibration_term(self, tiny_splits):
        tr, va, _ = tiny_splits
        _, report = train(tr, va, small_config(TrainingMode.VANILLA_NLL))
        assert [e.ece_weight for e in report.epochs] == [0.0] * 5

    def test_curriculum_ramp_is_exact(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = small_config(TrainingMode.CALIBRATED_CURRICULUM, gamma_e=0.05)
        _, report = train(tr, va, cfg)
        weights = [e.ece_weight for e in report.epochs]
        assert weights == [e / 5 * 0.05 for e in range(5)]
        assert all(b > a for a, b in zip(weights, weights[1:]))

    def test_fixed_mode_holds_gamma(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = small_config(TrainingMode.CALIBRATED_FIXED, gamma_e=0.3)
        _, report = train(tr, va, cfg)
        assert [e.ece_weight for e in report.epochs] == [0.3] * 5

    def test_repeat_run_is_bit_identical(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = small_config(TrainingMode.CALIBRATED_CURRICULUM, hidden_dim=8)
        p1, r1 = train(tr, va, cfg)
        p2, r2 = train(tr, va, cfg)
        for name in ("w_out", "b_out", "w_hidden", "b_hidden"):
            np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))
        assert r1 == r2  # EpochStats.seconds is excluded from equality

    def test_epoch_totals_decompose(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = small_config(TrainingMode.CALIBRATED_CURRICULUM, gamma_e=0.8)
        _, report = train(tr, va, cfg)
        for e in report.epochs:
            assert e.total == pytest.approx(e.nll + e.ece_weight * e.soft_ece,
                                            abs=1e-12)

    def test_partial_final_batch_is_trained(self):
        ds = gen_synthetic(2, 13, 3, 0.5, 2)  # n = 26 per split below
        tr, va, _ = split(ds, SplitSpec((0.7, 0.2, 0.1), 0))
        assert tr.n % 8 != 0
        _, report = train(tr, va, small_config(batch_size=8))
        assert len(report.epochs) == 5
        assert all(0.0 <= e.train_accuracy <= 1.0 for e in report.epochs)

    def test_learning_actually_happens(self, tiny_splits):
        tr, va, _ = tiny_splits
        cfg = small_config(epochs=30, learning_rate=0.1)
        _, report = train(tr, va, cfg)
        assert report.epochs[-1].nll < report.epochs[0].nll

    def test_config_epoch_mismatch_rejected(self):
        with pytest.raises(DomainError):
            TrainConfig(epochs=10, batch_size=8, learning_rate=0.01, seed=0,
                        loss=LossConfig(gamma_e=0.1, total_epochs=50),
                        mode=TrainingMode.VANILLA_NLL)

    def test_incompatible_splits_rejected(self):
        a = gen_synthetic(3, 10, 4, 1.0, 0)
        b = gen_synthetic(2, 10, 4, 1.0, 0)
        with pytest.raises(DomainError):
            train(a, b, small_config())


def arm_configs(modes, hidden_dim=0, variant=IndicatorVariant.MAX_PROB, s_e=0,
                gammas=None, epochs=6):
    gammas = gammas or [0.4] * len(modes)
    return [
        TrainConfig(epochs=epochs, batch_size=8, learning_rate=0.05, seed=3,
                    loss=LossConfig(gamma_e=g, s_e=s_e, total_epochs=epochs,
                                    indicator_variant=variant),
                    mode=mode, hidden_dim=hidden_dim)
        for mode, g in zip(modes, gammas)
    ]


ALL_MODES = list(TrainingMode)


class TestTrainArms:
    @pytest.mark.parametrize("configs", [
        arm_configs(ALL_MODES),
        arm_configs(ALL_MODES, hidden_dim=6, variant=IndicatorVariant.TRUE_CLASS_PROB, s_e=2),
        arm_configs([TrainingMode.CALIBRATED_CURRICULUM] * 2, hidden_dim=6, s_e=1,
                    gammas=[0.3, 2.5]),
        arm_configs([TrainingMode.CALIBRATED_FIXED], variant=IndicatorVariant.TRUE_CLASS_PROB),
    ], ids=["linear-3", "hidden-true-class-se2-3", "hidden-se1-2", "linear-true-class-1"])
    def test_each_arm_equals_its_own_run_bit_for_bit(self, tiny_splits, configs):
        tr, va, _ = tiny_splits
        assert tr.n % configs[0].batch_size != 0  # a short final batch is stacked too
        stacked = train_arms(tr, va, configs)
        assert len(stacked) == len(configs)
        for (params, report), cfg in zip(stacked, configs):
            alone_params, alone_report = train(tr, va, cfg)
            for name in ("w_out", "b_out", "w_hidden", "b_hidden"):
                got, want = getattr(params, name), getattr(alone_params, name)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.shape == want.shape and np.array_equal(got, want)
            assert report.epochs == alone_report.epochs  # every field but seconds
            assert report.final_report == alone_report.final_report
            assert report.final_ece == alone_report.final_ece
            assert report.reliability == alone_report.reliability
            assert report == alone_report

    def test_two_arms_reports_compare_unequal_on_their_tables(self, tiny_splits):
        tr, va, _ = tiny_splits
        (_, vanilla), (_, fixed) = train_arms(tr, va, arm_configs(
            [TrainingMode.VANILLA_NLL, TrainingMode.CALIBRATED_FIXED], gammas=[0.4, 3.0]))
        assert vanilla.reliability != fixed.reliability
        assert vanilla != fixed
        assert dataclasses.replace(vanilla, reliability=fixed.reliability) != vanilla
        with pytest.raises(TypeError):  # a report holds arrays
            hash(vanilla)

    @pytest.mark.parametrize("field, value", [
        ("seed", 4), ("epochs", 7), ("batch_size", 9), ("learning_rate", 0.5),
        ("hidden_dim", 2), ("eval_bins", 10), ("s_e", 1), ("m_train", 5),
        ("indicator_variant", IndicatorVariant.TRUE_CLASS_PROB),
    ])
    def test_configs_must_agree_on_shared_fields(self, tiny_splits, field, value):
        tr, va, _ = tiny_splits
        base = arm_configs([TrainingMode.VANILLA_NLL])[0]
        if field == "epochs":
            other = dataclasses.replace(
                base, epochs=value,
                loss=dataclasses.replace(base.loss, total_epochs=value))
        elif hasattr(base, field):
            other = dataclasses.replace(base, **{field: value})
        else:
            other = dataclasses.replace(
                base, loss=dataclasses.replace(base.loss, **{field: value}))
        with pytest.raises(DomainError, match=f"disagree on (loss\\.)?{field}"):
            train_arms(tr, va, [base, other])

    def test_empty_config_list_rejected(self, tiny_splits):
        tr, va, _ = tiny_splits
        with pytest.raises(DomainError, match="at least one config"):
            train_arms(tr, va, [])

    def test_non_finite_features_rejected(self, tiny_splits):
        tr, _, _ = tiny_splits
        for bad in (np.nan, np.inf):
            features = np.where(np.arange(tr.n)[:, None] == 5, bad, tr.features)
            with pytest.raises(DomainError, match="features contain non-finite"):
                Dataset(features, tr.labels, tr.k)

    def test_divergence_names_run_epoch_batch_weight_and_lr(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((40, 3)) * 1e200, np.arange(40) % 2, 2)
        cfg = small_config(TrainingMode.CALIBRATED_FIXED, gamma_e=0.25,
                           learning_rate=1e300)
        # RuntimeWarnings fail the suite, so this also checks that none leak out
        with pytest.raises(DomainError) as err:
            train(ds, ds, cfg)
        assert str(err.value) == (
            "fixed run diverged at epoch 0, batch 1: non-finite logits "
            "(ece weight 0.25, learning rate 1e+300)")


@pytest.fixture
def blas_threads():
    """The loaded OpenBLAS's (get, set) thread-count functions; the
    caller's count is restored after the test."""
    threads = training._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, set_threads = threads
    before = get()
    yield get, set_threads
    set_threads(before)


def spy_blas_threads(monkeypatch, get):
    """The OpenBLAS thread count at each stacked forward pass."""
    seen = []
    forward_stacked = training._forward_stacked

    def spy(*args):
        seen.append(get())
        return forward_stacked(*args)

    monkeypatch.setattr(training, "_forward_stacked", spy)
    return seen


class TestOneBlasThread:
    def test_without_openblas_entry_points_train_is_unchanged(self, tiny_splits,
                                                              monkeypatch):
        """With no entry point found the pin does nothing; a small run takes
        OpenBLAS's one-thread path either way, so it is bit-identical."""
        tr, va, _ = tiny_splits
        cfg = small_config(TrainingMode.CALIBRATED_CURRICULUM, hidden_dim=8)
        pinned_params, pinned_report = train(tr, va, cfg)
        monkeypatch.setattr(training, "_OPENBLAS_THREADS", (("no_get", "no_set"),))
        training._openblas_threads.cache_clear()
        try:
            assert training._openblas_threads() is None
            params, report = train(tr, va, cfg)
        finally:
            training._openblas_threads.cache_clear()
        for name in ("w_out", "b_out", "w_hidden", "b_hidden"):
            np.testing.assert_array_equal(getattr(params, name),
                                          getattr(pinned_params, name))
        assert report == pinned_report

    def test_a_diverging_run_gives_the_caller_its_thread_count_back(self, blas_threads,
                                                                    monkeypatch):
        get, set_threads = blas_threads
        set_threads(3)
        seen = spy_blas_threads(monkeypatch, get)
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((40, 3)) * 1e200, np.arange(40) % 2, 2)
        with pytest.raises(DomainError, match="diverged"):
            train(ds, ds, small_config(TrainingMode.CALIBRATED_FIXED, learning_rate=1e300))
        assert seen and set(seen) == {1}
        assert get() == 3

    def test_concurrent_calls_share_one_pin(self, blas_threads, monkeypatch):
        """Calls from more Python threads than CPUs all run BLAS on one
        thread, and the caller's count is back once the last returns."""
        get, set_threads = blas_threads
        set_threads(3)
        seen = spy_blas_threads(monkeypatch, get)
        params = init_model(4, 6, 3, 0)
        x = np.ones((5, 4))

        def work():
            for _ in range(200):
                forward(params, x)

        workers = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 8 * 200 and set(seen) == {1}
        assert get() == 3


class TestEvaluate:
    def test_uniform_model_occupies_one_bin(self):
        """Zero weights => every confidence is exactly 1/K."""
        ds = gen_synthetic(4, 25, 6, 1.0, 0)
        p = ModelParams(w_out=np.zeros((6, 4)), b_out=np.zeros(4))
        report, value, table = evaluate(predict(p, ds), 15)
        occupied = np.flatnonzero(table.counts)
        assert len(occupied) == 1
        assert table.conf[occupied[0]] == 0.25
        # 1/4 lands past the edges 1/15, 2/15, 3/15 and no further
        assert table.counts[3] == ds.n
        assert value == pytest.approx(abs(report.accuracy - 0.25), abs=1e-12)

    def test_separable_problem_reaches_high_accuracy(self):
        ds = gen_synthetic(3, 200, 4, 0.2, 0)
        tr, va, te = split(ds, SplitSpec((0.7, 0.2, 0.1), 0))
        loss = LossConfig(gamma_e=0.05, total_epochs=30)
        cfg = TrainConfig(epochs=30, batch_size=32, learning_rate=0.1, seed=0,
                          loss=loss, mode=TrainingMode.VANILLA_NLL)
        params, _ = train(tr, va, cfg)
        report, _, _ = evaluate(predict(params, te), 15)
        assert report.accuracy > 0.95

    def test_record_list_path_without_model(self):
        recs = Predictions.from_probs([[0.9, 0.1], [0.2, 0.8]], [0, 1])
        report, value, table = evaluate(recs, 2)
        assert report.accuracy == 1.0
        assert value == pytest.approx(0.15, abs=1e-12)
        assert table.n == 2

    def test_empty_record_list_rejected(self):
        with pytest.raises(DomainError):
            evaluate(Predictions.from_probs(np.empty((0, 2)), []), 10)


def test_mode_names():
    assert TrainingMode.from_name("Vanilla") is TrainingMode.VANILLA_NLL
    assert TrainingMode.from_name("curriculum") is TrainingMode.CALIBRATED_CURRICULUM
    assert TrainingMode.from_name("fixed") is TrainingMode.CALIBRATED_FIXED
    with pytest.raises(DomainError):
        TrainingMode.from_name("adam")


def test_epoch_stats_ignores_seconds_in_equality():
    fields = dict(epoch=0, nll=1.0, soft_ece=0.1, ece_weight=0.0,
                  total=1.0, train_accuracy=0.5)
    a = EpochStats(seconds=1.0, **fields)
    b = EpochStats(seconds=2.0, **fields)
    assert a == b
    assert dataclasses.replace(a, seconds=9.9) == b

"""Acceptance gate: the eight properties this package guarantees end to end.

Every test prints one PASS/FAIL line (through pytest's capture) so a full
run doubles as an acceptance report:

    python3 -m pytest tests/test_acceptance.py -v
"""

import json
import time
from statistics import median

import numpy as np
import pytest

from calibkit import (
    LogFormat,
    LossConfig,
    Predictions,
    SplitSpec,
    TrainConfig,
    TrainingMode,
    backward,
    build_reliability_table,
    comparison_table,
    ece,
    evaluate,
    forward,
    gen_synthetic,
    kernels,
    load_predictions,
    save_predictions,
    soft_ece,
    soft_ece_grad,
    soft_indicator,
    softmax,
    split,
    train,
    weighted_loss,
)
from calibkit.cli import run_cli
from calibkit.training import ModelParams


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, detail):
        with capsys.disabled():
            print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return _announce


def brute_force_ece(preds, m):
    """Straight-from-the-definition double loop, kept independent of the
    library's binning helpers."""
    records = list(zip(preds.confidence.tolist(), preds.predicted.tolist(),
                       preds.labels.tolist()))
    n = len(records)
    total = 0.0
    for b in range(1, m + 1):
        lo, hi = (b - 1) / m, b / m
        members = [(conf, pred, true) for conf, pred, true in records
                   if (conf > lo or b == 1) and (conf <= hi or b == m)]
        if not members:
            continue
        acc = sum(pred == true for _, pred, true in members) / len(members)
        conf = sum(c for c, _, _ in members) / len(members)
        total += len(members) / n * abs(acc - conf)
    return total


def random_records(rng, n, k):
    probs = rng.dirichlet(rng.uniform(0.3, 3.0, size=k), size=n)
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, k, size=n)
    return Predictions.from_probs(probs, labels)


def test_criterion_1_hard_ece_matches_brute_force(announce):
    rng = np.random.default_rng(2024)
    tic = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 1001))
        k = int(rng.integers(2, 13))
        m = int(rng.choice([1, 2, 10, 15]))
        records = random_records(rng, n, k)
        fast = ece(build_reliability_table(records, m))
        slow = brute_force_ece(records, m)
        worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - tic
    ok = worst < 1e-12 and elapsed < 10.0
    announce(1, "hard-ECE oracle equivalence",
             ok, f"max |gap| {worst:.3e} over 200 batches, {elapsed:.1f} s")
    assert worst < 1e-12
    assert elapsed < 10.0


def _edge_free(confidences, m, margin=1e-4):
    edges = kernels.bin_edges(m)
    if edges.size == 0:
        return True
    return np.abs(confidences[:, None] - edges[None, :]).min() > margin


def _gaps_resolved(probs, labels, m, margin=1e-3):
    """The |bin gap| kink is the other non-differentiable point; finite
    differences are only meaningful away from it."""
    conf = probs.max(axis=1)
    idx = np.searchsorted(kernels.bin_edges(m), conf, side="left")
    soft = np.array([soft_indicator(q) for q in conf])
    for b in range(m):
        mask = idx == b
        if mask.any() and abs(soft[mask].sum() - conf[mask].sum()) < margin:
            return False
    return True


def test_criterion_2_gradients_match_finite_differences(announce):
    rng = np.random.default_rng(7)
    tic = time.perf_counter()
    h = 1e-5

    worst_loss_rel = 0.0
    done = 0
    while done < 100:  # direct surrogate gradient wrt logits
        n, k = int(rng.integers(4, 17)), int(rng.integers(3, 6))
        m = int(rng.choice([2, 10]))
        logits = rng.normal(0.0, 2.0, (n, k))
        labels = rng.integers(0, k, n)
        probs = softmax(logits)
        if not (_edge_free(probs.max(axis=1), m) and _gaps_resolved(probs, labels, m)):
            continue
        analytic = soft_ece_grad(logits, labels, m)
        fd = np.empty_like(logits)
        for i in range(n):
            for j in range(k):
                up, down = logits.copy(), logits.copy()
                up[i, j] += h
                down[i, j] -= h
                fd[i, j] = (soft_ece(softmax(up), labels, m)
                            - soft_ece(softmax(down), labels, m)) / (2 * h)
        scale = np.maximum(np.abs(fd), 1e-8)
        worst_loss_rel = max(worst_loss_rel, float((np.abs(analytic - fd) / scale).max()))
        done += 1

    worst_model_rel = 0.0
    loss_cfg = LossConfig(gamma_e=2.0, s_e=0, total_epochs=5)
    cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=0.01, seed=0,
                      loss=loss_cfg, mode=TrainingMode.CALIBRATED_FIXED, hidden_dim=4)
    done = 0
    while done < 100:  # whole-model backward, every parameter array
        params = ModelParams(
            w_hidden=rng.normal(0, 0.8, (3, 4)), b_hidden=rng.normal(0, 0.3, 4),
            w_out=rng.normal(0, 0.8, (4, 3)), b_out=rng.normal(0, 0.3, 3),
        )
        x = rng.normal(0, 1.0, (8, 3))
        y = rng.integers(0, 3, 8)
        probs = softmax(forward(params, x))
        if not (_edge_free(probs.max(axis=1), 10) and _gaps_resolved(probs, y, 10)):
            continue
        _, grads = backward(params, x, y, epoch=1, config=cfg)

        def total_at(q):
            return weighted_loss(forward(q, x), y, 2.0, loss_cfg).total

        for name in ("w_out", "b_out", "w_hidden", "b_hidden"):
            base = getattr(params, name)
            analytic = getattr(grads, name)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                arrays = {f: np.array(getattr(params, f)) for f in
                          ("w_out", "b_out", "w_hidden", "b_hidden")}
                arrays[name][idx] += h
                up = total_at(ModelParams(**arrays))
                arrays[name][idx] -= 2 * h
                fd = (up - total_at(ModelParams(**arrays))) / (2 * h)
                rel = abs(analytic[idx] - fd) / max(abs(fd), 1e-8)
                worst_model_rel = max(worst_model_rel, rel)
        done += 1

    elapsed = time.perf_counter() - tic
    ok = worst_loss_rel < 1e-4 and worst_model_rel < 1e-4 and elapsed < 30.0
    announce(2, "gradient fidelity vs central differences", ok,
             f"max rel err: surrogate {worst_loss_rel:.2e}, "
             f"model {worst_model_rel:.2e}; {elapsed:.1f} s")
    assert worst_loss_rel < 1e-4
    assert worst_model_rel < 1e-4
    assert elapsed < 30.0


def test_criterion_3_surrogate_tracks_hard_metric_when_confident(announce):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        n, k = int(rng.integers(20, 200)), int(rng.integers(2, 6))
        conf = rng.uniform(0.99, 0.9999, n)
        labels = rng.integers(0, k, n)
        probs = ((1.0 - conf[:, None]) / (k - 1)) * np.ones((n, k))
        probs[np.arange(n), labels] = conf  # every prediction confident & correct
        hard = ece(build_reliability_table(Predictions.from_probs(probs, labels), 10))
        soft = soft_ece(probs, labels, 10)
        worst = max(worst, abs(soft - hard))
    mid = soft_indicator(0.5)
    upper = soft_indicator(0.75)
    ok = worst < 0.01 and mid == 0.5 and abs(upper - 0.7310586) <= 1e-6
    announce(3, "surrogate consistency on confident batches", ok,
             f"max |soft-hard| {worst:.4f}; g(0.5)={mid}, g(0.75)={upper:.7f}")
    assert worst < 0.01
    assert mid == 0.5
    assert upper == pytest.approx(0.7310586, abs=1e-6)


@pytest.fixture(scope="module")
def seed_sweep():
    """Five-seed benchmark on the reference dataset, all three modes.

    The 4-class, overlap-1.5 blobs (n = 2000) with the default trainer and
    an explicit calibration weight of 5.0; test-split metrics at 15 bins.
    Returns the per-mode (ece, accuracy) pairs plus the sweep wall time.
    """
    tic = time.perf_counter()
    results = {}
    for mode in (TrainingMode.VANILLA_NLL, TrainingMode.CALIBRATED_CURRICULUM,
                 TrainingMode.CALIBRATED_FIXED):
        per_seed = []
        for seed in range(5):
            ds = gen_synthetic(4, 500, 8, 1.5, seed)
            tr, va, te = split(ds, SplitSpec((0.7, 0.2, 0.1), seed))
            loss = LossConfig(gamma_e=5.0, s_e=0, total_epochs=50, m_train=10)
            cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=0.001,
                              seed=seed, loss=loss, mode=mode, hidden_dim=16,
                              eval_bins=15)
            params, _ = train(tr, va, cfg)
            preds = Predictions.from_probs(softmax(forward(params, te.features)), te.labels)
            report, test_ece, _ = evaluate(preds, 15)
            per_seed.append((test_ece, report.accuracy))
        results[mode] = per_seed
    return results, time.perf_counter() - tic


def test_criterion_4_curriculum_calibrates_without_losing_accuracy(announce, seed_sweep):
    results, elapsed = seed_sweep
    van = results[TrainingMode.VANILLA_NLL]
    cur = results[TrainingMode.CALIBRATED_CURRICULUM]
    med_ece_van = median(e for e, _ in van)
    med_ece_cur = median(e for e, _ in cur)
    med_drop = median(a_v - a_c for (_, a_v), (_, a_c) in zip(van, cur))
    ok = med_ece_cur < med_ece_van and med_drop <= 0.01 and elapsed < 120.0
    announce(4, "curriculum lowers ECE, accuracy held within 1 point", ok,
             f"median ECE {med_ece_cur:.4f} vs {med_ece_van:.4f}; "
             f"median accuracy drop {med_drop:.4f}; sweep {elapsed:.1f} s")
    assert med_ece_cur < med_ece_van
    assert med_drop <= 0.01
    assert elapsed < 120.0


def test_criterion_5_curriculum_beats_fixed_weighting(announce, seed_sweep):
    results, _ = seed_sweep
    cur = results[TrainingMode.CALIBRATED_CURRICULUM]
    fix = results[TrainingMode.CALIBRATED_FIXED]
    med_cur = (median(e for e, _ in cur), median(a for _, a in cur))
    med_fix = (median(e for e, _ in fix), median(a for _, a in fix))
    not_worse_somewhere = med_cur[0] <= med_fix[0] or med_cur[1] >= med_fix[1]
    strict_wins = sum(
        1 for (e_c, a_c), (e_f, a_f) in zip(cur, fix) if e_c < e_f or a_c > a_f
    )
    ok = not_worse_somewhere and strict_wins >= 3
    announce(5, "curriculum not worse than fixed weight, mostly better", ok,
             f"median (ECE, acc) {med_cur[0]:.4f}/{med_cur[1]:.4f} vs "
             f"{med_fix[0]:.4f}/{med_fix[1]:.4f}; per-seed wins {strict_wins}/5")
    assert not_worse_somewhere
    assert strict_wins >= 3


def test_criterion_6_curriculum_schedule_is_exact(announce):
    ds = gen_synthetic(2, 40, 3, 1.0, 0)
    tr, va, _ = split(ds, SplitSpec((0.7, 0.2, 0.1), 0))
    loss = LossConfig(gamma_e=0.05, s_e=0, total_epochs=50)
    cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=0.001, seed=0,
                      loss=loss, mode=TrainingMode.CALIBRATED_CURRICULUM)
    _, report = train(tr, va, cfg)
    got = [e.ece_weight for e in report.epochs]
    want = [(c / 50) * 0.05 for c in range(50)]
    ok = got == want and got[-1] == 0.049
    announce(6, "per-epoch calibration weight follows the exact ramp", ok,
             f"50 epochs, final weight {got[-1]!r}")
    assert got == want
    assert got[-1] == 0.049


def test_criterion_7_determinism_and_round_trip(announce, tmp_path):
    args = ["train", "--classes", "3", "--per-class", "40", "--dim", "4",
            "--overlap", "1.0", "--epochs", "4", "--batch-size", "16",
            "--hidden-dim", "8", "--gamma", "0.5", "--seed", "3",
            "--mode", "curriculum"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    manifests_equal = (a / "run.json").read_bytes() == (b / "run.json").read_bytes()
    same = {name: (a / name).read_bytes() == (b / name).read_bytes()
            for name in ("reliability.svg", "report.json", "predictions.jsonl")}

    rng = np.random.default_rng(0)
    rows, labels = [], []
    for _ in range(40):
        p = rng.dirichlet(np.ones(4))
        rows.append(p / p.sum())
        labels.append(int(rng.integers(0, 4)))
    records = Predictions.from_probs(rows, labels)
    max_err = 0.0
    for fmt, name in ((LogFormat.JSONL, "r.jsonl"), (LogFormat.CSV, "r.csv")):
        save_predictions(records, tmp_path / name, fmt)
        loaded = load_predictions(tmp_path / name, fmt)
        max_err = max(max_err, float(np.abs(records.probs - loaded.probs).max()))

    ok = manifests_equal and all(same.values()) and max_err < 1e-9
    announce(7, "byte-identical reruns and lossless log round-trip", ok,
             f"manifest match {manifests_equal}, artifacts {sorted(same.items())}, "
             f"round-trip err {max_err:.2e}")
    assert manifests_equal
    assert all(same.values()), same
    assert max_err < 1e-9


def test_criterion_8_comparison_table_renders_benchmark_literals(announce):
    def report_like(p, r, f1, acc):
        from calibkit import ClassificationReport
        return ClassificationReport(per_class=((p, r, f1),), macro_precision=p,
                                    macro_recall=r, macro_f1=f1, accuracy=acc)

    entries = [
        ("nll_only", report_like(0.8794, 0.8754, 0.8731, 0.8754), 0.05436),
        ("calibrated", report_like(0.8772, 0.8689, 0.8675, 0.8689), 0.04013),
    ]
    lines = comparison_table(entries).splitlines()
    want_row_1 = "| nll_only | **87.94** | **87.54** | **87.31** | **87.54** | 0.05436 |"
    want_row_2 = "| calibrated | 87.72 | 86.89 | 86.75 | 86.89 | **0.04013** |"
    ok = (lines[0] == "| Model | P(%) | R(%) | F1(%) | ACC(%) | ECE |"
          and lines[2] == want_row_1 and lines[3] == want_row_2)
    announce(8, "comparison table renders two-model benchmark exactly", ok,
             "ACC 87.54/86.89, ECE 0.05436/0.04013, best-per-column bolded")
    assert lines[2] == want_row_1
    assert lines[3] == want_row_2

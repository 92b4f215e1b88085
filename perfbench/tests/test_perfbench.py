"""Tests of the benchmark itself: BENCHMARK.json's schema, the oracle, the
tracer's tolerance of missing functions, and a tiny run of every workload.
No timing is asserted.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, EvalWorkload  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.metric_units()


def test_oracle_matches_a_python_loop():
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(4), size=300)
    # Confidences exactly on bin edges belong to the lower bin.
    probs[:5] = [[0.4, 0.2, 0.2, 0.2], [0.6, 0.2, 0.2, 0.0], [0.8, 0.2, 0.0, 0.0],
                 [1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]]
    labels = rng.integers(0, 4, 300)
    m = 5
    acc_sum, conf_sum, count = [0.0] * m, [0.0] * m, [0] * m
    for p, y in zip(probs.tolist(), labels.tolist()):
        c = max(p)
        b = max(0, math.ceil(c * m) - 1)
        count[b] += 1
        conf_sum[b] += c
        acc_sum[b] += float(p.index(c) == y)
    expected = sum(abs(acc_sum[b] - conf_sum[b]) / len(probs) for b in range(m) if count[b])
    accuracy, ece = oracle.calibration(probs, labels, m)
    assert ece == pytest.approx(expected, abs=1e-12)
    assert accuracy == pytest.approx(sum(acc_sum) / len(probs), abs=1e-15)


def test_tracer_reports_a_missing_function_as_absent(monkeypatch, tmp_path):
    sys.path.insert(0, str(run.SRC))
    import calibkit.cli
    import calibkit.reporting

    monkeypatch.delattr(calibkit.reporting, "comparison_table")
    workload = EvalWorkload(name="eval_tiny", why="test", rows_n=200, classes=3)
    workload.prepare(1, tmp_path)
    spans = tracer.Tracer()
    cwd = Path.cwd()
    monkeypatch.chdir(tmp_path)
    with spans.installed(0), contextlib.redirect_stdout(io.StringIO()):
        assert calibkit.cli.run_cli(workload.call(1, 0, "out")[1]) == 0
    monkeypatch.chdir(cwd)
    values, absent = spans.summary(workload.rows)
    assert "reporting.comparison_table.calls" in absent
    assert "reporting.comparison_table.self_s" in absent
    assert values["reporting.comparison_table.calls"] == 0.0
    assert values["data.load_predictions.calls"] == 1
    assert values["metrics.PredictionRecord.from_probs.calls"] == 200
    assert set(values) == set(tracer.metric_units()) - {"trace.overhead_frac"}


TINY = {
    "exp3_default": dict(per_class=25, epochs=2, pool=2, reference=1),
    "eval_200k": dict(rows_n=300),
    "train_wide": dict(per_class=40, dim=6, hidden_dim=5, batch_size=64, epochs=2,
                       pool=2, reference=1),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_prints_a_correct_result(name, trace):
    tiny = {name: dataclasses.replace(WORKLOADS[name], **TINY[name])}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                         "--trace", str(trace)], workloads=tiny)
    assert code == 0
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (2 * trace or len(tiny[name].pool_seeds(3)))
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:  # tiny models may score 0, so quality metrics are left out here
        assert all(result["metrics"][k]["value"] > 0 for k in expected
                   if not k.startswith("test_"))


def test_compare_lists_every_metric(tmp_path):
    before = {"metrics": {"a.calls": {"value": 2, "unit": "count"},
                          "a.self_s": {"value": 1.0, "unit": "s"}}}
    after = {"metrics": {"a.calls": {"value": 1, "unit": "count"},
                         "b.self_s": {"value": 0.5, "unit": "s"}}}
    (tmp_path / "before.json").write_text(json.dumps(before))
    (tmp_path / "after.txt").write_text("perfbench header line\n" + json.dumps(after))
    lines = compare.compare(compare.load_metrics(tmp_path / "before.json"),
                            compare.load_metrics(tmp_path / "after.txt"))
    assert [line.split()[0] for line in lines[1:]] == ["a.calls", "a.self_s", "b.self_s"]
    assert "-50.0%" in lines[1]


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exp3_default",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

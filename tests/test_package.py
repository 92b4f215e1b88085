"""The package's lazy export table and the CLI entries' one-thread OpenBLAS.

``import calibkit`` resolves its names on first use, so a program entry can
set ``OPENBLAS_NUM_THREADS`` before anything imports numpy. Fresh
interpreters check both, because this one has long since loaded numpy.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import calibkit
from calibkit.cli import run_cli

# calibkit.__all__ at the change that made the package lazy.
PUBLIC = [
    "__version__", "ClassificationReport", "Dataset", "DomainError", "EpochStats",
    "IndicatorVariant", "LabelRangeError", "LogFormat", "LossConfig", "LossValue",
    "MalformedRowError", "MissingLogError", "ModelParams", "PredictionLogError",
    "Predictions", "ProbabilitySumError", "ReliabilityTable", "SplitSpec", "TrainConfig",
    "TrainReport", "TrainingMode", "auto_gamma", "backward", "build_reliability_table",
    "classification_report", "comparison_table", "curriculum_weight", "ece", "evaluate",
    "forward", "gen_synthetic", "init_model", "load_predictions", "render_reliability_svg",
    "save_predictions", "soft_ece", "soft_ece_grad", "soft_indicator", "softmax", "split",
    "train", "train_arms", "weighted_loss",
]
SUBMODULES = ["data", "errors", "kernels", "losses", "metrics", "reporting", "training", "_bulk"]

# The source tree this process imported calibkit from.
SRC = str(Path(calibkit.__file__).resolve().parents[1])


def python(code, *args, env=None):
    """Run ``code`` in a fresh interpreter that imports calibkit from SRC;
    return its stdout's last line."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": SRC}
    env = {key: value for key, value in env.items() if value is not None}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.splitlines()[-1]


def test_import_loads_no_numpy_and_no_submodule():
    loaded = python("import sys, calibkit, json; print(json.dumps(sorted("
                    "m for m in sys.modules if m == 'numpy' or m.startswith('calibkit.'))))")
    assert json.loads(loaded) == []


def test_submodules_and_names_resolve_on_first_use():
    code = ("import calibkit, json; subs = json.loads(%r); "
            "print(json.dumps([getattr(calibkit, s).__name__ for s in subs] "
            "+ [calibkit.ece.__module__]))" % json.dumps(SUBMODULES))
    assert json.loads(python(code)) == [f"calibkit.{s}" for s in SUBMODULES] + ["calibkit.metrics"]


def test_every_public_name_resolves_to_its_submodules_object():
    assert sorted(calibkit.__all__) == sorted(PUBLIC)
    for name in PUBLIC[1:]:
        value = getattr(calibkit, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    for name in SUBMODULES:
        assert getattr(calibkit, name) is importlib.import_module(f"calibkit.{name}")


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from calibkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
    assert set(PUBLIC) <= set(dir(calibkit))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'calibkit' has no attribute 'nope'"):
        calibkit.nope
    assert not hasattr(calibkit, "BinStats")  # deleted before the table existed


ENTRY = """
import os, sys
log = sys.argv[1]
sys.argv = ["calibkit", "eval", "--predictions", log, "--bins", "2"]
try:
    {call}
except SystemExit as exc:
    code = exc.code
from calibkit.training import _openblas_threads
threads = _openblas_threads()
print(code, os.environ.get("OPENBLAS_NUM_THREADS"), threads and threads[0]())
"""
ENTRIES = {
    "python-m": "import runpy; runpy.run_module('calibkit.cli', run_name='__main__')",
    "console-script": "import calibkit; calibkit._main()",
}


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.parametrize("preset, threads", [(None, 1), ("2", min(2, _cpus()))],
                         ids=["unset", "preset-2"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_cli_entries_start_openblas_on_one_thread_unless_the_user_set_it(
        tmp_path, entry, preset, threads):
    log = tmp_path / "p.jsonl"
    log.write_text('{"probs": [0.9, 0.1], "label": 0}\n{"probs": [0.2, 0.8], "label": 1}\n')
    code, setting, read = python(ENTRY.format(call=ENTRIES[entry]), str(log),
                                 env={"OPENBLAS_NUM_THREADS": preset}).split()
    if read == "None":
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert (code, setting, int(read)) == ("0", preset or "1", threads)


def test_in_process_run_cli_leaves_the_environment_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    log = tmp_path / "p.jsonl"
    log.write_text('{"probs": [0.9, 0.1], "label": 0}\n')
    before = dict(os.environ)
    assert run_cli(["eval", "--predictions", str(log)]) == 0
    assert dict(os.environ) == before

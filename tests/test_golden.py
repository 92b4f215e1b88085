"""Cross-commit byte identity: the CLI's artifacts pinned by sha256.

The digests hold for one numpy build and one BLAS; elsewhere the float
results may legitimately differ in the last bit, so the tests skip and
name the platform they found. They change only in a change whose notes
say that its artifacts change, and why.
"""

import hashlib
import subprocess
from unittest import mock

import numpy as np
import pytest

from calibkit import _bulk
from calibkit.cli import run_cli


def _platform():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, blas.get("name"), blas.get("version")


PINNED_PLATFORM = ("2.4.6", "scipy-openblas", "0.3.31.188.0")

EXPERIMENT_DIGESTS = {
    "comparison.md": "1779f87ea84afe4037891af8fa867f523e90748bc5fcb92ea56d288a398cfdcb",
    "run.json": "a6bb5c6ecd83b61bd950be533fbc31b1b1da4d2f991869a1154220669ee30619",
    "vanilla/predictions.jsonl": "30ad993a5d688085f6949b4a10555bef4b9be697464560c1e0214d345f5dbcb4",
    "vanilla/reliability.svg": "c61242034133f30944e566cd07965586080e1c2a94a083d4ec3edf04b11061c8",
    "vanilla/report.json": "625258becbdc14dacca50c5fb4618c75885a38c53c5a81f985b277fc314df326",
    "vanilla/run.json": "e094a74d571af4a646668acabde989199183a7016f124e49005c7594533df87d",
    "curriculum/predictions.jsonl": "74ea650f0ead44f142e12de00f5719cee07355b5afd05454e3e9d3c30119f940",
    "curriculum/reliability.svg": "e7d566e137087910a4b68cc6479963400e369c72e5c21854138606dddfd0c3b1",
    "curriculum/report.json": "d426e4d3934e10847dc2581ee6d6d9976486eac63fe9636e2f1cb256a189caa6",
    "curriculum/run.json": "d4e1aad3889178ef2751370c1ca463b017732891fe45d62135ee6a1283382d20",
    "fixed/predictions.jsonl": "50ecfd1222efa112d19dc2f0feb9ffb57455b38b54d4777219700f9579ec465c",
    "fixed/reliability.svg": "91123ce8a5fdd55033b0d3c2bdfa9eb212fdace4ea13a6bf1302d17f02bebd25",
    "fixed/report.json": "11259d440ef95761539a8dc547e7661f02afd73332769d4d9530d48eec724e1f",
    "fixed/run.json": "1ca55adb790c583b6305c64262ebd941d787baab19b0ee6a4b8b6c3e228a648a",
}

# The benchmark's train_wide arguments at a fifth of the rows and 3 epochs:
# 5 000 training rows walk batches of 2048, 2048 and a short 904.
WIDE_ARGS = ["train", "--mode", "curriculum", "--classes", "10", "--per-class", "1000",
             "--dim", "32", "--hidden-dim", "64", "--batch-size", "2048",
             "--epochs", "3", "--lr", "0.5", "--gamma", "2",
             "--split", "0.5,0.1,0.4", "--seed", "1"]

WIDE_DIGESTS = {
    "predictions.jsonl": "2bf855a1ec67430b859f6eb217fa6d897916b391d87299fd69d936cd11e507c2",
    "reliability.svg": "d1dbe6160d32429f03f3a79b80a64a554c6945e75fbb21ce3cfae583bbce6347",
    "report.json": "c3d4ae36c6db5f145271d0c3c69c474495081822757706b1692373ad2e661afd",
    "run.json": "8a04e2c5c030060d5d379bb89c4d9ce86c8bfd2447d42dc7607857d4a612a103",
}

# eval --diagram and diagram on the 5 000-row log that write_log makes;
# "stdout" is the digest of what the command prints.
LOG_DIGESTS = {
    "eval": {
        "reliability.run.json": "d1eaadd99eb5cfbd4e67aa7a7a0f1f27b0d424927836a541e13d815dbb4d464d",
        "reliability.svg": "1f5d779de066d9971709ad8eff03185e8249d4cbe474925133b14f2cc89f79bf",
        "stdout": "0ebbf94138a0f194761a3f686549d102c68f3e957c4997e916259f5d8ab5a3bb",
    },
    "diagram": {
        "reliability.run.json": "aeac4bb1a56342dcf66e84f8ea290cfff2f205fb065510f3b947c913d05133e5",
        "reliability.svg": "1f5d779de066d9971709ad8eff03185e8249d4cbe474925133b14f2cc89f79bf",
        "stdout": "ffa1d41a41ffe82c944451692515b0ca384a27ec0020e160cfb3f364e6a98362",
    },
}

LOG_COMMANDS = {
    "eval": ["eval", "--predictions", "predictions.jsonl", "--bins", "15",
             "--diagram", "out/reliability.svg"],
    "diagram": ["diagram", "--predictions", "predictions.jsonl", "--bins", "15",
                "--out", "out/reliability.svg"],
}

pytestmark = pytest.mark.skipif(
    _platform() != PINNED_PLATFORM,
    reason=f"digests pinned on numpy/BLAS {PINNED_PLATFORM}, found {_platform()}",
)


def _digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("args, expected", [
    (["experiment", "--seed", "0"], EXPERIMENT_DIGESTS),
    (WIDE_ARGS, WIDE_DIGESTS),
], ids=["experiment-seed0", "train-wide-reduced"])
def test_artifacts_match_pinned_digests(tmp_path, capsys, args, expected):
    out = tmp_path / "out"
    assert run_cli([*args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digests(out) == expected


def write_log(path, swap_keys):
    """A seeded 5 000 x 10 log of overconfident softmax rows, each number
    written with repr. Canonical (as save_predictions writes it) unless
    ``swap_keys`` puts "label" before "probs" on every line."""
    rng = np.random.default_rng(7)
    n, k = 5000, 10
    labels = rng.integers(0, k, n)
    logits = rng.standard_normal((n, k))
    logits[np.arange(n), labels] += 1.5
    z = 2.0 * logits
    e = np.exp(z - z.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for row, y in zip(probs.tolist(), labels.tolist()):
            numbers = ", ".join(map(repr, row))
            if swap_keys:
                fh.write(f'{{"label": {y}, "probs": [{numbers}]}}\n')
            else:
                fh.write(f'{{"probs": [{numbers}], "label": {y}}}\n')


@pytest.mark.parametrize("swap_keys", [False, True], ids=["canonical", "keys-swapped"])
@pytest.mark.parametrize("command", sorted(LOG_COMMANDS))
def test_log_artifacts_match_pinned_digests(tmp_path, monkeypatch, capsys,
                                            command, swap_keys):
    """The bulk route (canonical log) and the per-line route (keys swapped)
    give the same bytes."""
    monkeypatch.chdir(tmp_path)  # the manifest records the log's path as given
    write_log(tmp_path / "predictions.jsonl", swap_keys)
    assert run_cli(LOG_COMMANDS[command]) == 0
    got = _digests(tmp_path / "out")
    got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == LOG_DIGESTS[command]


@pytest.mark.parametrize("swap_keys", [False, True], ids=["canonical", "keys-swapped"])
@pytest.mark.parametrize("command", sorted(LOG_COMMANDS))
def test_split_log_artifacts_match_pinned_digests(tmp_path, monkeypatch, capsys,
                                                  command, swap_keys):
    """A helper process parses the log's tail (canonical log), or is killed
    when the head is not canonical (keys swapped); the bytes stay the same."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(_bulk, "SPLIT_BYTES", 0)
    monkeypatch.setattr(_bulk, "cpus", lambda: 2)
    write_log(tmp_path / "predictions.jsonl", swap_keys)
    with mock.patch.object(subprocess, "Popen", wraps=subprocess.Popen) as popen:
        assert run_cli(LOG_COMMANDS[command]) == 0
    assert popen.call_count == 1
    got = _digests(tmp_path / "out")
    got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == LOG_DIGESTS[command]

"""The benchmark's workloads: the calibkit CLI calls they make, the inputs
they generate from the seed, and the checks each call must pass.

Every path handed to the CLI is relative to the run's work directory, so
the artifacts (and their manifests) do not depend on where the checkout
lives and their sha256 digests compare across machines.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# Right-closed equal-width bins used for every reported ECE.
EVAL_BINS = 15
# report.json ECE against the oracle on predictions.jsonl.
ECE_TOLERANCE = 1e-12


@dataclass
class Outcome:
    """What the checks of one CLI call found."""

    problems: list[str]
    sha256: str = ""
    ece: float = math.nan
    accuracy: float = math.nan


def artifact_digest(out_dir: Path) -> str:
    """sha256 over the relative names and contents of every file in a tree."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _svg_problems(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: not parseable XML ({exc})"]
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag}, not svg"]
    return []


def split_sizes(n: int, ratios: tuple[float, float, float]) -> list[int]:
    """Largest-remainder split sizes, the rule calibkit documents for split()."""
    exact = [n * r for r in ratios]
    sizes = [math.floor(e) for e in exact]
    order = sorted(range(3), key=lambda i: -(exact[i] - sizes[i]))
    for i in order[: n - sum(sizes)]:
        sizes[i] += 1
    return sizes


@dataclass(frozen=True)
class TrainingWorkload:
    """``calibkit train`` or ``calibkit experiment`` on synthetic data.

    Call ``i`` uses CLI seed ``pool_seeds(seed)[i % pool]``, and every run
    makes at least ``pool`` calls. The first ``reference`` pool seeds are
    fixed (0, 1, ...); the rest come from the run seed. Quality metrics
    average over the fixed seeds only: one seed's test ECE varies by about
    30% with the seed, so over run seeds the metric would spread more than
    its bound, while over fixed seeds it changes only when training does.
    """

    name: str
    why: str
    command: str                 # "train" or "experiment"
    arms: tuple[str, ...]        # arm directories; "" is the --out dir itself
    quality_arm: str
    classes: int
    per_class: int
    dim: int
    hidden_dim: int
    batch_size: int
    epochs: int
    split: tuple[float, float, float]
    extra: tuple[str, ...] = ()  # further CLI flags, e.g. --lr, --gamma
    pool: int = 2
    reference: int = 1

    @property
    def sizes(self) -> dict:
        n_train, n_val, n_test = split_sizes(self.classes * self.per_class, self.split)
        return {"classes": self.classes, "per_class": self.per_class, "dim": self.dim,
                "hidden_dim": self.hidden_dim, "batch_size": self.batch_size,
                "epochs": self.epochs, "n_train": n_train, "n_val": n_val,
                "n_test": n_test, "arms": len(self.arms), "seed_pool": self.pool,
                "reference_seeds": self.reference}

    @property
    def auto_gamma(self) -> bool:
        return "--gamma" not in self.extra

    @property
    def work(self) -> tuple[int, str]:
        """SGD sample-steps the CLI is asked for, counting the auto-gamma warm pass."""
        s = self.sizes
        epochs = len(self.arms) * self.epochs + (1 if self.auto_gamma else 0)
        return s["n_train"] * epochs, "sample-steps"

    @property
    def rows(self) -> dict:
        """Row counts the traced layer metrics divide by."""
        s = self.sizes
        return {"loaded": 0, "saved": len(self.arms) * s["n_test"],
                "scored": len(self.arms) * (s["n_val"] + s["n_test"])}

    def prepare(self, seed: int, workdir: Path) -> None:
        """Nothing to write: the CLI generates its own data from the seed."""

    def quality_seeds(self, seed: int) -> list[int]:
        return list(range(self.reference))

    def pool_seeds(self, seed: int) -> list[int]:
        # Run seeds map to 1000 and up, so they never repeat a fixed seed.
        return self.quality_seeds(seed) + [
            (seed + 1) * 1000 + j for j in range(self.pool - self.reference)]

    def call(self, seed: int, i: int, out: str) -> tuple[int, list[str]]:
        cli_seed = self.pool_seeds(seed)[i % self.pool]
        argv = [self.command,
                "--classes", str(self.classes), "--per-class", str(self.per_class),
                "--dim", str(self.dim), "--hidden-dim", str(self.hidden_dim),
                "--batch-size", str(self.batch_size), "--epochs", str(self.epochs),
                "--split", ",".join(repr(r) for r in self.split),
                *self.extra, "--seed", str(cli_seed), "--out", out]
        return cli_seed, argv

    def check(self, workdir: Path, out: str, stdout: str, expected: None) -> Outcome:
        out_dir = workdir / out
        problems: list[str] = []
        outcome = Outcome(problems)
        n_test = self.sizes["n_test"]
        for arm in self.arms:
            arm_dir = out_dir / arm
            tag = arm or self.command
            try:
                report = json.loads((arm_dir / "report.json").read_text(encoding="utf-8"))
                probs, labels = oracle.read_jsonl_log(arm_dir / "predictions.jsonl")
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{tag}: unreadable artifacts ({exc})")
                continue
            if probs.shape != (n_test, self.classes):
                problems.append(f"{tag}: predictions shape {probs.shape}, "
                                f"expected {(n_test, self.classes)}")
                continue
            accuracy, ece = oracle.calibration(probs, labels, EVAL_BINS)
            test = report.get("test", {})
            if not abs(test.get("ece", math.inf) - ece) <= ECE_TOLERANCE:
                problems.append(f"{tag}: report test.ece {test.get('ece')} != oracle {ece}")
            if not abs(test.get("accuracy", math.inf) - accuracy) <= ECE_TOLERANCE:
                problems.append(f"{tag}: report test.accuracy {test.get('accuracy')} "
                                f"!= oracle {accuracy}")
            problems += _svg_problems(arm_dir / "reliability.svg")
            if arm == self.quality_arm:
                outcome.ece, outcome.accuracy = ece, accuracy
        if self.command == "experiment" and not (out_dir / "comparison.md").is_file():
            problems.append("experiment: comparison.md missing")
        if out_dir.is_dir():
            outcome.sha256 = artifact_digest(out_dir)
        return outcome


_EVAL_LINE = re.compile(r"^(n|accuracy|ece \(M = \d+\)): (\S+)$", re.MULTILINE)


@dataclass(frozen=True)
class EvalWorkload:
    """``calibkit eval`` on a prediction log the benchmark writes itself.

    The log is written here, not with calibkit's ``save_predictions``, so a
    change to calibkit's writer cannot change this input. Logits get a
    boost of 1.5 on the true class and are scaled by 2, which makes the
    probabilities overconfident and the ECE clearly non-zero.
    """

    name: str
    why: str
    rows_n: int
    classes: int
    log_name = "predictions.jsonl"

    @property
    def sizes(self) -> dict:
        return {"rows": self.rows_n, "classes": self.classes, "bins": EVAL_BINS}

    @property
    def work(self) -> tuple[int, str]:
        return self.rows_n, "log-rows"

    @property
    def rows(self) -> dict:
        return {"loaded": self.rows_n, "saved": 0, "scored": self.rows_n}

    def make_log(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, self.classes, self.rows_n)
        logits = rng.standard_normal((self.rows_n, self.classes))
        logits[np.arange(self.rows_n), labels] += 1.5
        z = 2.0 * logits
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True), labels

    def prepare(self, seed: int, workdir: Path) -> tuple[float, float]:
        """Write the log; return its oracle (accuracy, ECE)."""
        probs, labels = self.make_log(seed)
        lines = [f'{{"probs": [{", ".join(map(repr, row))}], "label": {y}}}\n'
                 for row, y in zip(probs.tolist(), labels.tolist())]
        (workdir / self.log_name).write_text("".join(lines), encoding="utf-8", newline="\n")
        return oracle.calibration(probs, labels, EVAL_BINS)

    def quality_seeds(self, seed: int) -> list[int]:
        return [seed]

    def pool_seeds(self, seed: int) -> list[int]:
        return [seed]

    def call(self, seed: int, i: int, out: str) -> tuple[int, list[str]]:
        return seed, ["eval", "--predictions", self.log_name, "--bins", str(EVAL_BINS),
                      "--diagram", f"{out}/reliability.svg"]

    def check(self, workdir: Path, out: str, stdout: str,
              expected: tuple[float, float]) -> Outcome:
        problems: list[str] = []
        outcome = Outcome(problems)
        printed = dict(_EVAL_LINE.findall(stdout))
        try:
            n = int(printed["n"])
            outcome.accuracy = float(printed["accuracy"])
            outcome.ece = float(printed[f"ece (M = {EVAL_BINS})"])
        except (KeyError, ValueError):
            problems.append(f"eval: output lacks n/accuracy/ece lines: {stdout[-300:]!r}")
            return outcome
        accuracy, ece = expected
        if n != self.rows_n:
            problems.append(f"eval: n {n} != {self.rows_n}")
        # The CLI prints accuracy to 4 and ECE to 6 decimals.
        if not abs(outcome.accuracy - accuracy) <= 0.5e-4 + 1e-12:
            problems.append(f"eval: accuracy {outcome.accuracy} != oracle {accuracy:.6f}")
        if not abs(outcome.ece - ece) <= 0.5e-6 + 1e-12:
            problems.append(f"eval: ece {outcome.ece} != oracle {ece:.8f}")
        problems += _svg_problems(workdir / out / "reliability.svg")
        if (workdir / out).is_dir():
            outcome.sha256 = artifact_digest(workdir / out)
        return outcome


WORKLOADS = {
    w.name: w
    for w in (
        TrainingWorkload(
            name="exp3_default",
            why="experiment with all defaults: 3 arms plus the auto-gamma warm pass, "
                "per-call overhead in training/losses/kernels on 32-row batches",
            command="experiment", arms=("vanilla", "curriculum", "fixed"),
            quality_arm="curriculum", classes=4, per_class=500, dim=8, hidden_dim=16,
            batch_size=32, epochs=50, split=(0.7, 0.2, 0.1), pool=12, reference=6,
        ),
        EvalWorkload(
            name="eval_200k",
            why="eval of a 200k-row 10-class JSONL log: log parsing and per-row "
                "records dominate, no training runs",
            rows_n=200_000, classes=10,
        ),
        TrainingWorkload(
            name="train_wide",
            why="one curriculum run on 2048-row batches, so BLAS arithmetic dominates "
                "dispatch, plus a 40k-row predictions.jsonl write",
            command="train", arms=("",), quality_arm="",
            classes=10, per_class=10_000, dim=32, hidden_dim=64, batch_size=2048,
            epochs=20, split=(0.5, 0.1, 0.4),
            extra=("--mode", "curriculum", "--lr", "0.5", "--gamma", "2"),
            pool=5, reference=3,
        ),
    )
}

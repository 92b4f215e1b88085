"""In-process span tracer for calibkit's public functions.

Each target is looked up by (module, name) at install time. A name that
is gone is reported as absent instead of failing, so the tracer survives
API churn, and only public names are touched. A module-level function is
replaced in every ``calibkit`` module that binds the same object, which
times it where the caller looks the name up (``from .kernels import
soft_ece_backward`` makes ``calibkit.losses`` one such place).

Spans (target, start, end, parent span, run id) stay in memory until
:meth:`Tracer.dump`. A function's self time is its span duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    name: str               # "softmax" or "PredictionRecord.from_probs"
    hot: bool = False       # many calls per run: also report latency quantiles
    count_only: bool = False

    @property
    def label(self) -> str:
        return f"{self.layer}.{self.name}"


TARGETS = (
    Target("cli", "calibkit.cli", "run_cli"),
    Target("data", "calibkit.data", "gen_synthetic"),
    Target("data", "calibkit.data", "split"),
    Target("data", "calibkit.data", "load_predictions"),
    Target("metrics", "calibkit.metrics", "records_from_probs"),
    Target("metrics", "calibkit.metrics", "PredictionRecord.from_probs", count_only=True),
    Target("metrics", "calibkit.metrics", "build_reliability_table"),
    Target("metrics", "calibkit.metrics", "classification_report"),
    Target("metrics", "calibkit.metrics", "ece"),
    Target("losses", "calibkit.losses", "softmax", hot=True),
    Target("losses", "calibkit.losses", "nll_loss", hot=True),
    Target("losses", "calibkit.losses", "weighted_loss", hot=True),
    Target("kernels", "calibkit.kernels", "soft_ece_backward", hot=True),
    Target("kernels", "calibkit.kernels", "reliability_sums"),
    Target("training", "calibkit.training", "train"),
    Target("training", "calibkit.training", "forward"),
    Target("training", "calibkit.training", "sgd_step", hot=True),
    Target("training", "calibkit.training", "evaluate"),
    Target("reporting", "calibkit.reporting", "save_predictions"),
    Target("reporting", "calibkit.reporting", "render_reliability_svg"),
    Target("reporting", "calibkit.reporting", "comparison_table"),
)
LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))

# name -> (unit, the targets the value needs)
DERIVED = {
    "data.load_us_per_row": ("us", ("data.load_predictions",)),
    "metrics.records_per_row": ("ratio", ("metrics.PredictionRecord.from_probs",)),
    "training.step.us_p50": ("us", ("training.sgd_step",)),
    "training.step.us_p99": ("us", ("training.sgd_step",)),
    "training.useful_step_frac": ("frac", ("training.train", "training.sgd_step",
                                           "reporting.save_predictions")),
    "reporting.save_us_per_row": ("us", ("reporting.save_predictions",)),
    "trace.overhead_frac": ("frac", ()),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for t in TARGETS:
        units[f"{t.label}.calls"] = "count"
        if not t.count_only:
            units[f"{t.label}.self_s"] = "s"
        if t.hot:
            units[f"{t.label}.us_p50"] = "us"
            units[f"{t.label}.us_p99"] = "us"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({name: unit for name, (unit, _) in DERIVED.items()})
    return units


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


class Tracer:
    """Wraps the targets while installed; records spans and call counts."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list[int]] = []   # [target, start_ns, end_ns, parent, run]
        self.counts: dict[int, list[int]] = {}  # run -> calls per count-only target
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._run = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def installed(self, run: int):
        """Trace calls made inside the block under run id ``run``."""
        self._run = run
        self.counts[run] = [0] * len(self.targets)
        self._install()
        try:
            yield
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()
            self._stack.clear()

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "calibkit" or n.startswith("calibkit.")) and m is not None]
        for idx, target in enumerate(self.targets):
            owner = sys.modules.get(target.module)
            *path, attr = target.name.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            func = getattr(raw, "__func__", raw)
            if not callable(func):
                self.missing.add(target.label)
                continue
            wrapped = self._count(idx, func) if target.count_only else self._span(idx, func)
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(owner, attr, type(raw)(wrapped))
                continue
            # Rebind every module-level name that refers to this function.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._patch(module, key, wrapped)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, idx: int, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [idx, 0, 0, stack[-1] if stack else -1, self._run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, idx: int, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[self._run][idx] += 1
            return func(*args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        """Write targets, spans and counts as one JSON document."""
        path.write_text(json.dumps({
            "targets": [t.label for t in self.targets],
            "span_fields": ["target", "start_ns", "end_ns", "parent", "run"],
            "spans": self.spans,
            "counts": {str(run): c for run, c in self.counts.items()},
            "missing": sorted(self.missing),
        }), encoding="utf-8")

    def summary(self, rows: dict[str, int]) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics per traced run (median over runs) and the names
        that are absent because their function is gone.

        ``rows`` holds the workload's row counts: ``loaded`` (log rows read),
        ``saved`` (prediction rows written) and ``scored`` (rows whose
        predictions the CLI's reports score).
        """
        runs = sorted(self.counts)
        n_targets = len(self.targets)
        label_idx = {t.label: i for i, t in enumerate(self.targets)}
        child_ns = [0] * len(self.spans)
        for target, start, end, parent, run in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = {run: [0] * n_targets for run in runs}
        self_ns = {run: [0] * n_targets for run in runs}
        incl_ns = {run: [0] * n_targets for run in runs}
        durations: list[list[float]] = [[] for _ in range(n_targets)]
        for pos, (target, start, end, parent, run) in enumerate(self.spans):
            calls[run][target] += 1
            self_ns[run][target] += end - start - child_ns[pos]
            incl_ns[run][target] += end - start
            durations[target].append((end - start) / 1e3)
        for run in runs:
            for i, t in enumerate(self.targets):
                if t.count_only:
                    calls[run][i] = self.counts[run][i]

        def per_run(table, i, scale=1.0):
            return statistics.median(table[run][i] * scale for run in runs) if runs else 0.0

        out: dict[str, float] = {}
        for i, t in enumerate(self.targets):
            out[f"{t.label}.calls"] = per_run(calls, i)
            if not t.count_only:
                out[f"{t.label}.self_s"] = per_run(self_ns, i, 1e-9)
            if t.hot:
                out[f"{t.label}.us_p50"] = _quantile(durations[i], 0.50)
                out[f"{t.label}.us_p99"] = _quantile(durations[i], 0.99)
        for layer in LAYERS:
            members = [i for i, t in enumerate(self.targets) if t.layer == layer]
            out[f"{layer}.self_s"] = statistics.median(
                sum(self_ns[run][i] for i in members) * 1e-9 for run in runs) if runs else 0.0

        def per_row(label, key):
            i = label_idx[label]
            return per_run(incl_ns, i, 1e-3) / rows[key] if rows[key] else 0.0

        out["data.load_us_per_row"] = per_row("data.load_predictions", "loaded")
        out["reporting.save_us_per_row"] = per_row("reporting.save_predictions", "saved")
        out["metrics.records_per_row"] = (
            out["metrics.PredictionRecord.from_probs.calls"] / rows["scored"])
        gaps = self._step_gaps(label_idx["training.sgd_step"])
        out["training.step.us_p50"] = _quantile(gaps, 0.50)
        out["training.step.us_p99"] = _quantile(gaps, 0.99)
        out["training.useful_step_frac"] = self._useful_step_frac(
            label_idx["training.train"], label_idx["training.sgd_step"],
            label_idx["reporting.save_predictions"])

        absent = [name for name in metric_units() if self._absent(name)]
        out.update(dict.fromkeys(absent, 0.0))
        return out, absent

    def _absent(self, name: str) -> bool:
        if name in DERIVED:
            return any(label in self.missing for label in DERIVED[name][1])
        base = name.rpartition(".")[0]
        if base in LAYERS:
            return all(t.label in self.missing for t in self.targets if t.layer == base)
        return base in self.missing

    def _step_gaps(self, step: int) -> list[float]:
        """Microseconds between consecutive step returns under one parent span."""
        last_end: dict[int, int] = {}
        gaps = []
        for target, _, end, parent, _ in self.spans:
            if target != step:
                continue
            if parent in last_end:
                gaps.append((end - last_end[parent]) / 1e3)
            last_end[parent] = end
        return gaps

    def _useful_step_frac(self, train: int, step: int, save: int) -> float:
        """Share of steps taken by train calls whose model is written: a
        train span followed by a predictions write before the next train
        span. An auto-gamma warm pass is followed by another train span."""
        steps: dict[int, int] = {}
        useful: set[int] = set()
        current: dict[int, int] = {}   # run -> latest train span
        for pos, (target, start, _, _, run) in enumerate(self.spans):
            latest = current.get(run)
            if target == train:
                current[run] = pos
                steps[pos] = 0
            elif target == step and latest is not None and start < self.spans[latest][2]:
                steps[latest] += 1
            elif target == save and latest is not None:
                useful.add(latest)
        total = sum(steps.values())
        return sum(steps[p] for p in useful) / total if total else 0.0

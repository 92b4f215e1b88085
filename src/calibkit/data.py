"""Synthetic overlapping-cluster datasets, deterministic splits, and
ingestion of external prediction logs.

The prediction-log formats are shared with :mod:`calibkit.reporting`:

* JSONL: one object per line, ``{"probs": [..K floats..], "label": int}``,
  UTF-8, LF endings.
* CSV: header ``p0,...,p{K-1},label``, decimal-point floats.

A log loads into one :class:`~calibkit.metrics.Predictions`. Rows are
parsed into flat typed buffers and then checked together; an error names
the first faulty line. Probability rows are renormalized when their sum
strays from 1 by at most 1e-3 and rejected beyond that; predicted class
and confidence are always recomputed from the probabilities.

A JSONL log takes one of two routes, with bit-identical results:

* The bulk route (:mod:`calibkit._bulk`) reads the file in blocks of
  about 1 MiB, each cut at a line end. It takes a log only if every line
  is a canonical row, exactly as ``save_predictions`` and ``json.dumps``
  write it: ``{"probs": [N, ..., N], "label": L}`` with K non-negative
  JSON numbers and a LF ending. The punctuation is then cut out and all
  numbers of a block parse in one C call, correctly rounded like
  ``float``, into a (rows, K+1) float64 array, the label last. This
  route exists for speed: a ``json.loads`` per row, with its dict, list
  and Python floats, costs about three times as much as parsing the
  decimals. A log of at least 32 MiB on two or more CPUs has its tail
  read by a helper process; see :mod:`calibkit._bulk`.
* The per-line route (:func:`_load_rows`) parses each line with
  ``json.loads`` and reads any JSON the format allows. It reads the
  whole log, from line 1, when any line is not canonical (other spacing
  or key order, CRLF, non-ASCII, a blank line, a ``-``), or has a number
  that overflows a float or a label >= K, so those errors are its own.
  Any other fault of a canonical log (a negative number cannot occur) is
  a probability sum outside tolerance, which both routes report from the
  same final check on the same arrays, so the bulk route raises it
  itself.

Either way one final check runs over the contiguous (n, K) probabilities
and n labels from line 1, so arrays, errors and line numbers do not
depend on the route; it runs too when a parse fault stops the per-line
route, so that a value fault on an earlier line is reported first. CSV
logs take the per-line route alone.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import _bulk
from .errors import (
    DomainError,
    LabelRangeError,
    MalformedRowError,
    MissingLogError,
    PredictionLogError,
    ProbabilitySumError,
)
from .errors import _class_labels, _count, _float_array, _real
from .metrics import Predictions

# Cluster centers sit at simplex vertices scaled by this factor; together
# with the per-class standard deviation it sets the attainable accuracy.
CLUSTER_SPREAD = 2.0


@dataclass(frozen=True, eq=False)
class Dataset:
    """Non-empty (n, dim) features, one label per row, and K >= 2 classes,
    held by the rules of :mod:`calibkit.errors`: finite float64 features,
    int64 labels in [0, K) and an int K."""

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _count(self.k, "k", 2))
        object.__setattr__(self, "features", _float_array(self.features, "features", (1, 1)))
        object.__setattr__(self, "labels", _class_labels(self.labels, self.n, self.k))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test ratios (must sum to 1) plus the shuffle seed."""

    ratios: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        if not isinstance(self.ratios, (tuple, list, np.ndarray)) or len(self.ratios) != 3:
            raise DomainError(f"ratios must be three numbers, got {self.ratios!r}", field="ratios")
        object.__setattr__(self, "ratios", tuple(_real(r, "ratios", True) for r in self.ratios))
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise DomainError(f"ratios must sum to 1 within 1e-9, got {sum(self.ratios)}",
                              field="ratios")
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))


def gen_synthetic(k: int, n_per_class: int, dim: int, overlap: float, seed: int) -> Dataset:
    """K isotropic Gaussian clusters with per-class standard deviation
    ``overlap``; larger overlap lowers the attainable accuracy.

    Cluster means sit on the scaled standard simplex (one axis per class)
    when ``dim >= k``; with fewer dimensions than classes they fall back
    to seeded random directions of the same norm. Fully deterministic in
    ``seed``.
    """
    k = _count(k, "k", 2)
    n_per_class = _count(n_per_class, "n_per_class", 1)
    dim = _count(dim, "dim", 2)
    overlap = _real(overlap, "overlap")
    rng = np.random.default_rng(_count(seed, "seed", 0))
    means = np.zeros((k, dim))
    if dim >= k:
        means[np.arange(k), np.arange(k)] = CLUSTER_SPREAD
    else:
        directions = rng.standard_normal((k, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        means = CLUSTER_SPREAD * directions
    features = np.empty((k * n_per_class, dim))
    labels = np.repeat(np.arange(k, dtype=np.int64), n_per_class)
    with np.errstate(over="ignore"):
        for c in range(k):
            block = slice(c * n_per_class, (c + 1) * n_per_class)
            features[block] = means[c] + overlap * rng.standard_normal((n_per_class, dim))
    if not np.isfinite(features).all():
        raise DomainError(f"overlap {overlap!r} is too large: the features overflow",
                          field="overlap")
    return Dataset(features=features, labels=labels, k=k)


def _largest_remainder_sizes(n: int, ratios: tuple[float, float, float]) -> list[int]:
    exact = [n * r for r in ratios]
    base = [math.floor(e) for e in exact]
    fracs = np.array([e - b for e, b in zip(exact, base)])
    for idx in np.argsort(-fracs, kind="stable")[: n - sum(base)]:
        base[idx] += 1
    return base


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle followed by a contiguous three-way cut.

    Split sizes come from largest-remainder rounding of the ratios, so
    they always sum to n exactly; every sample lands in exactly one split.
    """
    sizes = _largest_remainder_sizes(dataset.n, spec.ratios)
    if any(s < 1 for s in sizes):
        raise DomainError(
            f"ratios {spec.ratios} leave an empty split for n={dataset.n} (sizes {sizes})",
            field="ratios")
    order = np.random.default_rng(spec.seed).permutation(dataset.n)
    parts = []
    start = 0
    for size in sizes:
        idx = order[start:start + size]
        parts.append(Dataset(dataset.features[idx], dataset.labels[idx], dataset.k))
        start += size
    return tuple(parts)


class LogFormat(Enum):
    JSONL = "jsonl"
    CSV = "csv"

    @classmethod
    def from_name(cls, name: str) -> "LogFormat":
        try:
            return cls(name.lower())
        except ValueError:
            raise DomainError(f"unknown prediction log format {name!r}") from None


def _utf8_lines(fh):
    """Lines of a file opened with errors="surrogateescape": a non-UTF-8
    byte decodes to a lone surrogate, which fails to re-encode."""
    for line_no, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedRowError("not valid UTF-8", line_no) from None
        yield line


def _iter_jsonl_rows(path: Path):
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(_utf8_lines(fh), start=1):
            if not raw.strip():
                raise MalformedRowError("blank line", line_no)
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise MalformedRowError(f"invalid JSON ({exc.msg})", line_no) from None
            except (ValueError, RecursionError) as exc:  # over-long integer, deep nesting
                raise MalformedRowError(f"invalid JSON ({exc})", line_no) from None
            if not isinstance(obj, dict) or "probs" not in obj or "label" not in obj:
                raise MalformedRowError('expected {"probs": [...], "label": int}', line_no)
            probs, label = obj["probs"], obj["label"]
            if not isinstance(probs, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in probs
            ):
                raise MalformedRowError("probs must be a list of numbers", line_no)
            if not isinstance(label, int) or isinstance(label, bool):
                raise MalformedRowError("label must be an integer", line_no)
            try:
                probs = [float(x) for x in probs]
            except OverflowError:
                raise MalformedRowError("probability too large for a float", line_no) from None
            yield line_no, probs, label


def _iter_csv_rows(path: Path):
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(_utf8_lines(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise PredictionLogError("file contains no prediction rows") from None
        k = len(header) - 1
        if k < 2 or header != [f"p{i}" for i in range(k)] + ["label"]:
            raise MalformedRowError(
                "header must be p0,...,p{K-1},label", 1
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) != k + 1:
                raise MalformedRowError(f"expected {k + 1} columns, got {len(row)}", line_no)
            try:
                probs = [float(x) for x in row[:-1]]
                label = int(row[-1])
            except ValueError:
                raise MalformedRowError("unparseable number", line_no) from None
            yield line_no, probs, label


def _arrays(blocks: list[np.ndarray], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous (n, K) probabilities and n int64 labels from the bulk
    route's blocks, which are emptied, each freed once copied."""
    end = sum(map(len, blocks))
    p, y = np.empty((end, k)), np.empty(end, np.int64)
    while blocks:
        values = blocks.pop()
        p[end - len(values):end], y[end - len(values):end] = values[:, :k], values[:, k]
        end -= len(values)
    return p, y


def _row_arrays(flat: array, labels: list[int], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-line route's (n, K) probabilities, a view of ``flat``, and
    n labels: int64, or Python ints if one is past int64. Such a label is
    outside [0, K), so the final check raises before they go further."""
    p = np.frombuffer(flat).reshape(-1, k)
    try:
        return p, np.array(labels, np.int64)
    except OverflowError:
        return p, np.array(labels, object)


def _checked_arrays(p: np.ndarray, y: np.ndarray,
                    first_line: int) -> tuple[np.ndarray, np.ndarray]:
    """The probs, renormalized in place, and the labels; raises on the
    first faulty row, whose faults are checked in the order non-finite,
    negative, sum, label."""
    k = p.shape[1]
    non_finite = ~np.isfinite(p).all(axis=1)
    negative = (p < 0).any(axis=1)
    with np.errstate(over="ignore"):  # finite entries can sum past the float max
        totals = p.sum(axis=1)
    off_sum = np.abs(totals - 1.0) > 1e-3
    off_label = (y < 0) | (y >= k)
    faulty = non_finite | negative | off_sum | off_label
    if faulty.any():
        row = int(np.argmax(faulty))
        line = first_line + row
        if non_finite[row]:
            raise MalformedRowError("non-finite probability", line)
        if negative[row]:
            raise MalformedRowError("negative probability", line)
        if off_sum[row]:
            raise ProbabilitySumError(
                f"probabilities sum to {float(totals[row]):.6f}, outside 1 +/- 1e-3", line
            )
        raise LabelRangeError(f"label {y[row]} outside [0, {k})", line)
    p /= totals[:, None]
    return p, y


def _load_rows(path: Path, fmt: LogFormat) -> Predictions:
    """The per-line route: any JSONL or CSV log, one parsed line at a time."""
    # One flat typed buffer: a list of per-row lists would take about twice the memory.
    flat, labels = array("d"), []
    k = first_line = None
    parsed = _iter_jsonl_rows(path) if fmt is LogFormat.JSONL else _iter_csv_rows(path)
    try:
        for line_no, probs, label in parsed:
            if k is None:
                if len(probs) < 2:
                    raise MalformedRowError(f"need at least 2 probabilities, got {len(probs)}", line_no)
                k, first_line = len(probs), line_no
            elif len(probs) != k:
                raise MalformedRowError(f"expected {k} probabilities, got {len(probs)}", line_no)
            flat.extend(probs)
            labels.append(label)
    except MalformedRowError:
        if k is not None:
            # A value fault on an earlier line is reported before this one.
            _checked_arrays(*_row_arrays(flat, labels, k), first_line)
        raise
    if k is None:
        raise PredictionLogError("file contains no prediction rows")
    return Predictions(*_checked_arrays(*_row_arrays(flat, labels, k), first_line))


def load_predictions(path, fmt: LogFormat) -> Predictions:
    """Load an external prediction log into validated predictions.

    Raises a distinct error for a missing file, a malformed row, a
    probability sum outside tolerance, or an out-of-range label; row
    errors carry the 1-based line number of the first faulty line.
    A JSONL log takes the bulk route if every line is canonical, and the
    per-line route otherwise (see the module docstring).
    """
    path = Path(path)
    if not path.is_file():
        raise MissingLogError(f"prediction log not found: {path}")
    if fmt is LogFormat.JSONL and (blocks := _bulk.read_log(path)) is not None:
        return Predictions(*_checked_arrays(*_arrays(blocks, blocks[0].shape[1] - 1), 1))
    return _load_rows(path, fmt)

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

* The bulk route reads the file in blocks of about 1 MiB, each cut at a
  line end. A block is taken only if every line in it is a canonical row,
  exactly as ``save_predictions`` and ``json.dumps`` write it:
  ``{"probs": [N, ..., N], "label": L}`` with K non-negative JSON numbers
  and a LF ending. The punctuation is then cut out and all numbers of the
  block parse in one C call, correctly rounded like ``float``. This route
  exists for speed: a ``json.loads`` per row, with its dict, list and
  Python floats, costs about three times as much as parsing the decimals.
* The per-line route (:func:`_load_rows`) parses each line with
  ``json.loads`` and reads any JSON the format allows. A log runs it
  from the start when any line is not canonical (other spacing or key
  order, CRLF, non-ASCII, a blank line, a ``-``), when a number
  overflows a float or when a label is >= K, so those errors are the
  per-line route's. Any other fault of a canonical log (a negative
  number cannot occur) is a probability sum outside tolerance, which
  both routes report from the same final check on the same arrays, so
  the bulk route raises it itself without a second parse.
"""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    LabelRangeError,
    MalformedRowError,
    MissingLogError,
    PredictionLogError,
    ProbabilitySumError,
)
from .metrics import Predictions

# Cluster centers sit at simplex vertices scaled by this factor; together
# with the per-class standard deviation it sets the attainable accuracy.
CLUSTER_SPREAD = 2.0


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (n, dim) with integer labels in [0, K)."""

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DomainError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DomainError("labels must be one class index per feature row")
        if self.n and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise DomainError(f"labels outside [0, {self.k})")

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
        if len(self.ratios) != 3 or not all(math.isfinite(r) and r > 0 for r in self.ratios):
            raise DomainError(f"need three finite positive ratios, got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise DomainError(f"ratios must sum to 1 within 1e-9, got {sum(self.ratios)}")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")


def gen_synthetic(k: int, n_per_class: int, dim: int, overlap: float, seed: int) -> Dataset:
    """K isotropic Gaussian clusters with per-class standard deviation
    ``overlap``; larger overlap lowers the attainable accuracy.

    Cluster means sit on the scaled standard simplex (one axis per class)
    when ``dim >= k``; with fewer dimensions than classes they fall back
    to seeded random directions of the same norm. Fully deterministic in
    ``seed``.
    """
    if k < 2:
        raise DomainError(f"need at least 2 classes, got {k}")
    if n_per_class < 1:
        raise DomainError(f"need at least 1 sample per class, got {n_per_class}")
    if dim < 2:
        raise DomainError(f"need at least 2 feature dimensions, got {dim}")
    if not (math.isfinite(overlap) and overlap >= 0):
        raise DomainError(f"overlap must be finite and non-negative, got {overlap}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
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
        raise DomainError(f"overlap {overlap!r} is too large: the features overflow")
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
            f"ratios {spec.ratios} leave an empty split for n={dataset.n} (sizes {sizes})"
        )
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


def _checked_arrays(flat: array, labels: list[int], k: int,
                    first_line: int) -> tuple[np.ndarray, np.ndarray]:
    """Renormalized probs and labels; raises on the first faulty row, whose
    faults are checked in the order non-finite, negative, sum, label."""
    p = np.frombuffer(flat, dtype=np.float64).reshape(-1, k)
    try:
        y = np.array(labels, dtype=np.int64)
    except OverflowError:  # a label past int64 is out of range anyway
        y = np.array([min(max(v, -1), k) for v in labels], dtype=np.int64)
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
        raise LabelRangeError(f"label {labels[row]} outside [0, {k})", line)
    return p / totals[:, None], y


# The canonical JSONL row is _ROW_HEAD, K numbers joined by ", ", _ROW_MID,
# the label and _ROW_END.
_ROW_HEAD, _ROW_MID, _ROW_END = b'{"probs": [', b'], "label": ', b"}\n"
# A non-negative JSON number. A "-" is never canonical: JSON -0 loads as
# the int 0 (+0.0) while float("-0") is -0.0. No atomic groups or
# possessive quantifiers: re has them only from Python 3.11 on. The grammar
# is unambiguous, so a failed match backtracks only within one token. The
# "|)" branches match faster than "?" groups in Python's re.
_NUMBER = rb"(?:0|[1-9][0-9]*)(?:\.[0-9]+|)(?:[eE][+-]?[0-9]+|)"
_BLOCK_BYTES = 1 << 20


def _canonical_row(k: int) -> re.Pattern:
    """A regex that one canonical K-class row matches in full."""
    return re.compile(re.escape(_ROW_HEAD) + b", ".join([_NUMBER] * k) + re.escape(_ROW_MID)
                      + rb"(?:0|[1-9][0-9]*)" + re.escape(_ROW_END))


def _parse_canonical_block(lines: list[bytes], k: int, pattern: re.Pattern) -> np.ndarray | None:
    """The (rows, K+1) numbers of a block of canonical K-class rows, the
    label last, or None if a line does not match ``pattern``, a number
    overflows or a label is >= K: the per-line route reports those from
    its own row checks.

    A function of its own so that the block's buffers are freed before
    the final check allocates the normalized matrix."""
    if not lines[-1].endswith(b"\n"):  # a final line without its LF
        lines[-1] += b"\n"
    if not all(map(pattern.fullmatch, lines)):
        return None
    text = (b"".join(lines)[len(_ROW_HEAD):-len(_ROW_END)]
            .replace(_ROW_END + _ROW_HEAD, b",").replace(_ROW_MID, b","))
    values = np.fromstring(text, sep=",")
    if values.size != len(lines) * (k + 1):
        return None
    values = values.reshape(-1, k + 1)
    # Checked here, before the int cast that a label past int64 would overflow.
    return values if np.isfinite(values).all() and (values[:, k] < k).all() else None


def _load_canonical_jsonl(path: Path) -> Predictions | None:
    """The bulk route: the predictions of a JSONL log whose rows are all
    canonical, else None. A value fault raises the error that the
    per-line route would raise for it."""
    flat, labels = array("d"), []
    k = None
    with path.open("rb") as fh:
        while lines := fh.readlines(_BLOCK_BYTES):
            if k is None:
                # K-1 commas between the numbers, one before "label"
                k = lines[0].count(b",")
                if k < 2:
                    return None
                pattern = _canonical_row(k)
            values = _parse_canonical_block(lines, k, pattern)
            if values is None:
                return None
            flat.frombytes(values[:, :k].tobytes())
            labels.extend(values[:, k].astype(np.int64).tolist())
    if k is None:
        return None
    # Every row parsed, is finite and has a label below K, so the per-line
    # route would end in this same check on the same arrays.
    return Predictions(*_checked_arrays(flat, labels, k, 1))


def _load_rows(path: Path, fmt: LogFormat) -> Predictions:
    """The per-line route: any JSONL or CSV log, one parsed line at a time."""
    rows = _iter_jsonl_rows(path) if fmt is LogFormat.JSONL else _iter_csv_rows(path)
    # One flat typed buffer: a list of per-row lists would take about twice the memory.
    flat, labels = array("d"), []
    k = first_line = None
    try:
        for line_no, probs, label in rows:
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
            _checked_arrays(flat, labels, k, first_line)
        raise
    if k is None:
        raise PredictionLogError("file contains no prediction rows")
    return Predictions(*_checked_arrays(flat, labels, k, first_line))


def load_predictions(path, fmt: LogFormat) -> Predictions:
    """Load an external prediction log into validated predictions.

    Raises a distinct error for a missing file, a malformed row, a
    probability sum outside tolerance, or an out-of-range label; row
    errors carry the 1-based line number of the first faulty line.
    A JSONL log tries the bulk route first (see the module docstring).
    """
    path = Path(path)
    if not path.is_file():
        raise MissingLogError(f"prediction log not found: {path}")
    if fmt is LogFormat.JSONL:
        preds = _load_canonical_jsonl(path)
        if preds is not None:
            return preds
    return _load_rows(path, fmt)

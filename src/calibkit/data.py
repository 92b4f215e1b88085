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
  about 1 MiB, each cut at a line end. A block is taken only if every
  line in it is a canonical row, exactly as ``save_predictions`` and
  ``json.dumps`` write it: ``{"probs": [N, ..., N], "label": L}`` with K
  non-negative JSON numbers and a LF ending. The punctuation is then cut
  out and all numbers of the block parse in one C call, correctly
  rounded like ``float``. This route exists for speed: a ``json.loads``
  per row, with its dict, list and Python floats, costs about three
  times as much as parsing the decimals.
* The per-line route (:func:`_load_rows`) parses each line with
  ``json.loads`` and reads any JSON the format allows. It takes over at
  the first line of the first block that is not canonical (other
  spacing or key order, CRLF, non-ASCII, a blank line, a ``-``), or
  whose number overflows a float or whose label is >= K, so those errors
  are the per-line route's. It keeps the rows read before that block,
  and a value fault among them is still reported before a later parse
  fault. Any other fault of a canonical log (a negative number cannot
  occur) is a probability sum outside tolerance, which both routes
  report from the same final check on the same arrays, so the bulk
  route raises it itself.

A JSONL log of at least ``_SPLIT_BYTES`` (32 MiB), read by a process that
may run on two or more CPUs, is cut in two at the first line start at or
after its byte midpoint. Before this process parses the head, it starts
one helper interpreter (``python _bulk.py PATH CUT K``, which imports
numpy but not calibkit) that parses the tail with the same block parser
and, once it is done, writes the tail's rows up to its first block that
is not canonical to a pipe: a row count, that block's offset, and the
raw float64 probabilities and int64 labels (no pickle). The head's rows
go first, then the tail's; the per-line route resumes at that block if
there is one, and one final check runs over all rows from line 1, so
arrays, errors and line numbers are those of a single process. A helper
that cannot start, exits non-zero or writes short output leaves the tail
to this process. The helper is waited for on every path, and killed
first unless it has finished, so no process outlives
:func:`load_predictions`. CSV logs, smaller logs and single-CPU runs use
this process alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import _bulk
from ._bulk import BLOCK_BYTES as _BLOCK_BYTES
from ._bulk import canonical_row as _canonical_row
from .errors import (
    DomainError,
    LabelRangeError,
    MalformedRowError,
    MissingLogError,
    PredictionLogError,
    ProbabilitySumError,
)
from .metrics import Predictions

if TYPE_CHECKING:
    import subprocess

# Cluster centers sit at simplex vertices scaled by this factor; together
# with the per-class standard deviation it sets the attainable accuracy.
CLUSTER_SPREAD = 2.0
# A JSONL log this long is parsed in two processes: about twice the size
# at which two processes start to beat one on two CPUs.
_SPLIT_BYTES = 32 << 20


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


def _utf8_lines(fh, first_line: int = 1):
    """Lines of a file opened with errors="surrogateescape": a non-UTF-8
    byte decodes to a lone surrogate, which fails to re-encode."""
    for line_no, line in enumerate(fh, start=first_line):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedRowError("not valid UTF-8", line_no) from None
        yield line


def _iter_jsonl_rows(path: Path, offset: int, first_line: int):
    """The rows from byte ``offset``, a line start on line ``first_line``."""
    with path.open("rb") as binary:
        binary.seek(offset)
        fh = io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape")
        for line_no, raw in enumerate(_utf8_lines(fh, first_line), start=first_line):
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


class _Rows:
    """The rows of a log parsed so far: flat float64 probabilities, their
    labels, K and the line of the first row. K is None until a row is in."""

    def __init__(self):
        # One flat typed buffer: a list of per-row lists would take about twice the memory.
        self.flat, self.labels = array("d"), []
        self.k = self.first_line = None

    def add(self, probs, labels: np.ndarray, k: int) -> None:
        """Append canonical JSONL rows: their probabilities as raw float64
        bytes and their int64 labels."""
        if self.k is None:
            self.k, self.first_line = k, 1
        self.flat.frombytes(probs)
        self.labels.extend(labels.tolist())

    def checked(self) -> tuple[np.ndarray, np.ndarray]:
        return _checked_arrays(self.flat, self.labels, self.k, self.first_line)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_point(fh) -> int | None:
    """The byte offset where a helper takes over a log's tail: the first
    line start at or after the midpoint. None when the log is below
    _SPLIT_BYTES, when this process may use only one CPU or does not
    know its interpreter, or when no line starts after the midpoint."""
    size = os.fstat(fh.fileno()).st_size
    if size < _SPLIT_BYTES or _cpus() < 2 or not sys.executable:
        return None
    fh.seek(size // 2 - 1)  # the first line holds K >= 2 commas, so size >= 3
    fh.readline()
    cut = fh.tell()
    fh.seek(0)
    return cut if cut < size else None


def _start_helper(path: Path, cut: int, k: int) -> subprocess.Popen | None:
    """A second interpreter that parses the log from ``cut`` (see
    :mod:`calibkit._bulk`), or None if it cannot start."""
    import subprocess  # here, not at the top: it adds 4 ms to every command's start

    try:
        return subprocess.Popen([sys.executable, _bulk.__file__, os.fspath(path), str(cut), str(k)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL,
                                # The helper makes no BLAS call, and an idle OpenBLAS
                                # worker thread spins for about 0.13 s of CPU.
                                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    except OSError:
        return None


def _helper_rows(helper: subprocess.Popen, k: int):
    """The helper's (probability bytes, labels, offset where the per-line
    route resumes or None), or None when it failed: it exited non-zero
    or its output is short."""
    out, _ = helper.communicate()
    if helper.returncode != 0 or len(out) < 16:
        return None
    n, resume = np.frombuffer(out, np.int64, count=2).tolist()
    if n < 0 or resume < -1 or len(out) != 16 + n * (k + 1) * 8:
        return None
    probs_end = 16 + n * k * 8
    return (memoryview(out)[16:probs_end], np.frombuffer(out, np.int64, offset=probs_end),
            None if resume == -1 else resume)


def _reap(helper: subprocess.Popen) -> None:
    """Kill the helper unless it has been waited for, wait for it and
    close its pipe."""
    helper.kill()
    helper.wait()
    helper.stdout.close()


def _read_blocks(fh, stop: int | None, k: int, pattern, rows: _Rows) -> int | None:
    """Add the canonical rows from the file's position up to ``stop`` (None
    for the end) to ``rows``; the offset of the first block that is not
    canonical, where nothing of it was added, or None."""
    for offset, lines in _bulk.blocks(fh, stop, _BLOCK_BYTES):
        values = _bulk.parse_block(lines, k, pattern)
        if values is None:
            return offset
        rows.add(values[:, :k].tobytes(), values[:, k].astype(np.int64), k)
    return None


def _read_canonical_jsonl(path: Path) -> tuple[_Rows, int | None]:
    """The bulk route: the rows of a JSONL log up to its first block that
    is not canonical, and that block's byte offset, where the per-line
    route resumes (None when every row was read).

    A log of at least _SPLIT_BYTES on two or more CPUs is cut in two
    (see the module docstring); a helper parses the tail while this
    process parses the head, and it never outlives this call."""
    rows = _Rows()
    with path.open("rb") as fh:
        # K-1 commas between the numbers, one before "label"
        k = fh.readline().count(b",")
        if k < 2:
            return rows, 0
        fh.seek(0)
        pattern = _canonical_row(k)
        cut = _split_point(fh)
        if cut is None:
            return rows, _read_blocks(fh, None, k, pattern, rows)
        # Started first, so that it overlaps the head's parse.
        helper = _start_helper(path, cut, k)
        try:
            resume = _read_blocks(fh, cut, k, pattern, rows)
            if resume is not None:
                return rows, resume
            tail = None if helper is None else _helper_rows(helper, k)
            if tail is None:  # no helper, or it failed: parse the tail here
                return rows, _read_blocks(fh, None, k, pattern, rows)
            probs, labels, resume = tail
            rows.add(probs, labels, k)
            return rows, resume
        finally:
            if helper is not None:
                _reap(helper)


def _load_canonical_jsonl(path: Path) -> Predictions | None:
    """The bulk route alone: the predictions of a JSONL log whose rows are
    all canonical, else None. A value fault raises the error that the
    per-line route would raise for it."""
    rows, resume = _read_canonical_jsonl(path)
    return Predictions(*rows.checked()) if resume is None else None


def _load_rows(path: Path, fmt: LogFormat, rows: _Rows | None = None,
               offset: int = 0) -> Predictions:
    """The per-line route: any JSONL or CSV log, one parsed line at a time.
    A JSONL log may resume at byte ``offset``, a line start, after the
    bulk route has read the ``rows`` before it."""
    if rows is None:
        rows = _Rows()
    if fmt is LogFormat.JSONL:
        parsed = _iter_jsonl_rows(path, offset, len(rows.labels) + 1)
    else:
        parsed = _iter_csv_rows(path)
    try:
        for line_no, probs, label in parsed:
            if rows.k is None:
                if len(probs) < 2:
                    raise MalformedRowError(f"need at least 2 probabilities, got {len(probs)}", line_no)
                rows.k, rows.first_line = len(probs), line_no
            elif len(probs) != rows.k:
                raise MalformedRowError(f"expected {rows.k} probabilities, got {len(probs)}", line_no)
            rows.flat.extend(probs)
            rows.labels.append(label)
    except MalformedRowError:
        if rows.k is not None:
            # A value fault on an earlier line is reported before this one.
            rows.checked()
        raise
    if rows.k is None:
        raise PredictionLogError("file contains no prediction rows")
    return Predictions(*rows.checked())


def load_predictions(path, fmt: LogFormat) -> Predictions:
    """Load an external prediction log into validated predictions.

    Raises a distinct error for a missing file, a malformed row, a
    probability sum outside tolerance, or an out-of-range label; row
    errors carry the 1-based line number of the first faulty line.
    A JSONL log takes the bulk route up to its first block that is not
    canonical and the per-line route from there (see the module
    docstring).
    """
    path = Path(path)
    if not path.is_file():
        raise MissingLogError(f"prediction log not found: {path}")
    if fmt is LogFormat.CSV:
        return _load_rows(path, fmt)
    rows, resume = _read_canonical_jsonl(path)
    if resume is None:
        return Predictions(*rows.checked())
    return _load_rows(path, fmt, rows, resume)

"""Synthetic data generation, splitting, and prediction-log parsing."""

import ast
import decimal
import math
import os
import re
import select
import signal
import struct
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibkit import (
    Dataset,
    DomainError,
    LabelRangeError,
    LogFormat,
    MalformedRowError,
    MissingLogError,
    PredictionLogError,
    Predictions,
    ProbabilitySumError,
    SplitSpec,
    gen_synthetic,
    load_predictions,
    save_predictions,
    split,
)
from calibkit import _bulk
from calibkit import data as data_module
from calibkit.data import _load_rows

# The shipped threshold, before any test patches it.
SPLIT_BYTES = _bulk.SPLIT_BYTES

# measured once with the nearest-centroid oracle below (seed 0) and frozen
FROZEN_CENTROID_ACC = 0.654


def nearest_centroid_accuracy(ds):
    cents = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(ds.k)])
    d2 = ((ds.features[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == ds.labels).mean())


class TestGenSynthetic:
    def test_shapes_and_balanced_labels(self):
        ds = gen_synthetic(3, 40, 5, 1.0, 0)
        assert ds.features.shape == (120, 5)
        assert ds.labels.shape == (120,)
        assert ds.k == 3 and ds.n == 120 and ds.dim == 5
        assert all((ds.labels == c).sum() == 40 for c in range(3))

    def test_deterministic_in_seed(self):
        a = gen_synthetic(4, 10, 6, 1.5, 123)
        b = gen_synthetic(4, 10, 6, 1.5, 123)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = gen_synthetic(4, 10, 6, 1.5, 124)
        assert not np.array_equal(a.features, c.features)

    def test_zero_overlap_collapses_to_point_masses(self):
        ds = gen_synthetic(3, 5, 4, 0.0, 7)
        for c in range(3):
            block = ds.features[ds.labels == c]
            assert np.ptp(block, axis=0).max() == 0.0
        assert nearest_centroid_accuracy(ds) == 1.0

    def test_reference_dataset_difficulty_window(self):
        ds = gen_synthetic(4, 500, 8, 1.5, 0)
        acc = nearest_centroid_accuracy(ds)
        assert 0.5 < acc < 0.95
        assert acc == pytest.approx(FROZEN_CENTROID_ACC, abs=1e-12)

    def test_more_classes_than_dims_still_works(self):
        ds = gen_synthetic(6, 20, 3, 0.5, 1)
        assert ds.features.shape == (120, 3)
        # means keep the configured norm even off the simplex
        for c in range(6):
            center = ds.features[ds.labels == c].mean(axis=0)
            assert np.linalg.norm(center) == pytest.approx(2.0, abs=0.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            gen_synthetic(1, 10, 4, 1.0, 0)
        with pytest.raises(DomainError):
            gen_synthetic(3, 0, 4, 1.0, 0)
        with pytest.raises(DomainError):
            gen_synthetic(3, 10, 1, 1.0, 0)
        with pytest.raises(DomainError):
            gen_synthetic(3, 10, 4, -0.5, 0)
        with pytest.raises(DomainError, match="seed"):
            gen_synthetic(3, 10, 4, 1.0, -1)
        with pytest.raises(DomainError, match="overlap"):
            gen_synthetic(3, 10, 4, 1e308, 0)


class TestSplit:
    def test_default_ratio_sizes(self):
        ds = gen_synthetic(2, 50, 4, 1.0, 0)  # n = 100
        tr, va, te = split(ds, SplitSpec((0.7, 0.2, 0.1), 0))
        assert (tr.n, va.n, te.n) == (70, 20, 10)

    def test_alt_ratio_sizes_small_n(self):
        ds = gen_synthetic(2, 5, 4, 1.0, 0)  # n = 10
        tr, va, te = split(ds, SplitSpec((0.2, 0.3, 0.5), 0))
        assert (tr.n, va.n, te.n) == (2, 3, 5)

    def test_partition_is_exact_multiset(self):
        ds = gen_synthetic(3, 33, 4, 1.0, 5)  # n = 99, ragged sizes
        parts = split(ds, SplitSpec((0.7, 0.2, 0.1), 9))
        assert sum(p.n for p in parts) == ds.n
        merged = np.concatenate([p.features for p in parts])
        assert merged.shape == ds.features.shape
        order = np.lexsort(merged.T)
        base = np.lexsort(ds.features.T)
        np.testing.assert_array_equal(merged[order], ds.features[base])

    def test_deterministic_in_seed(self):
        ds = gen_synthetic(2, 30, 4, 1.0, 0)
        a = split(ds, SplitSpec((0.7, 0.2, 0.1), 3))
        b = split(ds, SplitSpec((0.7, 0.2, 0.1), 3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_rejects_bad_specs(self):
        ds = gen_synthetic(2, 10, 4, 1.0, 0)
        with pytest.raises(DomainError):
            SplitSpec((0.5, 0.5, 0.5), 0)
        with pytest.raises(DomainError):
            SplitSpec((0.7, 0.3, 0.0), 0)
        with pytest.raises(DomainError):
            SplitSpec((float("nan"), 0.5, 0.5), 0)
        with pytest.raises(DomainError, match="seed"):
            SplitSpec((0.7, 0.2, 0.1), -1)
        with pytest.raises(DomainError):
            split(gen_synthetic(2, 2, 4, 1.0, 0), SplitSpec((0.9, 0.05, 0.05), 0))


class TestLoadPredictionsJsonl:
    def test_happy_path_recomputes_prediction(self, tmp_path):
        f = tmp_path / "p.jsonl"
        f.write_text('{"probs": [0.7, 0.3], "label": 0}\n'
                     '{"probs": [0.2, 0.8], "label": 0}\n')
        recs = load_predictions(f, LogFormat.JSONL)
        assert len(recs.labels) == 2
        assert recs.predicted[0] == 0
        assert recs.confidence[0] == pytest.approx(0.7)
        assert recs.predicted[1] == 1
        assert recs.predicted[1] != recs.labels[1]

    def test_mild_sum_deviation_is_renormalized(self, tmp_path):
        f = tmp_path / "p.jsonl"
        f.write_text('{"probs": [0.5000001, 0.5], "label": 1}\n')
        (row,) = load_predictions(f, LogFormat.JSONL).probs
        assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_sum_out_of_tolerance_names_the_line(self, tmp_path):
        f = tmp_path / "p.jsonl"
        f.write_text('{"probs": [0.5, 0.5], "label": 0}\n'
                     '{"probs": [0.9, 0.9], "label": 0}\n')
        with pytest.raises(ProbabilitySumError, match="line 2"):
            load_predictions(f, LogFormat.JSONL)

    def test_label_out_of_range_names_the_line(self, tmp_path):
        f = tmp_path / "p.jsonl"
        f.write_text('{"probs": [0.5, 0.5], "label": 2}\n')
        with pytest.raises(LabelRangeError, match="line 1"):
            load_predictions(f, LogFormat.JSONL)

    def test_malformed_rows(self, tmp_path):
        cases = [
            "not json at all",
            '{"probs": "nope", "label": 0}',
            '{"probs": [0.5, 0.5]}',
            '{"probs": [0.5, 0.5], "label": 0.5}',
            '{"probs": [0.6, 0.4, 0.0], "label": 0}\n{"probs": [0.5, 0.5], "label": 0}',
            "[" * 100_000,
        ]
        for body in cases:
            f = tmp_path / "p.jsonl"
            f.write_text(body + "\n")
            with pytest.raises(MalformedRowError):
                load_predictions(f, LogFormat.JSONL)

    def test_overlong_integer_probability_names_the_line(self, tmp_path):
        f = tmp_path / "p.jsonl"
        f.write_text('{"probs": [0.5, 0.5], "label": 0}\n'
                     '{"probs": [1%s, 0], "label": 0}\n' % ("0" * 400))
        with pytest.raises(MalformedRowError, match="line 2"):
            load_predictions(f, LogFormat.JSONL)

    def test_integer_past_the_digit_limit_names_the_line(self, tmp_path):
        f = tmp_path / "p.jsonl"
        f.write_text('{"probs": [0.5, 0.5], "label": 0}\n'
                     '{"probs": [1%s, 0], "label": 0}\n' % ("0" * 5000))
        with pytest.raises(MalformedRowError, match="line 2"):
            load_predictions(f, LogFormat.JSONL)

    @pytest.mark.parametrize("fmt, body, line", [
        (LogFormat.JSONL, b'{"probs": [0.5, 0.5], "label": 0}\n'
                          b'{"probs": [0.5, 0.5], "label": 0, "note": "\xff"}\n', 2),
        (LogFormat.CSV, b"p0,p1,label\n0.5,0.5,0\n0.5,0.5,0\xfe\n", 3),
    ], ids=["jsonl", "csv"])
    def test_non_utf8_bytes_name_the_line(self, tmp_path, fmt, body, line):
        f = tmp_path / "p.log"
        f.write_bytes(body)
        with pytest.raises(MalformedRowError, match=f"line {line}: not valid UTF-8"):
            load_predictions(f, fmt)

    @pytest.mark.parametrize("probs, error, message", [
        ("[NaN, -0.5, 0.5]", MalformedRowError, "non-finite"),
        ("[-0.5, 0.5, 0.5]", MalformedRowError, "negative"),
        ("[0.5, 0.5, 0.5]", ProbabilitySumError, "sum"),
    ])
    def test_row_faults_are_checked_in_order(self, tmp_path, probs, error, message):
        f = tmp_path / "p.jsonl"
        f.write_text('{"probs": %s, "label": 9}\n' % probs)  # label 9 is out of range too
        with pytest.raises(error, match=message):
            load_predictions(f, LogFormat.JSONL)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingLogError):
            load_predictions(tmp_path / "absent.jsonl", LogFormat.JSONL)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "p.jsonl"
        f.write_text("")
        with pytest.raises(PredictionLogError):
            load_predictions(f, LogFormat.JSONL)

    def test_error_types_are_domain_errors(self):
        assert issubclass(MissingLogError, DomainError)
        assert issubclass(MalformedRowError, DomainError)
        assert issubclass(ProbabilitySumError, DomainError)
        assert issubclass(LabelRangeError, DomainError)


class TestLoadPredictionsCsv:
    def test_happy_path(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("p0,p1,p2,label\n0.6,0.3,0.1,0\n0.1,0.1,0.8,2\n")
        recs = load_predictions(f, LogFormat.CSV)
        assert recs.predicted.tolist() == [0, 2]
        assert all(recs.predicted == recs.labels)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("prob_a,prob_b,label\n0.6,0.4,0\n")
        with pytest.raises(MalformedRowError, match="line 1"):
            load_predictions(f, LogFormat.CSV)

    def test_wrong_column_count_names_the_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("p0,p1,label\n0.6,0.4,0\n0.6,0\n")
        with pytest.raises(MalformedRowError, match="line 3"):
            load_predictions(f, LogFormat.CSV)

    def test_unparseable_number(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("p0,p1,label\nx,0.4,0\n")
        with pytest.raises(MalformedRowError, match="line 2"):
            load_predictions(f, LogFormat.CSV)


def test_dataset_validation():
    with pytest.raises(DomainError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(DomainError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)


def test_format_names():
    assert LogFormat.from_name("JSONL") is LogFormat.JSONL
    assert LogFormat.from_name("csv") is LogFormat.CSV
    with pytest.raises(DomainError):
        LogFormat.from_name("xml")


GOOD_ROW = {LogFormat.JSONL: b'{"probs": [0.25, 0.25, 0.5], "label": 1}',
            LogFormat.CSV: b"0.25,0.25,0.5,1"}
HEADER = {LogFormat.JSONL: [], LogFormat.CSV: [b"p0,p1,p2,label"]}
# One faulty row per kind, with the error class it must raise.
FAULTS = {
    LogFormat.JSONL: {
        "invalid JSON": (b'{"probs": [0.25, 0.25, 0.5], "label": 1', MalformedRowError),
        "blank": (b"", MalformedRowError),
        "one probability": (b'{"probs": [1.0], "label": 0}', MalformedRowError),
        "400-digit integer": (b'{"probs": [1%s, 0, 0], "label": 1}' % (b"0" * 400),
                              MalformedRowError),
        "not UTF-8": (b'{"probs": [0.25, 0.25, 0.5], "label": 1, "x": "\xff"}',
                      MalformedRowError),
        "non-finite": (b'{"probs": [NaN, 0.5, 0.5], "label": 1}', MalformedRowError),
        "negative": (b'{"probs": [-0.5, 1.0, 0.5], "label": 1}', MalformedRowError),
        "sum": (b'{"probs": [0.5, 0.5, 0.5], "label": 1}', ProbabilitySumError),
        "label": (b'{"probs": [0.25, 0.25, 0.5], "label": 3}', LabelRangeError),
        "label past int64": (b'{"probs": [0.25, 0.25, 0.5], "label": %d}' % 2**70,
                             LabelRangeError),
    },
    LogFormat.CSV: {
        "columns": (b"0.5,0.5,1", MalformedRowError),
        "blank": (b"", MalformedRowError),
        "unparseable": (b"x,0.5,0.5,1", MalformedRowError),
        "not UTF-8": (b"0.25,0.25,0.5,1\xff", MalformedRowError),
        "non-finite": (b"nan,0.5,0.5,1", MalformedRowError),
        "negative": (b"-0.5,1.0,0.5,1", MalformedRowError),
        "sum": (b"0.5,0.5,0.5,1", ProbabilitySumError),
        "label": (b"0.25,0.25,0.5,3", LabelRangeError),
        "label past int64": (b"0.25,0.25,0.5,%d" % 2**70, LabelRangeError),
    },
}


@settings(max_examples=200, deadline=None)
@given(fmt=st.sampled_from(list(LogFormat)), n=st.integers(1, 25), data=st.data())
def test_the_first_faulty_line_is_reported(tmp_path_factory, fmt, n, data):
    """A parse fault on a later line never hides a value fault on an earlier one."""
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    kinds = [data.draw(st.sampled_from(sorted(FAULTS[fmt]))) for _ in rows]
    lines = HEADER[fmt] + [GOOD_ROW[fmt]] * n
    for row, kind in zip(rows, kinds):
        lines[len(HEADER[fmt]) + row] = FAULTS[fmt][kind][0]
    f = tmp_path_factory.mktemp("faults") / "p.log"
    f.write_bytes(b"\n".join(lines) + b"\n")
    first = min(rows)
    expected = FAULTS[fmt][kinds[rows.index(first)]][1]
    with pytest.raises(PredictionLogError) as info:
        load_predictions(f, fmt)
    assert type(info.value) is expected
    assert info.value.line == len(HEADER[fmt]) + first + 1


# -- The JSONL bulk route against the per-line route --------------------------


def canonical_line(tokens, label):
    """One row as save_predictions and json.dumps write it."""
    return b'{"probs": [%s], "label": %s}\n' % (b", ".join(tokens), label)


def outcome(load, path):
    """Byte-exact arrays, or the error's class, message and line."""
    try:
        preds = load(path, LogFormat.JSONL)
    except PredictionLogError as exc:
        return type(exc), str(exc), exc.line
    return preds.probs.tobytes(), preds.labels.tobytes()


def _load_canonical_jsonl(path):
    """The bulk route alone: the predictions of a JSONL log whose rows are
    all canonical, else None."""
    if _bulk.read_log(path) is None:
        return None
    return load_predictions(path, LogFormat.JSONL)


def assert_routes_agree(path):
    assert outcome(load_predictions, path) == outcome(_load_rows, path)


def move_mass(row, j):
    """Row j's probability moved onto its neighbour, so it can take any
    value and the row still sums to 1 within the tolerance."""
    row = list(row)
    row[(j + 1) % len(row)] += row[j]
    row[j] = 0.0
    return row


# Tiny probabilities: subnormals and what repr writes as 1e-05-style exponents.
TINY = [5e-324, 2.5e-310, 1e-300, 3.5e-07, 1e-05]
# Texts of one probability that only the per-line route reads, or that it rejects.
TOKEN_PERTURBATIONS = {text: text.encode() for text in
                       ["-0", "-0.0", "01", ".5", "+0.5", "NaN", "1e400"]}
TOKEN_PERTURBATIONS["400-digit integer"] = b"1" + b"0" * 400
LINE_PERTURBATIONS = {
    "extra space": lambda line: line.replace(b", ", b" ,  ", 1),
    "swapped keys": lambda line: b'{"label": %s, "probs": [%s]}\n' % (
        line[line.index(b"label") + 8:-2], line[11:line.index(b"]")]),
    "CRLF": lambda line: line[:-1] + b"\r\n",
    "blank line": lambda line: line + b"\n",
    "non-ASCII key": lambda line: line[:-2] + ', "cl\u00e9": 1}\n'.encode(),
    "label out of range": lambda line: line[:line.index(b"label") + 8] + b"99}\n",
    "label past int64": lambda line: line[:line.index(b"label") + 8] + b"%d}\n" % 2**70,
}


FORK_SERVER = """
import os, sys
from calibkit import LogFormat, PredictionLogError, _bulk, data
_bulk.SPLIT_BYTES = 0
_bulk.cpus = lambda: 2
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
print(_bulk.threads() == 1, flush=True)
for request in sys.stdin:
    path, block = request.rstrip("\\n").split("\\t")
    _bulk.BLOCK_BYTES = int(block)
    forks.clear()
    try:
        preds = data.load_predictions(path, LogFormat.JSONL)
        result = preds.probs.tobytes(), preds.labels.tobytes()
    except PredictionLogError as exc:
        result = type(exc).__name__, str(exc), exc.line
    print(repr((result, len(forks))), flush=True)
"""


def src_env(**extra):
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    src = Path(data_module.__file__).parents[1]
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.fixture(scope="module")
def fork_server():
    """A fresh interpreter with one thread, so that it really forks the
    child that parses a log's tail: it loads logs with the split forced
    on. ``load(path, block)`` returns the outcome, with the exception's
    class by name, and the number of forks; ``can_fork`` says whether
    the server may fork at all."""
    server = subprocess.Popen([sys.executable, "-c", FORK_SERVER], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True,
                              env=src_env(OPENBLAS_NUM_THREADS="1"))

    def load(path, block):
        server.stdin.write(f"{path}\t{block}\n")
        server.stdin.flush()
        return ast.literal_eval(server.stdout.readline())

    load.can_fork = ast.literal_eval(server.stdout.readline())
    yield load
    server.stdin.close()
    assert server.wait(timeout=60) == 0
    server.stdout.close()


@st.composite
def canonical_logs(draw):
    """(k, rows): 1 to 20 canonical rows of K = 2..12 probabilities, each
    as (probabilities, their texts, label)."""
    k = draw(st.integers(2, 12))
    lines = []
    for _ in range(draw(st.integers(1, 20))):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
        total = sum(weights)
        label = draw(st.integers(0, k - 1))
        if total > 0 and not draw(st.booleans()):
            row = [w / total for w in weights]
        else:  # one-hot
            row = [float(c == label) for c in range(k)]
        if draw(st.booleans()):
            j = draw(st.integers(0, k - 1))
            row = move_mass(row, j)
            row[j] = draw(st.sampled_from(TINY))
        whole_as_int = draw(st.booleans())  # 0.0 and 1.0 written as 0 and 1
        tokens = [b"%d" % v if whole_as_int and v in (0.0, 1.0) else repr(v).encode()
                  for v in row]
        lines.append((row, tokens, label))
    return k, lines


@pytest.mark.parametrize("perturbation", [
    "none", "no final LF", *TOKEN_PERTURBATIONS, *LINE_PERTURBATIONS])
@settings(max_examples=12, deadline=None)
@given(log=canonical_logs(), data=st.data())
def test_bulk_route_equals_the_per_line_route(tmp_path_factory, fork_server, perturbation,
                                              log, data):
    """Byte-identical arrays, or the same error on the same line, whether a
    canonical log carries one perturbed line or none, and whether a forked
    child parses its tail or not."""
    k, rows = log
    lines = [canonical_line(tokens, b"%d" % label) for _, tokens, label in rows]
    at = data.draw(st.integers(0, len(rows) - 1))
    if perturbation in TOKEN_PERTURBATIONS:
        row, _, label = rows[at]
        j = data.draw(st.integers(0, k - 1))
        text = TOKEN_PERTURBATIONS[perturbation]
        value = float(text)
        row = move_mass(row, j)
        if math.isfinite(value):  # the row still sums to 1 if the text is read
            row = [p * (1.0 - value) for p in row]
        tokens = [repr(p).encode() for p in row]
        tokens[j] = text
        lines[at] = canonical_line(tokens, b"%d" % label)
    elif perturbation in LINE_PERTURBATIONS:
        lines[at] = LINE_PERTURBATIONS[perturbation](lines[at])
    body = b"".join(lines)
    if perturbation == "no final LF":
        body = body[:-1]
    path = tmp_path_factory.mktemp("bulk") / "p.jsonl"
    path.write_bytes(body)
    # Small blocks cut the log at every line end or every few.
    block = data.draw(st.sampled_from([_bulk.BLOCK_BYTES, 64, 300]))
    with mock.patch("calibkit._bulk.BLOCK_BYTES", block):
        assert_routes_agree(path)
        if perturbation in ("none", "no final LF"):
            assert _load_canonical_jsonl(path) is not None
    # A child parses the tail of any log with a line after its midpoint.
    want = outcome(_load_rows, path)
    if isinstance(want[0], type):
        want = (want[0].__name__, *want[1:])
    split = any(len(body) // 2 <= i + 1 < len(body) for i, byte in enumerate(body)
                if byte == ord("\n"))
    assert fork_server(path, block) == (want, int(split and fork_server.can_fork))


def write_long_log(path, n, k=10, seed=0):
    """n canonical rows of seeded softmax probabilities."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k)) * 3.0
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    labels = rng.integers(0, k, n)
    path.write_bytes(b"".join(
        canonical_line([repr(v).encode() for v in row], b"%d" % y)
        for row, y in zip(probs.tolist(), labels.tolist())))
    return path


class TestBulkRoute:
    def test_a_log_longer_than_one_block(self, tmp_path):
        path = write_long_log(tmp_path / "p.jsonl", 6000)
        assert path.stat().st_size > 1.2 * _bulk.BLOCK_BYTES
        assert _load_canonical_jsonl(path) is not None
        assert_routes_agree(path)

    def test_a_fault_in_a_later_block_names_its_line(self, tmp_path):
        """The bulk route has taken the first block when it meets the fault;
        the per-line route starts over from line 1."""
        path = write_long_log(tmp_path / "p.jsonl", 6000)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[5800] = b'{"probs": [0.9, 0.9], "label": 0}\n'
        path.write_bytes(b"".join(lines))
        assert _load_canonical_jsonl(path) is None
        with pytest.raises(MalformedRowError, match="line 5801: expected 10 probabilities"):
            load_predictions(path, LogFormat.JSONL)
        assert_routes_agree(path)

    def test_a_sum_fault_in_a_later_block_is_raised_without_a_second_parse(
            self, tmp_path, monkeypatch):
        """A canonical log whose fault is a probability sum gets the per-line
        route's error straight from the bulk route."""
        path = write_long_log(tmp_path / "p.jsonl", 6000)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[5800] = canonical_line([b"0.9", b"0.9"] + [b"0"] * 8, b"0")
        path.write_bytes(b"".join(lines))
        want = outcome(_load_rows, path)
        assert want[0] is ProbabilitySumError and want[2] == 5801

        def per_line_route(*args):
            raise AssertionError("the per-line route ran")

        monkeypatch.setattr("calibkit.data._load_rows", per_line_route)
        assert outcome(load_predictions, path) == want

    def test_a_token_count_mismatch_takes_the_per_line_route(self, tmp_path, monkeypatch):
        path = write_long_log(tmp_path / "p.jsonl", 500)
        want = outcome(_load_rows, path)
        monkeypatch.setattr(np, "fromstring", lambda *args, **kwargs: np.empty(0))
        assert _load_canonical_jsonl(path) is None
        assert outcome(load_predictions, path) == want

    @pytest.mark.parametrize("k", [2, 10])
    def test_a_saved_log_is_read_whole(self, tmp_path, k):
        """Every row that save_predictions writes is canonical, exponents
        and one-hot rows included, so a train -> eval round trip never
        falls back to the per-line route."""
        rng = np.random.default_rng(k)
        probs = rng.dirichlet(np.ones(k), 200)
        probs[:len(TINY), 0] = TINY
        probs[-1] = np.eye(k)[0]
        labels = rng.integers(0, k, 200)
        path = tmp_path / "p.jsonl"
        save_predictions(Predictions(probs, labels), path, LogFormat.JSONL)
        assert b"e-05, " in path.read_bytes()
        blocks = _bulk.read_log(path)
        assert blocks is not None
        assert np.concatenate(blocks).tobytes() == np.column_stack([probs, labels]).tobytes()

    @pytest.mark.parametrize("k", [2, 10])
    def test_the_row_regex_compiles_before_python_3_11(self, k):
        """pyproject.toml allows Python 3.10, whose re has no atomic groups
        and no possessive quantifiers."""
        assert re.search(rb"\(\?>|[*+?}]\+", _bulk.canonical_row(k).pattern) is None


# -- The number kernel -----------------------------------------------------------


def as_double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# The repr of a finite non-negative float64 from any binade, subnormals included.
FLOAT64_TOKENS = st.integers(0, 0x7FEFFFFFFFFFFFFF).map(lambda bits: repr(as_double(bits)))


@st.composite
def decimal_tokens(draw):
    """A JSON number with up to 22 integer and 24 fraction digits and an
    exponent up to +-330, with leading zeros."""
    digits = "0123456789"
    whole = draw(st.one_of(st.just("0"), st.builds(
        str.__add__, st.sampled_from(digits[1:]), st.text(digits, max_size=21))))
    fraction = draw(st.one_of(st.just(""), st.text(digits, min_size=1, max_size=24).map(
        lambda text: "." + text)))
    exponent = draw(st.one_of(st.just(""), st.builds(
        "{}{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
        st.sampled_from(["", "0", "00"]), st.integers(0, 330))))
    return whole + fraction + exponent


@st.composite
def near_midpoint_tokens(draw):
    """A decimal of 16-20 significant digits within a few units of its last
    digit from the midpoint of two adjacent doubles."""
    low = as_double(draw(st.integers(0, 0x7FEFFFFFFFFFFFFE)))
    with decimal.localcontext(decimal.Context(prec=2000)):
        mid = (decimal.Decimal(low) + decimal.Decimal(math.nextafter(low, math.inf))) / 2
        exponent = mid.adjusted() - draw(st.integers(16, 20)) + 1
        digits = int(mid.scaleb(-exponent).to_integral_value())
    return f"{max(digits + draw(st.integers(-2, 2)), 0)}e{exponent}"


def assert_decimals_equal_float(tokens):
    """The kernel, and np.fromstring with the kernel's gate off, give the
    bits of float() for every token."""
    text = ",".join(tokens).encode()
    want = np.array([float(t) for t in tokens]).tobytes()
    assert _bulk.decimals(text).tobytes() == want
    with mock.patch.object(_bulk, "EXTENDED", False):
        assert _bulk.decimals(text).tobytes() == want


class TestDecimals:
    @settings(max_examples=100, deadline=None)
    @given(tokens=st.lists(st.one_of(FLOAT64_TOKENS, decimal_tokens(), near_midpoint_tokens()),
                           min_size=1, max_size=30))
    def test_every_token_reads_as_float_reads_it(self, tokens):
        assert_decimals_equal_float(tokens)

    @pytest.mark.parametrize("tokens", [
        ["5e-324", "2.2250738585072014e-308", "2.225073858507201e-308", "1e-400", "0e999"],
        ["1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
         "1e309", "1" + "0" * 400],
        ["9223372036854775807", "9223372036854775808", "0.00000000000000000000000000001",
         "1e99999999999999999999", "1e-99999999999999999999", "12345678901234567890.5e-30"],
        ["9007199254740993", "0.1", "0", "1", "7", "1E+5", "3.5e-07"],
        # Within 2**-63 of a midpoint, each on the side that x is not.
        ["1366830208409207323e195", "548730293304757056e187", "3829971363901925021e-75",
         "3770087443775209427e-8"],
    ], ids=["bottom", "top", "saturated", "plain", "midpoint"])
    def test_the_edges_of_the_fast_path(self, tokens):
        """Subnormal and zero results, the overflow threshold, w past
        int64, q past the table, a saturated exponent, an exact midpoint
        (2**53 + 1), and decimals whose x rounds the wrong way."""
        assert_decimals_equal_float(tokens)

    def test_only_tokens_outside_the_proven_range_go_to_float(self, monkeypatch):
        """float() reads a token whose result is subnormal, 0 or infinite,
        whose w saturates, whose q is past the table or whose x lies near
        a midpoint, and no other."""
        slow = ["5e-324", "1e-400", "1e309", "9223372036854775808", "1e-343", "0e999999",
                "9007199254740993", "1366830208409207323e195"]
        fast = ["0.1", "3.5e-07", "0", "0e308", "2.2250738585072014e-308",
                "1.7976931348623157e308"]
        read = []
        monkeypatch.setattr(_bulk, "float", lambda text: read.append(text) or float(text),
                            raising=False)
        assert_decimals_equal_float(slow + fast)
        assert read == [t.encode() for t in slow] or not _bulk.EXTENDED

    @pytest.mark.skipif(not _bulk.EXTENDED, reason="longdouble is not x86 extended precision")
    def test_every_power_of_ten_is_the_nearest_longdouble(self):
        table = _bulk.powers_of_ten()
        assert table.dtype == np.longdouble and table.size == _bulk.P10_HI - _bulk.P10_LO + 1
        for q, power in zip(range(_bulk.P10_LO, _bulk.P10_HI + 1), table):
            exact = Fraction(10) ** q
            error = abs(Fraction(*power.as_integer_ratio()) - exact)
            for neighbour in (np.nextafter(power, table[-1] * 10), np.nextafter(power, 0)):
                assert error <= abs(Fraction(*neighbour.as_integer_ratio()) - exact), q


# -- The probability-sum tolerance at its boundary ---------------------------


def two_row_log(path, route, row):
    """A log whose second row is ``row`` (label 0), written for ``route``;
    returns that row's line number."""
    tokens = [[repr(x).encode() for x in r] for r in ([0.25, 0.75], row)]
    if route == "csv":
        path.write_bytes(b"p0,p1,label\n" + b"".join(b"%s,0\n" % b",".join(t) for t in tokens))
        return 3
    if route == "bulk":
        path.write_bytes(b"".join(canonical_line(t, b"0") for t in tokens))
    else:  # the per-line route: swapped keys are not canonical
        path.write_bytes(b"".join(b'{"label": 0, "probs": [%s]}\n' % b", ".join(t)
                                  for t in tokens))
    assert (_bulk.read_log(path) is not None) == (route == "bulk")
    return 2


@pytest.mark.parametrize("route", ["bulk", "per-line", "csv"])
@pytest.mark.parametrize("off", [0.999e-3, -0.999e-3, 1.001e-3, -1.001e-3])
def test_rows_within_1e_3_of_sum_1_load_renormalized_and_the_rest_fail(tmp_path, route, off):
    row = [0.5 + off, 0.5]
    path = tmp_path / ("p.csv" if route == "csv" else "p.jsonl")
    line = two_row_log(path, route, row)
    fmt = LogFormat.CSV if route == "csv" else LogFormat.JSONL
    if abs(off) > 1e-3:
        with pytest.raises(ProbabilitySumError, match=f"line {line}"):
            load_predictions(path, fmt)
        return
    row = np.array(row)
    np.testing.assert_array_equal(load_predictions(path, fmt).probs[1], row / row.sum())


def with_line(path, at, line):
    lines = path.read_bytes().splitlines(keepends=True)
    lines[at] = line
    path.write_bytes(b"".join(lines))
    return path


# -- The whole-file fallback to the per-line route ----------------------------


def count_json_loads(monkeypatch):
    """A list that grows by one with each json.loads the per-line route makes."""
    calls = []
    loads = data_module.json.loads

    def counted(text):
        calls.append(text)
        return loads(text)

    monkeypatch.setattr(data_module.json, "loads", counted)
    return calls


# A valid row that only the per-line route reads.
SWAPPED = b'{"label": 0, "probs": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]}\n'


class TestFallback:
    @pytest.mark.parametrize("fault, last_line", [
        (b'{"probs": [0.9, 0.9], "label": 0}\n', 5801),
        (SWAPPED, 6000),
    ], ids=["malformed", "keys-swapped"])
    def test_a_late_fault_sends_the_whole_log_to_the_per_line_route(
            self, tmp_path, monkeypatch, fault, last_line):
        """The bulk route has read blocks before line 5801, the first that
        is not canonical, yet the per-line route parses every line from
        line 1 up to the fault that stops it or the end."""
        path = with_line(write_long_log(tmp_path / "p.jsonl", 6000), 5800, fault)
        want = outcome(_load_rows, path)
        monkeypatch.setattr(_bulk, "BLOCK_BYTES", 4096)  # about 17 lines
        calls = count_json_loads(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert len(calls) == last_line

    def test_a_value_fault_before_a_late_parse_fault_comes_first(self, tmp_path):
        """A sum fault on line 10 is reported before a parse fault on line
        5801: the per-line route checks the rows it has read before it
        raises."""
        path = write_long_log(tmp_path / "p.jsonl", 6000)
        with_line(path, 9, canonical_line([b"0.9", b"0.9"] + [b"0"] * 8, b"0"))
        with_line(path, 5800, b"{}\n")
        with pytest.raises(ProbabilitySumError) as info:
            load_predictions(path, LogFormat.JSONL)
        assert info.value.line == 10
        assert_routes_agree(path)


# -- The split route: a forked child parses the tail ---------------------------

# What a child runs in place of the forked copy of this process.
SERVE = ("import sys; from calibkit import _bulk; "
         "_bulk.serve(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.stdout.buffer)")


def force_split(monkeypatch, code=SERVE, ready=False):
    """Split every log with a line after its midpoint, with a fake fork:
    the child is a fresh interpreter with one thread that runs ``code``
    (by default the child's work, ``_bulk.serve``) with its stdout on the
    pipe. With ``ready`` the fake returns only once the child has begun
    to write. Returns {pid: exit code, None until read_log reaps it}.
    Forking this process itself under pytest would fork it with other
    threads alive, such as OpenBLAS workers."""
    monkeypatch.setattr(_bulk, "SPLIT_BYTES", 0)
    monkeypatch.setattr(_bulk, "cpus", lambda: 2)
    codes = {}

    def fork_tail(path, cut, k):
        r, w = os.pipe()
        args = [sys.executable, "-c", code, str(path), str(cut), str(k)]
        pid = os.posix_spawn(sys.executable, args, src_env(OPENBLAS_NUM_THREADS="1"),
                             file_actions=[(os.POSIX_SPAWN_DUP2, w, 1)])
        os.close(w)
        codes[pid] = None
        if ready:
            select.select([r], [], [])
        return pid, open(r, "rb")

    waitpid = os.waitpid

    def reap(pid, options):
        reaped, status = waitpid(pid, options)
        if reaped in codes:
            codes[reaped] = os.waitstatus_to_exitcode(status)
        return reaped, status

    monkeypatch.setattr(_bulk, "fork_tail", fork_tail)
    monkeypatch.setattr(os, "waitpid", reap)
    return codes


def spy_reads(monkeypatch):
    """The ``stop`` of each in-process run of the block parser."""
    stops = []
    read = _bulk.read

    def spy(fh, stop, *args):
        stops.append(stop)
        return read(fh, stop, *args)

    monkeypatch.setattr(_bulk, "read", spy)
    return stops


def spy_blocks(monkeypatch):
    """A list that grows by one with each block this process parses."""
    blocks = []
    parse_block = _bulk.parse_block

    def spy(lines, *args):
        blocks.append(len(lines))
        return parse_block(lines, *args)

    monkeypatch.setattr(_bulk, "parse_block", spy)
    return blocks


def no_fork(*args):
    raise AssertionError("a child was forked")


class TestSplitRoute:
    def test_the_child_parses_the_tail(self, tmp_path, monkeypatch):
        path = write_long_log(tmp_path / "p.jsonl", 400)
        want = outcome(_load_rows, path)
        children = force_split(monkeypatch)
        stops = spy_reads(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert list(children.values()) == [0]
        # This process read the head alone, up to a line start past the midpoint.
        (cut,) = stops
        body = path.read_bytes()
        assert len(body) // 2 <= cut < len(body) and body[cut - 1:cut] == b"\n"

    @pytest.mark.parametrize("at, line, parsed", [
        (10, b'{"probs": [0.9, 0.9], "label": 0}\n', 11),
        (390, b'{"probs": [0.9, 0.9], "label": 0}\n', 391),
        (390, canonical_line([b"0.1"] * 10, b"10"), 400),
    ], ids=["non-canonical-head", "non-canonical-tail", "label-in-tail"])
    def test_a_fault_sends_the_whole_log_to_the_per_line_route(self, tmp_path, monkeypatch,
                                                               at, line, parsed):
        """Wherever the fault is, the per-line route parses from line 1."""
        path = with_line(write_long_log(tmp_path / "p.jsonl", 400), at, line)
        want = outcome(_load_rows, path)
        children = force_split(monkeypatch)
        calls = count_json_loads(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert want[2] == at + 1 and len(calls) == parsed
        assert len(children) == 1 and None not in children.values()

    def test_a_declining_child_leaves_the_tail_unread(self, tmp_path, monkeypatch):
        """The child writes -1 for a tail with a line that is not
        canonical, so this process leaves the tail unread and the per-line
        route reads the whole log."""
        path = with_line(write_long_log(tmp_path / "p.jsonl", 400), 390, SWAPPED)
        want = outcome(_load_rows, path)
        children = force_split(monkeypatch)
        stops = spy_reads(monkeypatch)
        calls = count_json_loads(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert list(children.values()) == [0]
        assert len(stops) == 1 and stops[0] is not None  # the head alone
        assert len(calls) == 400

    def test_a_declined_tail_stops_the_head_at_once(self, tmp_path, monkeypatch):
        """Between head blocks this process looks at the pipe: once the
        child has declined its tail, no further head block is parsed."""
        path = with_line(write_long_log(tmp_path / "p.jsonl", 400), 390, SWAPPED)
        want = outcome(_load_rows, path)
        monkeypatch.setattr(_bulk, "BLOCK_BYTES", 4096)  # about 17 lines, 12 head blocks
        children = force_split(monkeypatch, ready=True)
        blocks = spy_blocks(monkeypatch)
        assert _bulk.read_log(path) is None
        assert blocks == [] and list(children.values()) == [0]
        assert outcome(load_predictions, path) == want

    def test_a_sum_fault_in_the_tail_names_its_line(self, tmp_path, monkeypatch):
        path = with_line(write_long_log(tmp_path / "p.jsonl", 400), 350,
                         canonical_line([b"0.9", b"0.9"] + [b"0"] * 8, b"0"))
        want = outcome(_load_rows, path)
        children = force_split(monkeypatch)
        monkeypatch.setattr(data_module, "_load_rows", None)  # the per-line route never runs
        assert outcome(load_predictions, path) == want
        assert want[0] is ProbabilitySumError and want[2] == 351
        assert list(children.values()) == [0]

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_no_child_starts_and_this_process_parses_the_log(self, tmp_path, monkeypatch,
                                                             call):
        """An OSError from pipe or fork leaves the whole log to this
        process, and no file descriptor behind."""
        path = write_long_log(tmp_path / "p.jsonl", 400)
        want = outcome(_load_rows, path)
        monkeypatch.setattr(_bulk, "SPLIT_BYTES", 0)
        monkeypatch.setattr(_bulk, "cpus", lambda: 2)
        monkeypatch.setattr(_bulk, "threads", lambda: 1)

        def fail():
            raise OSError("no more processes")

        monkeypatch.setattr(os, call, fail)
        stops = spy_reads(monkeypatch)
        fds = len(os.listdir("/proc/self/fd"))
        assert outcome(load_predictions, path) == want
        assert stops == [None]
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("code", [
        "import sys; sys.exit(3)",
        "import sys; sys.stdout.buffer.write((5).to_bytes(8, sys.byteorder) + b'short')",
        "import sys; sys.stdout.buffer.write((-1).to_bytes(8, sys.byteorder, signed=True)"
        " + bytes(8))",
    ], ids=["exit-3", "short-output", "long-decline"])
    def test_a_failed_child_leaves_the_tail_to_this_process(self, tmp_path, monkeypatch,
                                                            code):
        path = write_long_log(tmp_path / "p.jsonl", 400)
        want = outcome(_load_rows, path)
        children = force_split(monkeypatch, code=code)
        stops = spy_reads(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert len(stops) == 2 and stops[1] is None
        assert len(children) == 1 and None not in children.values()

    @pytest.mark.parametrize("end", ["interrupt", "non-canonical head"])
    def test_a_child_still_running_is_killed(self, tmp_path, monkeypatch, end):
        """The child is SIGKILLed and reaped when the head's parse raises
        or declines the log."""
        path = write_long_log(tmp_path / "p.jsonl", 400)
        children = force_split(monkeypatch, code="import time; time.sleep(30)")
        if end == "interrupt":
            def interrupted(*args):
                raise KeyboardInterrupt

            monkeypatch.setattr(_bulk, "parse_block", interrupted)
            with pytest.raises(KeyboardInterrupt):
                load_predictions(path, LogFormat.JSONL)
        else:
            with_line(path, 10, SWAPPED)
            assert load_predictions(path, LogFormat.JSONL).labels.shape == (400,)
        [(pid, code)] = children.items()
        assert code == -signal.SIGKILL
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("case", ["one CPU", "CSV", "below the threshold", "a small log"])
    def test_no_child_is_forked(self, tmp_path, monkeypatch, case):
        path = write_long_log(tmp_path / "p.jsonl", 400)
        fmt = LogFormat.JSONL
        if case == "CSV":
            fmt = LogFormat.CSV
            save_predictions(load_predictions(path, LogFormat.JSONL), tmp_path / "p.csv", fmt)
            path = tmp_path / "p.csv"
        force_split(monkeypatch)
        monkeypatch.setattr(_bulk, "fork_tail", no_fork)
        if case == "one CPU":
            monkeypatch.setattr(_bulk, "cpus", lambda: 1)
        elif case == "below the threshold":
            monkeypatch.setattr(_bulk, "SPLIT_BYTES", path.stat().st_size + 1)
        elif case == "a small log":
            monkeypatch.setattr(_bulk, "SPLIT_BYTES", SPLIT_BYTES)
        assert load_predictions(path, fmt).labels.shape == (400,)

    def test_a_process_with_a_second_thread_forks_nothing(self, tmp_path, monkeypatch):
        """A thread does not survive a fork, so a process with two reads
        the whole log itself, and gets the same blocks."""
        path = write_long_log(tmp_path / "p.jsonl", 400)
        with open(path, "rb") as fh:
            want = np.concatenate(_bulk.read(fh, None, 10))
        monkeypatch.setattr(_bulk, "SPLIT_BYTES", 0)
        monkeypatch.setattr(_bulk, "cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _bulk.threads() >= 2
            blocks = _bulk.read_log(path)
        finally:
            stop.set()
            thread.join()
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    def test_the_cpu_and_thread_counts_are_positive(self):
        assert _bulk.cpus() >= 1
        assert _bulk.threads() >= 1


LEAK_PROBE = """
import os, sys
from calibkit import LogFormat, _bulk, data
_bulk.SPLIT_BYTES = 0
_bulk.cpus = lambda: 2
if sys.argv[2] == "failing":
    def serve(*args):
        raise RuntimeError("the child fails")
    _bulk.serve = serve
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
preds = data.load_predictions(sys.argv[1], LogFormat.JSONL)
assert preds.labels.shape == (400,)
assert forks == [1], forks
"""


@pytest.mark.parametrize("swapped, child", [
    (None, "serving"), (10, "serving"), (390, "serving"), (None, "failing"),
], ids=["canonical", "head", "tail", "failing-child"])
def test_the_split_route_leaves_no_pipe_or_process_behind(tmp_path, swapped, child):
    """Under -X dev -W error an unclosed pipe or an unreaped child is a
    ResourceWarning on stderr: after a child whose tail this process
    takes, one killed when the head is not canonical, one that declines
    its tail, and one whose work raises. The probe has one thread, so it
    really forks, and a child that raised leaves through os._exit
    without a word."""
    path = write_long_log(tmp_path / "p.jsonl", 400)
    if swapped is not None:
        with_line(path, swapped, SWAPPED)
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", LEAK_PROBE, str(path), child],
        capture_output=True, text=True, timeout=120, env=src_env(OPENBLAS_NUM_THREADS="1"))
    assert (done.returncode, done.stderr) == (0, "")

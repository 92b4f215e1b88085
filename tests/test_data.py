"""Synthetic data generation, splitting, and prediction-log parsing."""

import math
import os
import re
import subprocess
import sys
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
    if _bulk.read_log(path)[1] is not None:
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
def test_bulk_route_equals_the_per_line_route(tmp_path_factory, perturbation, log, data):
    """Byte-identical arrays, or the same error on the same line, whether a
    canonical log carries one perturbed line or none."""
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
        # A helper parses the tail of any log with a line after its midpoint.
        # One draw in three, since each helper costs an interpreter start.
        if data.draw(st.sampled_from([False, False, True]), label="split"):
            with mock.patch("calibkit._bulk.SPLIT_BYTES", 0), \
                    mock.patch("calibkit._bulk.cpus", lambda: 2):
                assert outcome(load_predictions, path) == outcome(_load_rows, path)


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
        blocks, resume = _bulk.read_log(path)
        assert resume is None
        assert np.concatenate(blocks).tobytes() == np.column_stack([probs, labels]).tobytes()

    @pytest.mark.parametrize("k", [2, 10])
    def test_the_row_regex_compiles_before_python_3_11(self, k):
        """pyproject.toml allows Python 3.10, whose re has no atomic groups
        and no possessive quantifiers."""
        assert re.search(rb"\(\?>|[*+?}]\+", _bulk.canonical_row(k).pattern) is None


def with_line(path, at, line):
    lines = path.read_bytes().splitlines(keepends=True)
    lines[at] = line
    path.write_bytes(b"".join(lines))
    return path


# -- Resuming the per-line route ----------------------------------------------


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


class TestResume:
    @pytest.mark.parametrize("fault, last_line", [
        (b'{"probs": [0.9, 0.9], "label": 0}\n', 5801),
        (SWAPPED, 6000),
    ], ids=["malformed", "keys-swapped"])
    def test_a_late_fault_resumes_at_its_block(self, tmp_path, monkeypatch, fault, last_line):
        """The per-line route parses only the lines from the start of the
        block that holds line 5801, the first that is not canonical, up to
        the fault that stops it or the end."""
        path = with_line(write_long_log(tmp_path / "p.jsonl", 6000), 5800, fault)
        want = outcome(_load_rows, path)
        monkeypatch.setattr(_bulk, "BLOCK_BYTES", 4096)  # about 17 lines
        calls = count_json_loads(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert 0 <= len(calls) - (last_line - 5800) < 20

    def test_a_value_fault_in_the_bulk_prefix_comes_first(self, tmp_path):
        """A sum fault on line 10 is reported before a parse fault on line
        5801, though the bulk route read line 10 and the per-line route the
        other."""
        path = write_long_log(tmp_path / "p.jsonl", 6000)
        with_line(path, 9, canonical_line([b"0.9", b"0.9"] + [b"0"] * 8, b"0"))
        with_line(path, 5800, b"{}\n")
        with pytest.raises(ProbabilitySumError) as info:
            load_predictions(path, LogFormat.JSONL)
        assert info.value.line == 10
        assert_routes_agree(path)


# -- The split route: a helper parses the tail ---------------------------------


def force_split(monkeypatch, command=None, error=None):
    """Split every log with a line after its midpoint, and return the list
    of helpers started. ``command`` replaces the helper's program and
    ``error`` is raised in place of starting it."""
    monkeypatch.setattr(_bulk, "SPLIT_BYTES", 0)
    monkeypatch.setattr(_bulk, "cpus", lambda: 2)
    started = []
    popen = subprocess.Popen

    def start(args, **kwargs):
        if error is not None:
            raise error
        proc = popen(command or args, **kwargs)
        started.append(proc)
        return proc

    monkeypatch.setattr(subprocess, "Popen", start)
    return started


def spy_reads(monkeypatch):
    """The ``stop`` of each in-process run of the block parser."""
    stops = []
    read = _bulk.read

    def spy(fh, stop, *args):
        stops.append(stop)
        return read(fh, stop, *args)

    monkeypatch.setattr(_bulk, "read", spy)
    return stops


class TestSplitRoute:
    def test_the_helper_parses_the_tail(self, tmp_path, monkeypatch):
        path = write_long_log(tmp_path / "p.jsonl", 400)
        want = outcome(_load_rows, path)
        helpers = force_split(monkeypatch)
        stops = spy_reads(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert [h.returncode for h in helpers] == [0]
        # This process read the head alone, up to a line start past the midpoint.
        (cut,) = stops
        body = path.read_bytes()
        assert len(body) // 2 <= cut < len(body) and body[cut - 1:cut] == b"\n"

    @pytest.mark.parametrize("at, line", [
        (10, b'{"probs": [0.9, 0.9], "label": 0}\n'),
        (390, b'{"probs": [0.9, 0.9], "label": 0}\n'),
        (390, canonical_line([b"0.1"] * 10, b"10")),
    ], ids=["non-canonical-head", "non-canonical-tail", "label-in-tail"])
    def test_a_fault_takes_the_per_line_route(self, tmp_path, monkeypatch, at, line):
        path = with_line(write_long_log(tmp_path / "p.jsonl", 400), at, line)
        want = outcome(_load_rows, path)
        helpers = force_split(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert want[2] == at + 1
        assert len(helpers) == 1 and helpers[0].returncode is not None

    def test_a_late_fault_in_the_tail_resumes_at_its_block(self, tmp_path, monkeypatch):
        """The helper hands back the tail's rows before its first block that
        is not canonical, so the per-line route starts there, not at the cut."""
        path = with_line(write_long_log(tmp_path / "p.jsonl", 20000), 19990, SWAPPED)
        want = outcome(_load_rows, path)
        helpers = force_split(monkeypatch)
        calls = count_json_loads(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert [h.returncode for h in helpers] == [0]
        # The tail holds 10 000 lines and a helper block about 4 500.
        assert 10 <= len(calls) < 4600

    def test_a_sum_fault_in_the_tail_names_its_line(self, tmp_path, monkeypatch):
        path = with_line(write_long_log(tmp_path / "p.jsonl", 400), 350,
                         canonical_line([b"0.9", b"0.9"] + [b"0"] * 8, b"0"))
        want = outcome(_load_rows, path)
        helpers = force_split(monkeypatch)
        monkeypatch.setattr(data_module, "_load_rows", None)  # the per-line route never runs
        assert outcome(load_predictions, path) == want
        assert want[0] is ProbabilitySumError and want[2] == 351
        assert [h.returncode for h in helpers] == [0]

    def test_no_helper_starts_and_this_process_parses_the_tail(self, tmp_path, monkeypatch):
        path = write_long_log(tmp_path / "p.jsonl", 400)
        want = outcome(_load_rows, path)
        force_split(monkeypatch, error=OSError("no such interpreter"))
        stops = spy_reads(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert len(stops) == 2 and stops[1] is None

    @pytest.mark.parametrize("code", [
        "import sys; sys.exit(3)",
        "import sys; sys.stdout.buffer.write((5).to_bytes(8, sys.byteorder)"
        " + (-1).to_bytes(8, sys.byteorder, signed=True) + b'short')",
    ], ids=["exit-3", "short-output"])
    def test_a_failed_helper_leaves_the_tail_to_this_process(self, tmp_path, monkeypatch,
                                                             code):
        path = write_long_log(tmp_path / "p.jsonl", 400)
        want = outcome(_load_rows, path)
        helpers = force_split(monkeypatch, command=[sys.executable, "-c", code])
        stops = spy_reads(monkeypatch)
        assert outcome(load_predictions, path) == want
        assert len(stops) == 2 and stops[1] is None
        assert len(helpers) == 1 and helpers[0].returncode is not None

    def test_an_interrupt_kills_the_helper(self, tmp_path, monkeypatch):
        path = write_long_log(tmp_path / "p.jsonl", 400)
        helpers = force_split(monkeypatch)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(_bulk, "read", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_predictions(path, LogFormat.JSONL)
        assert len(helpers) == 1 and helpers[0].returncode is not None

    @pytest.mark.parametrize("case", ["one CPU", "CSV", "below the threshold"])
    def test_no_helper_starts(self, tmp_path, monkeypatch, case):
        path = write_long_log(tmp_path / "p.jsonl", 400)
        fmt = LogFormat.JSONL
        if case == "CSV":
            fmt = LogFormat.CSV
            save_predictions(load_predictions(path, LogFormat.JSONL), tmp_path / "p.csv", fmt)
            path = tmp_path / "p.csv"
        force_split(monkeypatch, error=AssertionError("a helper started"))
        if case == "one CPU":
            monkeypatch.setattr(_bulk, "cpus", lambda: 1)
        elif case == "below the threshold":
            monkeypatch.setattr(_bulk, "SPLIT_BYTES", path.stat().st_size + 1)
        assert load_predictions(path, fmt).labels.shape == (400,)

    def test_the_cpu_count_is_positive(self):
        assert _bulk.cpus() >= 1


LEAK_PROBE = """
import sys
from calibkit import LogFormat, _bulk, data
_bulk.SPLIT_BYTES = 0
_bulk.cpus = lambda: 2
preds = data.load_predictions(sys.argv[1], LogFormat.JSONL)
assert preds.labels.shape == (400,)
"""


def test_the_split_route_leaves_no_pipe_or_process_behind(tmp_path):
    """Under -X dev -W error an unclosed pipe or an unreaped helper is a
    ResourceWarning on stderr."""
    path = write_long_log(tmp_path / "p.jsonl", 400)
    src = Path(data_module.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", LEAK_PROBE, str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])})
    assert (done.returncode, done.stderr) == (0, "")

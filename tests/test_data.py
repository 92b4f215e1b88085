"""Synthetic data generation, splitting, and prediction-log parsing."""

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
    ProbabilitySumError,
    SplitSpec,
    gen_synthetic,
    load_predictions,
    split,
)

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

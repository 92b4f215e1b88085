"""SVG reliability diagrams, markdown comparison tables, prediction export."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibkit import (
    ClassificationReport,
    DomainError,
    LogFormat,
    Predictions,
    build_reliability_table,
    comparison_table,
    load_predictions,
    render_reliability_svg,
    save_predictions,
)

PLOT_W = 640.0 - 64.0 - 20.0
PLOT_H = 480.0 - 20.0 - 56.0


def rec(rows, labels):
    return Predictions.from_probs(rows, labels)


def rects_of(svg, cls):
    return re.findall(rf'<rect class="{cls}"[^>]*>', svg)


def attr(tag, name):
    return float(re.search(rf'{name}="([-0-9.]+)"', tag).group(1))


class TestReliabilitySvg:
    def test_single_occupied_bin_draws_one_bar_pair(self, tmp_path):
        # both records land in the upper of two bins: acc 1.0, mean conf 0.85
        table = build_reliability_table(
            rec([[0.9, 0.1], [0.2, 0.8]], [0, 1]), 2
        )
        out = tmp_path / "d.svg"
        render_reliability_svg(table, out)
        svg = out.read_text()
        conf_bars = rects_of(svg, "conf-bar")
        acc_bars = rects_of(svg, "acc-bar")
        assert len(conf_bars) == 1 and len(acc_bars) == 1
        assert attr(conf_bars[0], "height") == pytest.approx(0.85 * PLOT_H, abs=1e-6)
        assert attr(acc_bars[0], "height") == pytest.approx(1.0 * PLOT_H, abs=1e-6)
        # both bars occupy the right-hand bin
        assert attr(conf_bars[0], "x") > 64.0 + PLOT_W / 2

    def test_zero_value_bars_are_omitted(self, tmp_path):
        # one confident but wrong prediction: accuracy 0 in its bin
        table = build_reliability_table(rec([[0.9, 0.1]], [1]), 2)
        out = tmp_path / "d.svg"
        render_reliability_svg(table, out)
        svg = out.read_text()
        assert len(rects_of(svg, "conf-bar")) == 1
        assert len(rects_of(svg, "acc-bar")) == 0
        # a single curve point: circle yes, polyline no
        assert svg.count("<circle") == 1
        assert "<polyline" not in svg

    def test_perfectly_calibrated_points_sit_on_the_diagonal(self, tmp_path):
        # bin conf equals bin accuracy in both occupied bins
        records = rec(
            [[0.5, 0.5], [0.5, 0.5]]                     # conf .5, acc .5
            + [[0.75, 0.25]] * 3 + [[0.75, 0.25]],       # conf .75, acc .75
            [0, 1] + [0] * 3 + [1],
        )
        table = build_reliability_table(records, 2)
        out = tmp_path / "d.svg"
        render_reliability_svg(table, out)
        svg = out.read_text()
        circles = re.findall(r"<circle[^>]*>", svg)
        assert len(circles) == 2
        for c in circles:
            u = (attr(c, "cx") - 64.0) / PLOT_W
            v = 1.0 - (attr(c, "cy") - 20.0) / PLOT_H
            assert v == pytest.approx(u, abs=1e-9)

    def test_curve_skips_empty_bins(self, tmp_path):
        records = rec([[0.55, 0.45], [0.95, 0.05]], [0, 0])
        table = build_reliability_table(records, 10)
        out = tmp_path / "d.svg"
        render_reliability_svg(table, out)
        svg = out.read_text()
        # 8 empty bins between the two occupied ones contribute nothing
        assert svg.count("<circle") == 2
        (poly,) = re.findall(r'<polyline[^>]*points="([^"]*)"', svg)
        assert len(poly.split()) == 2

    def test_axis_label_names_the_bin_count(self, tmp_path):
        table = build_reliability_table(rec([[0.9, 0.1]], [0]), 15)
        out = tmp_path / "d.svg"
        render_reliability_svg(table, out)
        svg = out.read_text()
        assert "Confidence (M = 15 bins)" in svg
        assert "Accuracy / Confidence" in svg

    def test_output_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(0)
        rows, labels = [], []
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            rows.append(p / p.sum())
            labels.append(int(rng.integers(0, 3)))
        records = rec(rows, labels)
        table = build_reliability_table(records, 10)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_reliability_svg(table, a)
        render_reliability_svg(table, b)
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()
        # the bytes themselves are pinned, so a rewrite of the renderer
        # cannot change the drawing unnoticed
        assert hashlib.sha256(a.read_bytes()).hexdigest() == (
            "32ba897a23ffae04db5aeba075f90771070b615c7ddd009282debc5136b94317")


def report_from_macros(p, r, f1, acc):
    return ClassificationReport(per_class=((p, r, f1),), macro_precision=p,
                                macro_recall=r, macro_f1=f1, accuracy=acc)


class TestComparisonTable:
    def test_accuracy_calibration_tradeoff_rows(self):
        """A two-row table bolds all four percentage wins on the first model
        and the ECE win on the second."""
        entries = [
            ("nll_only", report_from_macros(0.8794, 0.8754, 0.8731, 0.8754), 0.05436),
            ("calibrated", report_from_macros(0.8772, 0.8689, 0.8675, 0.8689), 0.04013),
        ]
        text = comparison_table(entries)
        lines = text.splitlines()
        assert lines[0] == "| Model | P(%) | R(%) | F1(%) | ACC(%) | ECE |"
        assert lines[1] == "| --- | --- | --- | --- | --- | --- |"
        assert lines[2] == "| nll_only | **87.94** | **87.54** | **87.31** | **87.54** | 0.05436 |"
        assert lines[3] == "| calibrated | 87.72 | 86.89 | 86.75 | 86.89 | **0.04013** |"
        assert text.endswith("\n")

    def test_single_entry_is_all_bold(self):
        text = comparison_table([("only", report_from_macros(0.5, 0.5, 0.5, 0.5), 0.1)])
        row = text.splitlines()[2]
        assert row == "| only | **50.00** | **50.00** | **50.00** | **50.00** | **0.10000** |"

    def test_display_precision_ties_are_all_bold(self):
        # differ only past the displayed precision: both rows win every column
        a = report_from_macros(0.500001, 0.5, 0.5, 0.5)
        b = report_from_macros(0.500004, 0.5, 0.5, 0.5)
        text = comparison_table([("a", a, 0.1), ("b", b, 0.1)])
        for row in text.splitlines()[2:]:
            assert row.count("**") == 10

    def test_every_row_has_six_columns(self):
        entries = [(f"m{i}", report_from_macros(0.1 * i, 0.2, 0.3, 0.4), 0.01 * (i + 1))
                   for i in range(1, 5)]
        for line in comparison_table(entries).splitlines():
            assert line.count("|") == 7

    def test_empty_entries_rejected(self):
        with pytest.raises(DomainError):
            comparison_table([])


class TestSavePredictions:
    def roundtrip(self, records, tmp_path, fmt, name):
        path = tmp_path / name
        save_predictions(records, path, fmt)
        loaded = load_predictions(path, fmt)
        assert len(loaded.labels) == len(records.labels)
        np.testing.assert_allclose(loaded.probs, records.probs, atol=1e-9)
        np.testing.assert_array_equal(loaded.labels, records.labels)
        np.testing.assert_array_equal(loaded.predicted, records.predicted)

    def make_records(self, k, n):
        rng = np.random.default_rng(17)
        rows, labels = [], []
        for _ in range(n):
            p = rng.dirichlet(np.ones(k))
            rows.append(p / p.sum())
            labels.append(int(rng.integers(0, k)))
        return rec(rows, labels)

    def test_jsonl_roundtrip(self, tmp_path):
        self.roundtrip(self.make_records(4, 30), tmp_path, LogFormat.JSONL, "p.jsonl")

    def test_csv_roundtrip(self, tmp_path):
        self.roundtrip(self.make_records(3, 30), tmp_path, LogFormat.CSV, "p.csv")

    def test_csv_header_matches_class_count(self, tmp_path):
        path = tmp_path / "p.csv"
        save_predictions(self.make_records(3, 2), path, LogFormat.CSV)
        assert path.read_text().splitlines()[0] == "p0,p1,p2,label"

    def test_empty_list_rejected_before_writing(self, tmp_path):
        path = tmp_path / "p.jsonl"
        with pytest.raises(DomainError):
            save_predictions(rec(np.empty((0, 2)), []), path, LogFormat.JSONL)
        assert not path.exists()


@st.composite
def predictions(draw):
    k = draw(st.integers(2, 8))
    rows = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k),
                         min_size=1, max_size=20))
    rows = [r if sum(r) > 0 else [1.0] * k for r in rows]
    labels = draw(st.lists(st.integers(0, k - 1), min_size=len(rows), max_size=len(rows)))
    probs = np.array(rows)
    return Predictions.from_probs(probs / probs.sum(axis=1, keepdims=True), labels)


@settings(max_examples=100, deadline=None)
@given(predictions(), st.sampled_from(list(LogFormat)))
def test_save_load_round_trip(tmp_path_factory, preds, fmt):
    path = tmp_path_factory.mktemp("roundtrip") / "p.log"
    save_predictions(preds, path, fmt)
    loaded = load_predictions(path, fmt)
    np.testing.assert_array_equal(loaded.labels, preds.labels)
    np.testing.assert_array_equal(loaded.predicted, preds.predicted)
    np.testing.assert_allclose(loaded.probs, preds.probs, rtol=0, atol=1e-9)

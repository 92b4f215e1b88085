"""Reliability-diagram SVG rendering, markdown comparison tables, and
prediction-log export.

SVG output is a pure function of the table: fixed 6-decimal
coordinate formatting, LF line endings, no timestamps — identical inputs
produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

from .data import LogFormat
from .errors import DomainError
from .metrics import ClassificationReport, Predictions, ReliabilityTable

_WIDTH = 640
_HEIGHT = 480
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 20.0
_MARGIN_BOTTOM = 56.0
_BAR_INSET = 0.1  # fraction of bin width left clear on each side
_BAR_OPACITY = 0.6
_CONF_COLOR = "#f2a0c0"  # pink: per-bin mean confidence
_ACC_COLOR = "#7e57c2"   # purple: per-bin accuracy
_DIAGONAL_COLOR = "#777777"
_CURVE_COLOR = "#d62728"
# Written into the SVG as they are, so they hold no XML special characters.
_X_LABEL = "Confidence (M = {m} bins)"
_Y_LABEL = "Accuracy / Confidence"


def _f(x: float) -> str:
    return f"{x:.6f}"


def render_reliability_svg(table: ReliabilityTable, out_path) -> None:
    """Write a standalone SVG reliability diagram.

    Per bin, overlaid semi-transparent bars show mean confidence
    (class ``conf-bar``) and accuracy (class ``acc-bar``); a dashed
    diagonal marks perfect calibration and a curve traces accuracy
    against mean confidence for nonempty bins only (so a perfectly
    calibrated table sits exactly on the diagonal). Zero-height bars
    are omitted.
    """
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(u: float) -> float:  # confidence in [0,1] -> pixel x
        return _MARGIN_LEFT + u * plot_w

    def py(v: float) -> float:  # value in [0,1] -> pixel y (origin bottom-left)
        return _MARGIN_TOP + (1.0 - v) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="{_f(px(0))}" y="{_f(py(1))}" width="{_f(plot_w)}" '
        f'height="{_f(plot_h)}" fill="none" stroke="#000000"/>',
    ]
    m = table.m
    for i, b in enumerate(table.bins):
        left = px((i + _BAR_INSET) / m)
        width = plot_w * (1.0 - 2.0 * _BAR_INSET) / m
        for value, cls, color in ((b.conf, "conf-bar", _CONF_COLOR),
                                  (b.acc, "acc-bar", _ACC_COLOR)):
            if value <= 0.0:
                continue
            out.append(
                f'<rect class="{cls}" x="{_f(left)}" y="{_f(py(value))}" '
                f'width="{_f(width)}" height="{_f(py(0) - py(value))}" '
                f'fill="{color}" fill-opacity="{_f(_BAR_OPACITY)}"/>'
            )
    out.append(
        f'<line x1="{_f(px(0))}" y1="{_f(py(0))}" x2="{_f(px(1))}" y2="{_f(py(1))}" '
        f'stroke="{_DIAGONAL_COLOR}" stroke-dasharray="6,4"/>'
    )
    points = [(b.conf, b.acc) for b in table.bins if b.count > 0]
    if len(points) > 1:
        coords = " ".join(f"{_f(px(u))},{_f(py(v))}" for u, v in points)
        out.append(
            f'<polyline class="acc-curve" points="{coords}" fill="none" '
            f'stroke="{_CURVE_COLOR}" stroke-width="2"/>'
        )
    for u, v in points:
        out.append(
            f'<circle class="acc-curve" cx="{_f(px(u))}" cy="{_f(py(v))}" r="3" '
            f'fill="{_CURVE_COLOR}"/>'
        )
    for k in range(6):  # ticks every 0.2 on both axes
        t = k / 5.0
        out.append(
            f'<text x="{_f(px(t))}" y="{_f(py(0) + 16)}" font-size="11" '
            f'text-anchor="middle">{t:.1f}</text>'
        )
        out.append(
            f'<text x="{_f(px(0) - 8)}" y="{_f(py(t) + 4)}" font-size="11" '
            f'text-anchor="end">{t:.1f}</text>'
        )
    out.append(
        f'<text x="{_f(px(0.5))}" y="{_f(py(0) + 40)}" font-size="13" '
        f'text-anchor="middle">{_X_LABEL.format(m=m)}</text>'
    )
    out.append(
        f'<text x="{_f(px(0) - 44)}" y="{_f(py(0.5))}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 {_f(px(0) - 44)} {_f(py(0.5))})">{_Y_LABEL}</text>'
    )
    out.append("</svg>")
    Path(out_path).write_bytes(("\n".join(out) + "\n").encode("utf-8"))


def comparison_table(entries: list[tuple[str, ClassificationReport, float]]) -> str:
    """Markdown table with columns Model, P(%), R(%), F1(%), ACC(%), ECE.

    Percentages carry 2 decimals, ECE 5; the best value per column is
    bolded (highest for the percentage columns, lowest ECE), with ties
    all bolded. Comparison happens on the displayed precision so equal-
    looking values are bolded together.
    """
    if not entries:
        raise DomainError("comparison_table needs at least one entry")
    rows = []
    for name, report, ece_value in entries:
        rows.append((
            name,
            [f"{100.0 * report.macro_precision:.2f}",
             f"{100.0 * report.macro_recall:.2f}",
             f"{100.0 * report.macro_f1:.2f}",
             f"{100.0 * report.accuracy:.2f}",
             f"{ece_value:.5f}"],
        ))
    best = [max(float(r[1][col]) for r in rows) for col in range(4)]
    best.append(min(float(r[1][4]) for r in rows))
    lines = [
        "| Model | P(%) | R(%) | F1(%) | ACC(%) | ECE |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for name, cells in rows:
        shown = [
            f"**{cell}**" if float(cell) == best[col] else cell
            for col, cell in enumerate(cells)
        ]
        lines.append("| " + " | ".join([name] + shown) + " |")
    return "\n".join(lines) + "\n"


def save_predictions(preds: Predictions, path, fmt: LogFormat) -> None:
    """Write predictions in the JSONL/CSV schema that load_predictions reads.

    Floats are written with full repr precision (what ``json.dumps``
    writes), so a save/load round trip reproduces the probabilities (far
    inside the 1e-9 tolerance).
    """
    # Row by row, so the matrix never exists as Python floats all at once.
    rows = zip(preds.probs, preds.labels.tolist())
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        if fmt is LogFormat.JSONL:
            fh.writelines(f'{{"probs": [{", ".join(map(repr, p.tolist()))}], "label": {y}}}\n'
                          for p, y in rows)
        else:
            fh.write(",".join([f"p{i}" for i in range(preds.probs.shape[1])] + ["label"]) + "\n")
            fh.writelines(f"{','.join(map(repr, p.tolist()))},{y}\n" for p, y in rows)

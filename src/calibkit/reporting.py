"""Reliability-diagram SVG rendering, markdown comparison tables, and
prediction-log export.

SVG output is a pure function of (table, style): fixed 6-decimal
coordinate formatting, LF line endings, no timestamps — identical inputs
produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .data import LogFormat
from .errors import DomainError
from .metrics import ClassificationReport, Predictions, ReliabilityTable

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 20.0
_MARGIN_BOTTOM = 56.0
_BAR_INSET = 0.1  # fraction of bin width left clear on each side


@dataclass(frozen=True)
class DiagramStyle:
    width: int = 640
    height: int = 480
    conf_color: str = "#f2a0c0"       # pink: per-bin mean confidence
    acc_color: str = "#7e57c2"        # purple: per-bin accuracy
    diagonal_color: str = "#777777"
    curve_color: str = "#d62728"
    bar_opacity: float = 0.6
    x_label: str = "Confidence (M = {m} bins)"
    y_label: str = "Accuracy / Confidence"

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DomainError(f"diagram size must be positive, got {self.width}x{self.height}")
        if not 0 < self.bar_opacity <= 1:
            raise DomainError(f"bar_opacity must be in (0, 1], got {self.bar_opacity}")


def _f(x: float) -> str:
    return f"{x:.6f}"


def _xml_text(text: str) -> str:
    # Not xml.sax.saxutils.escape: importing it loads urllib.request, which
    # adds several MiB and tens of milliseconds to every CLI start.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_reliability_svg(table: ReliabilityTable, out_path, style: DiagramStyle | None = None) -> None:
    """Write a standalone SVG reliability diagram.

    Per bin, overlaid semi-transparent bars show mean confidence
    (class ``conf-bar``) and accuracy (class ``acc-bar``); a dashed
    diagonal marks perfect calibration and a curve traces accuracy
    against mean confidence for nonempty bins only (so a perfectly
    calibrated table sits exactly on the diagonal). Zero-height bars
    are omitted.
    """
    style = style or DiagramStyle()
    plot_w = style.width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = style.height - _MARGIN_TOP - _MARGIN_BOTTOM
    if plot_w <= 0 or plot_h <= 0:
        raise DomainError("diagram too small for its margins")

    def px(u: float) -> float:  # confidence in [0,1] -> pixel x
        return _MARGIN_LEFT + u * plot_w

    def py(v: float) -> float:  # value in [0,1] -> pixel y (origin bottom-left)
        return _MARGIN_TOP + (1.0 - v) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{style.width}" '
        f'height="{style.height}" viewBox="0 0 {style.width} {style.height}">',
        f'<rect x="{_f(px(0))}" y="{_f(py(1))}" width="{_f(plot_w)}" '
        f'height="{_f(plot_h)}" fill="none" stroke="#000000"/>',
    ]
    m = table.m
    for i, b in enumerate(table.bins):
        left = px((i + _BAR_INSET) / m)
        width = plot_w * (1.0 - 2.0 * _BAR_INSET) / m
        for value, cls, color in ((b.conf, "conf-bar", style.conf_color),
                                  (b.acc, "acc-bar", style.acc_color)):
            if value <= 0.0:
                continue
            out.append(
                f'<rect class="{cls}" x="{_f(left)}" y="{_f(py(value))}" '
                f'width="{_f(width)}" height="{_f(py(0) - py(value))}" '
                f'fill="{color}" fill-opacity="{_f(style.bar_opacity)}"/>'
            )
    out.append(
        f'<line x1="{_f(px(0))}" y1="{_f(py(0))}" x2="{_f(px(1))}" y2="{_f(py(1))}" '
        f'stroke="{style.diagonal_color}" stroke-dasharray="6,4"/>'
    )
    points = [(b.conf, b.acc) for b in table.bins if b.count > 0]
    if len(points) > 1:
        coords = " ".join(f"{_f(px(u))},{_f(py(v))}" for u, v in points)
        out.append(
            f'<polyline class="acc-curve" points="{coords}" fill="none" '
            f'stroke="{style.curve_color}" stroke-width="2"/>'
        )
    for u, v in points:
        out.append(
            f'<circle class="acc-curve" cx="{_f(px(u))}" cy="{_f(py(v))}" r="3" '
            f'fill="{style.curve_color}"/>'
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
    x_label = _xml_text(style.x_label.format(m=m))
    out.append(
        f'<text x="{_f(px(0.5))}" y="{_f(py(0) + 40)}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>'
    )
    y_label = _xml_text(style.y_label.format(m=m))
    out.append(
        f'<text x="{_f(px(0) - 44)}" y="{_f(py(0.5))}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 {_f(px(0) - 44)} {_f(py(0.5))})">{y_label}</text>'
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

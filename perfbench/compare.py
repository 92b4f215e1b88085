"""Print metric differences between two benchmark results.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each file is a results file from ``.perfbench/results/`` or a saved last
line of ``run.py``; both carry ``{"metrics": {name: {"value", "unit"}}}``.
For traced results this lists per-layer call counts and self times, grouped
by layer, so a change can show in which layer its saving appears.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load_metrics(path: Path) -> dict[str, dict]:
    text = path.read_text(encoding="utf-8").strip()
    try:
        return json.loads(text)["metrics"]
    except ValueError:  # captured standard output: the result is the last line
        return json.loads(text.splitlines()[-1])["metrics"]


def compare(before: dict[str, dict], after: dict[str, dict]) -> list[str]:
    """One line per metric present in either result, ordered by layer."""
    names = sorted(set(before) | set(after))
    width = max((len(n) for n in names), default=6)
    lines = [f"{'metric':<{width}}  {'before':>14}  {'after':>14}  {'delta':>14}  {'change':>8}  unit"]
    for name in names:
        b, a = before.get(name), after.get(name)
        unit = (a or b)["unit"]
        if b is None or a is None:
            shown = f"{b['value']:.6g}" if b else "-", f"{a['value']:.6g}" if a else "-"
            lines.append(f"{name:<{width}}  {shown[0]:>14}  {shown[1]:>14}  {'':>14}  {'':>8}  {unit}")
            continue
        delta = a["value"] - b["value"]
        change = f"{100.0 * delta / b['value']:+.1f}%" if b["value"] else ""
        lines.append(f"{name:<{width}}  {b['value']:>14.6g}  {a['value']:>14.6g}  "
                     f"{delta:>+14.6g}  {change:>8}  {unit}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    before, after = (load_metrics(Path(p)) for p in argv)
    print("\n".join(compare(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

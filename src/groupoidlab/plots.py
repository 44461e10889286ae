"""Hand-emitted deterministic SVG line plots (no plotting dependency).

The CLI imports this module only when ``--plot`` asks for a figure.
"""

from __future__ import annotations

import math
from pathlib import Path

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 60


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1)]
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * abs(span):
        ticks.append(value)
        value += step
    return ticks


def write_svg_plot(
    path: Path,
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    loglog: bool = False,
) -> None:
    """Minimal deterministic SVG line plot; series = [(label, xs, ys), ...]."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if not math.isnan(y)]
    if not xs_all or not ys_all:
        Path(path).write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return
    positive = lambda vals: [v for v in vals if v > 0]
    if loglog:
        xs_all, ys_all = positive(xs_all), positive(ys_all)
        if not xs_all or not ys_all:
            loglog = False
            xs_all = [x for _, xs, _ in series for x in xs]
            ys_all = [y for _, _, ys in series for y in ys if not math.isnan(y)]
    tx = (lambda v: math.log10(v)) if loglog else (lambda v: v)
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def sx(v):
        lo, hi = tx(x_lo), tx(x_hi)
        return _ML + (tx(v) - lo) / (hi - lo) * (_W - _ML - _MR)

    def sy(v):
        lo, hi = tx(y_lo), tx(y_hi)
        return _H - _MB - (tx(v) - lo) / (hi - lo) * (_H - _MT - _MB)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{_W}' height='{_H}' "
        f"viewBox='0 0 {_W} {_H}'>",
        f"<rect x='0' y='0' width='{_W}' height='{_H}' fill='white'/>",
        f"<text x='{_W // 2}' y='24' text-anchor='middle' font-size='16'>{title}</text>",
        f"<line x1='{_ML}' y1='{_H - _MB}' x2='{_W - _MR}' y2='{_H - _MB}' stroke='black'/>",
        f"<line x1='{_ML}' y1='{_MT}' x2='{_ML}' y2='{_H - _MB}' stroke='black'/>",
        f"<text x='{_W // 2}' y='{_H - 16}' text-anchor='middle' font-size='12'>{xlabel}</text>",
        f"<text x='18' y='{_H // 2}' text-anchor='middle' font-size='12' "
        f"transform='rotate(-90 18 {_H // 2})'>{ylabel}</text>",
    ]
    for tick in _ticks(x_lo, x_hi, loglog):
        if x_lo <= tick <= x_hi:
            px = sx(tick)
            parts.append(
                f"<line x1='{px:.2f}' y1='{_H - _MB}' x2='{px:.2f}' y2='{_H - _MB + 5}' stroke='black'/>"
            )
            parts.append(
                f"<text x='{px:.2f}' y='{_H - _MB + 18}' text-anchor='middle' "
                f"font-size='10'>{tick:.3g}</text>"
            )
    for tick in _ticks(y_lo, y_hi, loglog):
        if y_lo <= tick <= y_hi:
            py = sy(tick)
            parts.append(
                f"<line x1='{_ML - 5}' y1='{py:.2f}' x2='{_ML}' y2='{py:.2f}' stroke='black'/>"
            )
            parts.append(
                f"<text x='{_ML - 8}' y='{py + 3:.2f}' text-anchor='end' "
                f"font-size='10'>{tick:.3g}</text>"
            )
    for snum, (label, xs, ys) in enumerate(series):
        color = colors[snum % len(colors)]
        points = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(xs, ys)
            if not math.isnan(y) and (not loglog or (x > 0 and y > 0))
        )
        parts.append(
            f"<polyline fill='none' stroke='{color}' stroke-width='1.5' points='{points}'/>"
        )
        for x, y in zip(xs, ys):
            if math.isnan(y) or (loglog and (x <= 0 or y <= 0)):
                continue
            parts.append(
                f"<circle cx='{sx(x):.2f}' cy='{sy(y):.2f}' r='3' fill='{color}'/>"
            )
        parts.append(
            f"<text x='{_W - _MR - 8}' y='{_MT + 16 + 14 * snum}' text-anchor='end' "
            f"font-size='11' fill='{color}'>{label}</text>"
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")

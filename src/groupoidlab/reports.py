"""Deterministic result serialization: JSON summaries, CSV tables, SVG plots.

Every number in a CSV is printed with 17 significant digits so values
round-trip exactly.  Nothing volatile (timestamps, wall times, hostnames)
goes into output files; identical config and package version give
byte-identical files at any worker count.  Wall times are logged to stderr
instead.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GroupoidLabError

# rows of a float table formatted by one string operation in write_csv
_CSV_BLOCK_ROWS = 4096


def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` (lists, or a 2-D array) as CSV lines.

    A 2-D float array is written in blocks of ``_CSV_BLOCK_ROWS`` rows, each
    block formatted by one ``%`` operation with ``%.17g`` per cell: the same
    bytes as :func:`format_number`, without a Python call per cell, and
    without the whole file in memory at once.  Rows given as lists (which
    may hold strings, bools and ints) go through :func:`format_number`.
    """
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for start in range(0, rows.shape[0], _CSV_BLOCK_ROWS):
                block = rows[start : start + _CSV_BLOCK_ROWS]
                handle.write((line * len(block)) % tuple(block.ravel().tolist()))
            return
        for row in rows:
            handle.write(",".join(format_number(cell) for cell in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as standard JSON; a NaN or infinity in it raises GroupoidLabError."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        where = ", ".join(_non_finite_keys(payload))
        raise GroupoidLabError(f"{Path(path).name} would hold a non-finite number at {where}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def _non_finite_keys(node, prefix: str = ""):
    """Paths of the NaN and infinite floats in a JSON-like tree."""
    if isinstance(node, float) and not math.isfinite(node):
        yield prefix
    elif isinstance(node, dict):
        for key in sorted(node):
            yield from _non_finite_keys(node[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(node, (list, tuple)):
        for i, child in enumerate(node):
            yield from _non_finite_keys(child, f"{prefix}[{i}]")


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str = "<="

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": _json_number(self.value),
            "threshold": _json_number(self.threshold),
            "comparison": self.comparison,
        }


def _json_number(x):
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return str(x)
    return x


@dataclass
class ReportBundle:
    """What a command produced: the summary payload, files written, verdict.

    ``table`` is an optional ``(header, rows)`` pair for the CSV output and
    ``plot`` an optional SVG description
    ``(stem, series, title, xlabel, ylabel, loglog)``.
    """

    command: str
    summary: dict
    files: list[str] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    table: tuple | None = None
    plot: tuple | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def finalize(self, raw_config: dict, strict: bool) -> dict:
        # no worker count, no wall time: output bytes must not depend on either
        return {
            "command": self.command,
            "version": __version__,
            "config_sha256": config_hash(raw_config),
            "strict": bool(strict),
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
            "results": self.summary,
        }


# ---------------------------------------------------------------------------
# hand-emitted SVG line plots (no plotting dependency)
# ---------------------------------------------------------------------------

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

"""Deterministic result serialization: JSON summaries and CSV tables.

Every number in a CSV is printed with 17 significant digits so values
round-trip exactly.  Nothing volatile (timestamps, wall times, hostnames)
goes into output files; identical config and package version give
byte-identical files on every rerun.  Wall times go to stderr
instead.  SVG plots are in :mod:`groupoidlab.plots`, loaded only under
``--plot``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import GroupoidLabError


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


def write_csv(path: Path, header: list[str], rows, nodes=()) -> None:
    """Write ``rows`` (lists, or a 2-D float array) as CSV lines.

    A float array is written in row blocks by the vectorized formatter of
    :mod:`groupoidlab.floattext`, which gives each cell the bytes of
    ``'%.17g' % x`` (and of :func:`format_number`); it is imported here, so
    a command that writes no float array never compiles it.  Rows given as
    lists (which may hold strings, bools and ints) go through
    :func:`format_number`.

    ``nodes`` (1-D float arrays, one per axis) puts coordinate columns before
    the cells of a float array: row r holds the r-th node of the axes'
    product grid in C order.  Each node is formatted once; a block gathers
    those strings into its rows, so only the array's cells are formatted per
    row.
    """
    with Path(path).open("wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        if nodes or (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f"):
            from .floattext import _float_blocks

            for text in _float_blocks(rows, nodes):
                handle.write(text)
            return
        for row in rows:
            handle.write((",".join(format_number(cell) for cell in row) + "\n").encode())


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


class Check(NamedTuple):
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


class ReportBundle:
    """What a command produced: the summary payload, files written, verdict.

    ``table`` is an optional ``(header, rows)`` or ``(header, rows, nodes)``
    tuple, the arguments of :func:`write_csv` for the CSV output, and
    ``plot`` an optional ``(series, title, xlabel, ylabel, loglog)`` tuple,
    the arguments of :func:`groupoidlab.plots.write_svg_plot` after the path.
    """

    def __init__(self, command: str, summary: dict):
        self.command = command
        self.summary = summary
        self.files: list[str] = []
        self.checks: list[Check] = []
        self.table: tuple | None = None
        self.plot: tuple | None = None
        self.seconds = 0.0  # the command's wall time, for stderr; never written to a file

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def finalize(self, raw_config: dict, strict: bool) -> dict:
        # no wall time: output bytes must not depend on it
        return {
            "command": self.command,
            "version": __version__,
            "config_sha256": config_hash(raw_config),
            "strict": bool(strict),
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
            "results": self.summary,
        }

"""Deterministic result serialization: JSON summaries and CSV tables.

Every number in a CSV is printed with 17 significant digits so values
round-trip exactly.  Nothing volatile (timestamps, wall times, hostnames)
goes into output files; identical config and package version give
byte-identical files at any worker count.  Wall times go to stderr
instead.  SVG plots are in :mod:`groupoidlab.plots`, loaded only under
``--plot``.
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
    seconds: float = 0.0  # the command's wall time, for stderr; never written to a file

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

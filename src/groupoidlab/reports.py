"""Deterministic result serialization: JSON summaries and CSV tables.

Every number in a CSV is printed with 17 significant digits so values
round-trip exactly.  Nothing volatile (timestamps, wall times, hostnames)
goes into output files; identical config and package version give
byte-identical files at any worker count.  Wall times go to stderr
instead.  SVG plots are in :mod:`groupoidlab.plots`, loaded only under
``--plot``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GroupoidLabError

# rows of a float table formatted by one pass of the vectorized formatter in write_csv
_CSV_BLOCK_ROWS = 4096
# the formatter's product is within 1e-14 of exact: a fractional part this
# close to 1/2 may be a tie, and the cell falls back to '%.17g' %
_TIE_MARGIN = 1e-6


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

    A float array is written in blocks of ``_CSV_BLOCK_ROWS`` rows, never
    whole, by a vectorized formatter that gives each cell the bytes of
    ``'%.17g' % x`` (and of :func:`format_number`).  A finite ``|x|`` in
    [1e-280, 1e280], where Dekker's split of each factor stays finite and
    normal, is scaled by ``10**(16 - floor(log10 |x|))`` as a double-double
    product within 1e-14 of exact.  Its rounding to 17 digits is therefore
    certain unless the fraction lies within ``_TIE_MARGIN`` = 1e-6 of 1/2.
    Zeros are laid out as the integer 0; non-finite, subnormal and
    out-of-range cells and those near-ties fall back to ``'%.17g' %``.  Rows
    given as lists (which may hold strings, bools and ints) go through
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
            for text in _float_blocks(rows, nodes):
                handle.write(text)
            return
        for row in rows:
            handle.write((",".join(format_number(cell) for cell in row) + "\n").encode())


@functools.cache
def _formatter_tables():
    """The lookup tables of :func:`_float_text`, built on first use."""
    # 10**p for p = -266 ... 298 as hi + lo from exact integers; 10**-n as
    # floor(2**1020 / 10**n) * 2**-1020, which keeps 136 bits or more
    positive = itertools.accumulate(itertools.repeat(10, 298), operator.mul, initial=1)
    negative = list(itertools.accumulate(itertools.repeat(10, 266), operator.floordiv, initial=1 << 1020))
    exact = negative[:0:-1] + list(positive)
    hi = list(map(float, exact))
    scale = np.repeat(np.array([-1020, 0]), [266, 299])
    lo = np.ldexp(np.array(list(map(float, map(operator.sub, exact, map(int, hi))))), scale)
    hi = np.ldexp(np.array(hi), scale)
    split = hi * 134217729.0  # Dekker's split: high holds hi's top 26 bits
    high = split - (split - hi)
    # [abcd]: the digits of group abcd in the even bytes of a word, and its trailing zeros
    chars = np.zeros((10, 10, 10, 10, 8), np.uint8)
    zeros = np.zeros((10, 10, 10, 10), np.int8)
    for j in range(4):
        chars[..., 2 * j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
        zeros[(...,) + (0,) * (j + 1)] = j + 1
    # [kept * 18 + point]: added to a cell's words (the leading digit as 000d, four groups of four
    # digits, the exponent), it drops the three padding zeros and each digit at index >= kept
    # (all '0's, so subtract 48 with no borrow) and puts '.' after digit point - 1 (0: none)
    digit = np.arange(-3, 21).repeat(2).reshape(6, 8)
    even = np.arange(8) % 2 == 0
    count = np.arange(18)[:, None, None]
    points = (~even & (digit >= 0) & (digit == count - 1)).astype(np.uint8) * np.uint8(46)
    dropped = (even & ((digit < 0) | (digit >= count)) & (digit < 17)).astype(np.uint8) * np.uint8(48)
    delta = points.view(np.uint64)[None, :, :, 0] - dropped.view(np.uint64)[:, None, :, 0]
    # [negative * 5 + z]: "-", then "0." and z - 1 zeros (z = 0: none), in the bytes the
    # leading digit's word drops
    prefixes = np.zeros((2, 5, 8), np.uint8)
    prefixes[1, :, 0] = 45
    prefixes[:, 1:, 1:3] = [48, 46]
    for z in (2, 3, 4):
        prefixes[:, z, 3 : z + 2] = 48
    # [10000 + e + 300]: "e±XX" or "e±XXX" (the leading 0 of "e±0XX" a NUL); [10601]: no exponent
    exponents = np.zeros((602, 8), np.uint8)
    exponents[:-1, :2] = [101, 43]
    exponents[:300, 1] = 45
    exponents[:-1, 2:5] = chars.reshape(10000, 8)[np.abs(np.arange(-300, 301)), 2::2]
    exponents[201:400, 2] = 0
    words = np.concatenate((chars.reshape(10000, 8), exponents)).view(np.uint64)[:, 0]
    delta = delta.reshape(-1, 6).view("V48")[:, 0]
    return lo, high, hi - high, zeros.reshape(-1), words, delta, prefixes.view(np.uint64).reshape(-1)


def _significand(a, k, lo_p, high_p, low_p):
    """floor(a * 10**(16 - k)) as int64, and the fractional part of the product, within 1e-14."""
    i = 282 - k
    high_p, low_p, lo_p = high_p.take(i), low_p.take(i), lo_p.take(i)
    product = a * (high_p + low_p)
    split = a * 134217729.0
    high = split - (split - a)
    low = a - high
    rest = (((high * high_p - product) + high * low_p + low * high_p) + low * low_p) + a * lo_p
    whole = np.floor(rest)
    return product.astype(np.int64) + whole.astype(np.int64), rest - whole


def _fallback_text(x: np.ndarray) -> np.ndarray:
    """The words of :func:`_float_text`, one ``'%.17g' %`` call per cell."""
    return np.array(["%.17g" % value for value in x.tolist()], dtype="S48").view(np.uint64).reshape(-1, 6)


def _float_text(x: np.ndarray) -> np.ndarray:
    """The ``'%.17g'`` text of each of the floats ``x``, NUL-padded in six uint64 words a cell."""
    lo_p, high_p, low_p, group_zeros, table, delta, prefixes = _formatter_tables()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int16)
    n, fraction = _significand(a, k, lo_p, high_p, low_p)
    off = (n < 10**16).astype(np.int16) - (n >= 10**17)
    redo = np.flatnonzero(off)
    if len(redo):
        k[redo] -= off[redo]
        n[redo], fraction[redo] = _significand(a[redo], k[redo], lo_p, high_p, low_p)
        fast[redo] &= (n[redo] >= 10**16) & (n[redo] < 10**17)
    fast &= np.abs(fraction - 0.5) >= _TIE_MARGIN
    n += fraction > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    # a zero's stand-in 1.0 has k = 0, so n = 0 lays out "0", and its sign prefix "-0"
    n[zero] = 0
    fast |= zero

    fixed = (k >= -4) & (k < 17)
    # a cell's words: the leading digit, four groups of four digits, the exponent
    index = np.empty((len(x), 6), np.intp)
    rest = np.empty(len(x), np.int64)
    np.divmod(n, 10**16, out=(index[:, 0], rest))
    for j, half in enumerate(np.divmod(rest, 10**8)):
        np.divmod(half, 10**4, out=(index[:, 1 + 2 * j], index[:, 2 + 2 * j]))
    index[:, 5] = np.where(fixed, 10601, k + 10300)
    zeros = group_zeros.take(index[:, 1:5])
    trailing = zeros[:, 3].copy()
    for j in (2, 1, 0):
        trailing += (trailing == 12 - 4 * j) * zeros[:, j]
    digits = 17 - trailing
    integer = np.where(fixed, np.maximum(k + 1, 0), 1)  # digits before the point, int16
    point = np.where(digits > integer, integer, 0)
    kept = np.maximum(digits, integer)
    words = table.take(index)
    words += delta.take(kept * 18 + point).view(np.uint64).reshape(-1, 6)
    words[:, 0] += prefixes.take(np.signbit(x) * 5 + np.where(fixed & (k < 0), -k, 0))
    slow = np.flatnonzero(~fast)
    if len(slow):
        words[slow] = _fallback_text(x[slow])
    return words


def _float_blocks(rows: np.ndarray, nodes):
    """The CSV bytes of a float array after the coordinate columns of ``nodes``, block by block."""
    if nodes and len(rows) != math.prod(len(axis) for axis in nodes):
        raise ValueError(f"{len(rows)} rows for a grid of {[len(axis) for axis in nodes]} nodes")
    axes = [np.array(["%.17g," % x for x in np.asarray(axis, dtype=float).tolist()], dtype="S") for axis in nodes]
    strides = [math.prod(len(axis) for axis in axes[j + 1 :]) for j in range(len(axes))]
    width = -(-sum(axis.itemsize for axis in axes) // 8)
    ncols = rows.shape[1]
    separators = np.array([b"\0" * 7 + b","] * (ncols - 1) + [b"\0" * 7 + b"\n"], dtype="S8").view(np.uint64)
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        values = np.asarray(rows[start : start + _CSV_BLOCK_ROWS], dtype=float)
        block = np.zeros((len(values), width + 6 * ncols), np.uint64)
        text = block.view(np.uint8)
        at = 0
        for axis, stride in zip(axes, strides):
            index = np.arange(start, start + len(values)) // stride % len(axis)
            text[:, at : at + axis.itemsize] = axis[index].view(np.uint8).reshape(len(values), -1)
            at += axis.itemsize
        cells = _float_text(values.reshape(-1)).reshape(len(values), ncols, 6)
        cells[..., 5] |= separators
        block[:, width:] = cells.reshape(len(values), -1)
        yield text.tobytes().translate(None, b"\0")


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

    ``table`` is an optional ``(header, rows)`` or ``(header, rows, nodes)``
    tuple, the arguments of :func:`write_csv` for the CSV output, and
    ``plot`` an optional ``(series, title, xlabel, ylabel, loglog)`` tuple,
    the arguments of :func:`groupoidlab.plots.write_svg_plot` after the path.
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

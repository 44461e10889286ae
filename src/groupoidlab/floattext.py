"""The bytes of ``'%.17g' % x`` for float-array CSV tables, vectorized; ``bracket`` and ``algebroid`` load it.

Blocks of ``_CSV_BLOCK_ROWS`` rows are formatted at a time.  A finite
``|x|`` in [1e-280, 1e280], where Dekker's split of each factor stays finite
and normal, is scaled by ``10**(16 - floor(log10 |x|))`` as a double-double
product within 1e-14 of exact, so its rounding to 17 digits is certain
unless the fraction lies within ``_TIE_MARGIN`` = 1e-6 of 1/2.  Zeros are
laid out as the integer 0; non-finite, subnormal and out-of-range cells and
those near-ties fall back to ``'%.17g' %``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

# rows of a float table formatted by one pass of the vectorized formatter in write_csv
_CSV_BLOCK_ROWS = 4096
# the formatter's product is within 1e-14 of exact: a fractional part this
# close to 1/2 may be a tie, and the cell falls back to '%.17g' %
_TIE_MARGIN = 1e-6


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

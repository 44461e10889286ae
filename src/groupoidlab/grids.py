"""Uniform rectangular grids with trapezoidal quadrature, and sampled symbols.

Fiber axes are symmetric about 0 with an odd node count, so 0 is a node and
every difference of two nodes is again a node value.  That keeps the fiber
convolution free of interpolation between same-grid symbols; interpolation is
only ever used when evaluating a sampled symbol at off-grid points (deformed
products with sampled factors).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError
from .expressions import split

_STENCIL_6 = (
    (-3, -1.0 / 60.0),
    (-2, 3.0 / 20.0),
    (-1, -3.0 / 4.0),
    (1, 3.0 / 4.0),
    (2, -3.0 / 20.0),
    (3, 1.0 / 60.0),
)


def _validated_make(cls, values):
    """``NamedTuple._make`` through ``cls.__new__``, so that ``_replace`` validates too."""
    return cls(*values)


class _AxisFields(NamedTuple):
    start: float
    step: float
    count: int


class Axis(_AxisFields):
    """Uniform 1-D node set ``start + step * arange(count)``."""

    __slots__ = ()

    def __new__(cls, start: float, step: float, count: int):
        if step <= 0.0:
            raise ValueError("axis step must be positive")
        if count < 2:
            raise ValueError("axis needs at least two nodes")
        return super().__new__(cls, start, step, count)

    _make = classmethod(_validated_make)

    @classmethod
    def centered(cls, half_width: float, intervals: int, center: float = 0.0) -> "Axis":
        """Axis spanning ``[center - half_width, center + half_width]``."""
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        if intervals < 1:
            raise ValueError("intervals must be positive")
        step = 2.0 * half_width / intervals
        return cls(start=center - half_width, step=step, count=intervals + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @property
    def half_width(self) -> float:
        return 0.5 * self.step * (self.count - 1)

    @property
    def center(self) -> float:
        return self.start + self.half_width

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.count, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def is_symmetric(self) -> bool:
        return abs(self.center) <= 1e-12 * max(1.0, self.half_width)

    def refined(self) -> "Axis":
        """Same span with half the spacing."""
        return Axis(self.start, self.step / 2.0, 2 * self.count - 1)

    def dual(self) -> "Axis":
        """Frequency axis conjugate to this one.

        Spacing is the reciprocal of the span, so the inverse transform's
        periodization sits exactly one span away.
        """
        span = self.step * (self.count - 1)
        dstep = 1.0 / span
        half = (self.count - 1) // 2 * 2  # even interval count
        count = half + 1
        return Axis(start=-0.5 * dstep * (count - 1), step=dstep, count=count)


class _GridFields(NamedTuple):
    base: tuple[Axis, ...]
    fiber: tuple[Axis, ...]


class GridSpec(_GridFields):
    """Product grid: base axes (may be none) times fiber axes (at least one)."""

    __slots__ = ()

    def __new__(cls, base, fiber):
        base, fiber = tuple(base), tuple(fiber)
        if not fiber:
            raise ValueError("grid needs at least one fiber axis")
        for ax in fiber:
            if ax.count % 2 == 0:
                raise ValueError("fiber axes need an odd node count (even interval count)")
            if not ax.is_symmetric():
                raise ValueError("fiber axes must be symmetric about 0")
        return super().__new__(cls, base, fiber)

    _make = classmethod(_validated_make)

    # -- shapes ------------------------------------------------------------
    @property
    def base_shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.base)

    @property
    def fiber_shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.fiber)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.base_shape + self.fiber_shape

    @property
    def base_dim(self) -> int:
        return len(self.base)

    @property
    def fiber_dim(self) -> int:
        return len(self.fiber)

    # -- node arrays ---------------------------------------------------------
    def base_mesh(self) -> np.ndarray:
        """(base_shape..., n) array of base points; shape (0,) when n = 0."""
        if not self.base:
            return np.zeros((0,))
        axes = [ax.nodes for ax in self.base]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def fiber_mesh(self) -> np.ndarray:
        """(fiber_shape..., m) array of fiber points."""
        axes = [ax.nodes for ax in self.fiber]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def base_points_flat(self) -> np.ndarray:
        """(K, n) array of base nodes in C order; (1, 0) when n = 0."""
        if not self.base:
            return np.zeros((1, 0))
        return self.base_mesh().reshape(-1, self.base_dim)

    def fiber_points_flat(self) -> np.ndarray:
        return self.fiber_mesh().reshape(-1, self.fiber_dim)

    def fiber_weights(self) -> np.ndarray:
        """fiber_shape array of tensor-product trapezoid weights."""
        return _tensor_weights(self.fiber)

    def base_weights(self) -> np.ndarray:
        return _tensor_weights(self.base)

    def dual(self) -> "GridSpec":
        """Grid with each fiber axis replaced by its frequency conjugate."""
        return GridSpec(base=self.base, fiber=tuple(ax.dual() for ax in self.fiber))

    def refine_fiber(self) -> "GridSpec":
        """Halve every fiber spacing, keeping spans."""
        return GridSpec(base=self.base, fiber=tuple(ax.refined() for ax in self.fiber))

    def refine_all(self) -> "GridSpec":
        return GridSpec(
            base=tuple(ax.refined() for ax in self.base),
            fiber=tuple(ax.refined() for ax in self.fiber),
        )


def axis_plane(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """``values`` along ``axis`` of an ``ndim``-axis layout, size 1 on every other axis."""
    shape = [1] * ndim
    shape[axis] = values.size
    return values.reshape(shape)


def _tensor_weights(axes: tuple[Axis, ...]) -> np.ndarray:
    """Tensor product of the axes' trapezoid weights, shaped like their node grid."""
    out = np.ones(tuple(ax.count for ax in axes))
    for axis_index, ax in enumerate(axes):
        out = out * axis_plane(ax.trapezoid_weights(), axis_index, len(axes))
    return out


class SampledSymbol(NamedTuple):
    """Samples of a symbol on a grid: float64 for a real symbol, complex128 otherwise.

    Decay is checked where samples are made (:func:`groupoidlab.symbols.eval_symbol`,
    :func:`groupoidlab.poisson.select_dual_grid`), not recorded here.  The
    calculus methods mirror those of :class:`groupoidlab.symbols.SymbolSpec`,
    on node values.
    """

    values: np.ndarray
    grid: GridSpec

    @staticmethod
    def wrap(values: np.ndarray, grid: GridSpec) -> "SampledSymbol":
        values = np.asarray(values)
        values = values.astype(np.result_type(values, float), copy=False)  # real stays real
        if values.shape != grid.shape:
            raise GridMismatchError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        return SampledSymbol(values=values, grid=grid)

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def fiber_multiply(self, index: int) -> "SampledSymbol":
        """Multiply by the fiber coordinate ``xi_index`` at every node."""
        nodes = axis_plane(self.grid.fiber[index].nodes, self.grid.base_dim + index, self.values.ndim)
        return SampledSymbol(values=self.values * nodes, grid=self.grid)

    def derivative(self, kind: str, index: int) -> "SampledSymbol":
        """Stencil partial derivative; ``kind`` is ``"x"`` or ``"xi"``."""
        if kind not in ("x", "xi"):
            raise ValueError("kind must be 'x' or 'xi'")
        axes, offset = (self.grid.base, 0) if kind == "x" else (self.grid.fiber, self.grid.base_dim)
        vals = stencil_derivative(self.values, axes[index].step, offset + index)
        return SampledSymbol(values=vals, grid=self.grid)

    def evaluate(self, base_points: np.ndarray, fiber_points: np.ndarray) -> np.ndarray:
        """Values at arbitrary points by multilinear interpolation (see :func:`interpolate`)."""
        return interpolate(self, base_points, fiber_points)


def boundary_fraction(values: np.ndarray) -> float:
    """Largest magnitude on any edge of the array, relative to the peak (0 for zero data)."""
    mags = np.abs(values)
    peak = float(np.max(mags)) if mags.size else 0.0
    if peak == 0.0:
        return 0.0
    worst = 0.0
    for axis in range(mags.ndim):
        for edge in (0, -1):
            worst = max(worst, float(np.max(np.take(mags, edge, axis=axis))))
    return worst / peak


def require_same_grid(*sampled: SampledSymbol) -> GridSpec:
    grid = sampled[0].grid
    for s in sampled[1:]:
        if s.grid != grid:
            raise GridMismatchError("operands live on different grids")
    return grid


def scale_of(*arrays) -> float:
    """Residual normalization: the largest sup magnitude among the arrays, at least 1e-30."""
    best = 1e-30
    for arr in arrays:
        arr = np.asarray(arr)
        if arr.size:
            best = max(best, float(np.max(np.abs(arr))))
    return best


# ---------------------------------------------------------------------------
# stencils and interpolation
# ---------------------------------------------------------------------------

def stencil_derivative(values: np.ndarray, step: float, axis: int) -> np.ndarray:
    """Sixth-order central difference along ``axis`` with zero extension.

    Zero extension is appropriate for the decaying symbols this package
    works with; the boundary rows are accurate only when the data has
    decayed there.
    """
    values = np.asarray(values, dtype=np.result_type(values, float))
    out = np.zeros_like(values)
    # views with ``axis`` first: out[i] += coeff * values[i + shift] wherever i + shift is a node
    o, v, n = np.moveaxis(out, axis, 0), np.moveaxis(values, axis, 0), values.shape[axis]
    for shift, coeff in _STENCIL_6:
        lo, hi = max(0, -shift), min(n, n - shift)
        if lo < hi:
            o[lo:hi] += coeff * v[lo + shift : hi + shift]
    # times the reciprocal, as numpy divides a complex array by a real: real samples give the real part
    return out * (1.0 / step)


def interpolation_corners(axes, coords, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Corners of multilinear interpolation on the node grid of ``axes``.

    ``coords`` holds one coordinate array per axis; their shapes broadcast to
    a common batch shape.  Returns ``(flat_index, weight)`` of shape
    ``(2^len(axes), *batch_shape)``, corner-major: the C-order index of the
    corner node and its interpolation weight, which is 0 where the corner
    lies outside the grid (the index is then clamped into it).  Corner ``c``
    takes the upper node on axis ``k`` where bit ``k`` of ``c`` is set.  Each
    axis's two index terms and two weights (0 outside) are computed once;
    corner weights multiply them in axis order from 1.  ``out``, a pair of
    arrays of that shape, receives the corners in place of new arrays.
    """
    batch_shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    shape = (1 << len(axes),) + batch_shape
    index, weight = out if out is not None else (np.empty(shape, dtype=np.int64), np.empty(shape))
    index[0], weight[0] = 0, 1.0
    stride = int(np.prod([ax.count for ax in axes], dtype=np.int64))
    for k, (c, ax) in enumerate(zip(coords, axes)):
        stride //= ax.count
        tpos = (np.asarray(c, dtype=float) - ax.start) / ax.step
        low = np.floor(tpos)
        frac = tpos - low
        nodes = np.add.outer((0.0, 1.0), low).astype(np.int64)
        terms = np.minimum(np.maximum(nodes, 0), ax.count - 1)
        parts = np.where(nodes == terms, np.stack([1.0 - frac, frac]), 0.0)
        terms *= stride
        n = 1 << k
        np.add(index[:n], terms[1], out=index[n : 2 * n])
        index[:n] += terms[0]
        np.multiply(weight[:n], parts[1], out=weight[n : 2 * n])
        weight[:n] *= parts[0]
    return index, weight


def interpolate(sym: SampledSymbol, base_points: np.ndarray, fiber_points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of the samples, zero outside the grid.

    ``base_points`` is (..., n) and ``fiber_points`` (..., m), arrays or
    :class:`~groupoidlab.expressions.Planes`, with batch shapes that
    broadcast; returns values of the broadcast shape of the coordinates, in
    the samples' dtype.
    """
    grid = sym.grid
    coords = [*split(base_points)[: grid.base_dim], *split(fiber_points)]
    flat = sym.values.reshape(-1)
    out = 0.0
    for index, weight in zip(*interpolation_corners(grid.base + grid.fiber, coords)):
        out = out + weight * flat[index]
    return out

"""Fiberwise convolution algebra, Fourier transform, and Poisson brackets.

The bracket on the convolution side combines three families of terms built
from the tabulated algebroid data: anchor terms pairing a fiber-coordinate
multiplication with a base derivative, weight terms carrying the log-gradient
of the unit weight, and structure-constant terms differentiated along the
fiber.  Coordinate multiplications and derivatives are exact on analytic
symbols (and high-order stencils on sampled ones); only the convolutions are
numerical.

The bracket functions take the chart: they tabulate the algebroid data at
the grid's base nodes and read the unit weight from it, so the convolution
measure and the log-weight gradient come from one weight.  Grid-level
functions take the weight explicitly as ``mu_on_base`` (default 1).  The
fourier-check runs the two public brackets, the ones the ``bracket`` command
and library callers run.

Conventions fixed here and validated end to end by the classical-limit and
intertwining tests:

* fiber measure = unit_weight(x) times Lebesgue measure in frame coordinates,
* Fourier kernel ``exp(-2 pi i <zeta, xi>)`` with no prefactor,
* ``xi_i f * dg/dx_j`` parses as (coordinate-multiplied f) convolved with
  (derivative of g),
* the fiber derivative in the structure-constant term is applied analytically
  to the first convolution factor, in an explicitly antisymmetrized form so
  the bracket changes sign bitwise under swapping its arguments,
* the dual-side bracket is minus the anchor part minus the structure-constant
  part: under this kernel ``xi_i`` becomes ``-(1 / 2 pi i) d/dzeta_i`` and
  ``d/dxi_k`` becomes ``2 pi i zeta_k``, which with the bracket's ``2 pi i``
  give both parts the sign -1.  The fourier-check compares at this fixed
  orientation, so a sign error in either part reads a mismatch near 2.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from typing import TYPE_CHECKING, NamedTuple, Union

import numpy as np

from .charts import GroupoidChart
from .errors import DecayWarning, GridMismatchError, GroupoidLabError
from .grids import Axis, GridSpec, SampledSymbol, axis_plane, boundary_fraction, require_same_grid, scale_of
from .symbols import SymbolSpec, eval_symbol

if TYPE_CHECKING:
    from .algebroid import AlgebroidData

TWO_PI_I = 2j * np.pi
DUAL_DECAY_THRESHOLD = 1e-10  # boundary fraction a transform must stay below

Operand = Union[SymbolSpec, SampledSymbol]


def unit_weight_on_grid(chart: GroupoidChart, grid: GridSpec) -> np.ndarray:
    """Unit weight evaluated at the base nodes, shaped like the base mesh."""
    pts = grid.base_points_flat()
    mu = np.asarray(chart.unit_weight(pts), dtype=float)
    if np.any(mu <= 0):
        raise GroupoidLabError("unit weight must be positive on the base grid")
    return mu.reshape(grid.base_shape)


def is_unit_weight(mu: np.ndarray) -> bool:
    """Whether the tabulated unit weight is the constant 1 (to 1e-13)."""
    return bool(mu.size == 0 or float(np.max(np.abs(mu - 1.0))) <= 1e-13)


def _mu_base(mu_on_base, grid: GridSpec) -> np.ndarray:
    if mu_on_base is None:
        return np.ones(grid.base_shape)
    mu = np.asarray(mu_on_base, dtype=float)
    if mu.shape != grid.base_shape:
        raise GridMismatchError(
            f"unit weight shape {mu.shape} does not match base shape {grid.base_shape}"
        )
    return mu


def _with_fiber_axes(base_array: np.ndarray, grid: GridSpec) -> np.ndarray:
    return np.asarray(base_array).reshape(np.shape(base_array) + (1,) * grid.fiber_dim)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

class _Spectra:
    """FFTs over the fiber axes of ``grid`` (real ones for real samples), each zero-padded
    to 2 * count: even and composite (2 * count - 1 can be prime), with no wrap-around."""

    def __init__(self, grid: GridSpec, real: bool):
        counts = grid.fiber_shape
        self.grid, self.size, self.weights = grid, [2 * c for c in counts], grid.fiber_weights()
        self.axes = tuple(range(grid.base_dim, grid.base_dim + grid.fiber_dim))
        self.window = (Ellipsis,) + tuple(slice((c - 1) // 2, (c - 1) // 2 + c) for c in counts)
        self.forward, self.inverse = (np.fft.rfftn, np.fft.irfftn) if real else (np.fft.fftn, np.fft.ifftn)

    def transform(self, values: np.ndarray, weighted: bool) -> np.ndarray:
        """Spectrum of ``values``, times the quadrature weights when ``weighted`` (a first factor)."""
        return self.forward(values * self.weights if weighted else values, self.size, self.axes)

    def convolution(self, spectrum: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """The convolution whose spectrum is ``spectrum``, under the weight ``mu``."""
        return self.inverse(spectrum, self.size, self.axes)[self.window] * _with_fiber_axes(mu, self.grid)


def _convolve_values(fv: np.ndarray, gv: np.ndarray, grid: GridSpec, mu: np.ndarray) -> np.ndarray:
    spectra = _Spectra(grid, real=not (np.iscomplexobj(fv) or np.iscomplexobj(gv)))
    return spectra.convolution(spectra.transform(fv, weighted=True) * spectra.transform(gv, weighted=False), mu)


def fiber_convolve(f: SampledSymbol, g: SampledSymbol, mu_on_base=None) -> SampledSymbol:
    """Fiberwise convolution ``sum_eta f(x, eta) g(x, xi - eta) mu(x) d eta``.

    Trapezoid weights on the fiber grid; the second factor is read at shifted
    nodes (differences of nodes are nodes on these grids) and treated as zero
    outside the grid.  The base point is a parameter throughout.
    """
    grid = require_same_grid(f, g)
    mu = _mu_base(mu_on_base, grid)
    return SampledSymbol(values=_convolve_values(f.values, g.values, grid, mu), grid=grid)


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------

def _check_base_axes(a: GridSpec, b: GridSpec):
    if a.base != b.base:
        raise GridMismatchError("grids disagree on base axes")


@functools.lru_cache(maxsize=8)
def _axis_kernel(src: Axis, dst: Axis, sign: float, real_view: bool = False) -> np.ndarray:
    """``exp(sign 2 pi i dst_r src_c)`` times the ``src`` weights; read-only, as callers share it.

    ``real_view``: its transpose as C-contiguous float64 ``(src, 2 dst)``, whose
    real product with real samples is the complex one's parts, interleaved.
    """
    if real_view:
        kernel = np.ascontiguousarray(_axis_kernel(src, dst, sign).T).view(float)
    else:
        kernel = np.exp(sign * TWO_PI_I * np.outer(dst.nodes, src.nodes)) * src.trapezoid_weights()
    kernel.flags.writeable = False
    return kernel


def _fiber_transform(values: np.ndarray, src: GridSpec, dst: GridSpec, sign: float) -> np.ndarray:
    """Apply the kernel ``exp(sign 2 pi i <dst, src>)`` times the ``src`` weights, axis by axis.

    Real samples take their first axis as one real GEMM against the kernel's
    real view; complex samples, and every axis after the first, a complex one.
    """
    nb = src.base_dim
    vals = values
    for k in range(src.fiber_dim):
        moved = np.moveaxis(vals, nb + k, -1)
        if np.iscomplexobj(moved):
            product = moved @ _axis_kernel(src.fiber[k], dst.fiber[k], sign).T
        else:
            product = (moved @ _axis_kernel(src.fiber[k], dst.fiber[k], sign, True)).view(complex)
        vals = np.moveaxis(product, -1, nb + k)
    return vals


def fourier_transform(f: SampledSymbol, mu_on_base=None, dual: GridSpec | None = None) -> SampledSymbol:
    """Fiberwise transform with kernel ``exp(-2 pi i <zeta, xi>)``.

    Returns samples on ``dual`` (default: the conjugate grid, whose spacing
    is the reciprocal of the primal span).
    """
    grid = f.grid
    if dual is None:
        dual = grid.dual()
    _check_base_axes(grid, dual)
    mu = _mu_base(mu_on_base, grid)
    vals = _fiber_transform(f.values, grid, dual, -1.0) * _with_fiber_axes(mu, dual)
    return SampledSymbol.wrap(vals, dual)


def inverse_fourier(F: SampledSymbol, mu_on_base, primal: GridSpec) -> SampledSymbol:
    """Inverse of :func:`fourier_transform` under the same convention, back onto ``primal``."""
    dual = F.grid
    _check_base_axes(dual, primal)
    mu = _mu_base(mu_on_base, primal)
    vals = _fiber_transform(F.values, dual, primal, 1.0) / _with_fiber_axes(mu, primal)
    return SampledSymbol.wrap(vals, primal)


def select_dual_grid(
    grid: GridSpec,
    sampled: list[SampledSymbol],
    mu_on_base=None,
) -> tuple[GridSpec, list[SampledSymbol]]:
    """Conjugate dual grid, with a decay check at its boundary.

    Returns the dual grid and the transforms of ``sampled`` on it, in order;
    the decay check computes them anyway, so callers reuse them rather than
    transforming again.  :func:`fourier_check` passes every symbol it
    transforms (f, g, their convolution and their bracket) in one call, so
    the check covers them all.

    The conjugate grid already spans every frequency the primal sampling can
    represent (the discrete transform is periodic beyond it), so no widening
    can help: when a transform is still above 1e-10 of its peak at
    the boundary the primal grid is too coarse for that symbol.  That is
    reported as a DecayWarning (an error where the caller's warnings filter
    promotes it, as strict CLI runs do); downstream residuals then sit at the
    quadrature-limited level.
    """
    dual = grid.dual()
    transforms = [fourier_transform(s, mu_on_base, dual) for s in sampled]
    worst = max([0.0] + [boundary_fraction(F.values) for F in transforms])
    if worst >= DUAL_DECAY_THRESHOLD:
        warnings.warn(
            f"a transform only decays to {worst:.3e} of its peak at the dual "
            f"boundary (threshold {DUAL_DECAY_THRESHOLD:.0e}); the primal grid is too coarse",
            DecayWarning,
            stacklevel=2,
        )
    return dual, transforms


# ---------------------------------------------------------------------------
# bracket on the convolution side
# ---------------------------------------------------------------------------

def _op_grid_check(op: Operand, grid: GridSpec):
    if isinstance(op, SampledSymbol) and op.grid != grid:
        raise GridMismatchError("sampled operand lives on a different grid")


def _op_values(op: Operand, grid: GridSpec, name: str) -> np.ndarray:
    if isinstance(op, SymbolSpec):
        return eval_symbol(op, grid, name=name).values
    return op.values


def _algebroid_data(chart: GroupoidChart, grid: GridSpec) -> AlgebroidData:
    """The algebroid data of ``chart`` at the grid's base nodes."""
    from .algebroid import extract_algebroid  # here, so that a process that never brackets never loads it

    return extract_algebroid(chart, grid.base_points_flat())


def poisson_bracket(f: Operand, g: Operand, chart: GroupoidChart, grid: GridSpec) -> SampledSymbol:
    """Bracket of two symbols over the convolution product, sampled on ``grid``.

    The algebroid data and the unit weight come from ``chart`` at the grid's
    base nodes.  ``f`` and ``g`` may be analytic symbols or samples on
    ``grid``; with sampled operands the coordinate multiplications act on
    node values and the derivatives fall back to high-order central
    stencils.  Decay warnings name the sampled symbol by operand and
    operation, e.g. ``d/dxi_2 (xi_1 f)``.

    In spectral space: the coefficients (``a_ij``, ``a_ij lg_j``, ``-c_ijk / 2``)
    are real functions of the base point, so each distinct operand is
    transformed once, ``c (F(a w) F(b) - F(c w) F(d))`` is summed in term order
    and one inverse transform ends it.  Swapping f and g swaps the two products
    of every term, which negates the result bitwise.  A real bracket /
    (2 pi i) takes the real FFT, and the result's real part is +0.
    """
    _op_grid_check(f, grid)
    _op_grid_check(g, grid)
    mu = unit_weight_on_grid(chart, grid)
    data = _algebroid_data(chart, grid)
    n, m = grid.base_dim, grid.fiber_dim
    base_shape = grid.base_shape

    anchor = data.anchor.reshape(base_shape + (m, n))
    structure = data.structure.reshape(base_shape + (m, m, m))
    log_grad = data.log_weight_grad.reshape(base_shape + (n,))

    samples: dict = {}

    def sample(op: Operand, name: str) -> str:
        if name not in samples:
            samples[name] = _op_values(op, grid, name)
        return name

    terms = []  # (coefficient, a, b, c, d) by sample name: coefficient (a w * b - c w * d)
    f_mult = [sample(f.fiber_multiply(i), f"xi_{i + 1} f") for i in range(m)]
    g_mult = [sample(g.fiber_multiply(i), f"xi_{i + 1} g") for i in range(m)]
    f_dx = [sample(f.derivative("x", j), f"d/dx_{j + 1} f") for j in range(n)]
    g_dx = [sample(g.derivative("x", j), f"d/dx_{j + 1} g") for j in range(n)]

    # anchor and weight terms
    for i in range(m):
        for j in range(n):
            a_ij = anchor[..., i, j]
            if np.any(a_ij != 0.0):
                terms.append((a_ij, f_mult[i], g_dx[j], g_mult[i], f_dx[j]))
                coupling = a_ij * log_grad[..., j]
                if np.any(coupling != 0.0):
                    own_f, own_g = sample(f, "f"), sample(g, "g")
                    terms.append((coupling, f_mult[i], own_g, g_mult[i], own_f))

    # structure-constant terms, explicitly antisymmetrized
    def d_first(op: Operand, which: str, i: int, k: int) -> str:
        return sample(op.fiber_multiply(i).derivative("xi", k), f"d/dxi_{k + 1} (xi_{i + 1} {which})")

    for i, j, k in itertools.product(range(m), repeat=3):
        c_ijk = structure[..., i, j, k]
        if np.any(c_ijk != 0.0):
            terms.append((-0.5 * c_ijk, d_first(f, "f", i, k), g_mult[j], d_first(g, "g", i, k), f_mult[j]))

    real = not any(np.iscomplexobj(v) for v in samples.values())
    spectra = _Spectra(grid, real)
    transform = functools.cache(lambda name, weighted: spectra.transform(samples[name], weighted))
    product = lambda a, b: transform(a, True) * transform(b, False)

    spectrum = sum(_with_fiber_axes(w, grid) * (product(a, b) - product(c, d)) for w, a, b, c, d in terms)
    values = np.zeros(grid.shape, dtype=complex)
    if terms and real:  # TWO_PI_I * x would give the real part -0 where x < 0
        values.imag = TWO_PI_I.imag * spectra.convolution(spectrum, mu)
    elif terms:
        values = TWO_PI_I * spectra.convolution(spectrum, mu)
    return SampledSymbol(values=values, grid=grid)


# ---------------------------------------------------------------------------
# bracket on the dual side
# ---------------------------------------------------------------------------

def dual_poisson_bracket(F: SampledSymbol, G: SampledSymbol, chart: GroupoidChart) -> SampledSymbol:
    """Poisson bracket of fiberwise transforms on the dual grid.

    The algebroid data comes from ``chart`` at the grid's base nodes.  The
    result is minus the anchor part minus the structure-constant part: the
    signs that the transform convention gives the convolution-side bracket
    (module docstring), so :func:`fourier_check` compares the transformed
    bracket against this one directly.  Derivatives are central differences
    on the dual grid, each of ``F`` and ``G`` taken once.
    """
    grid = require_same_grid(F, G)
    data = _algebroid_data(chart, grid)
    n, m = grid.base_dim, grid.fiber_dim
    base_shape = grid.base_shape

    anchor = data.anchor.reshape(base_shape + (m, n))
    structure = data.structure.reshape(base_shape + (m, m, m))

    F_zeta = [F.derivative("xi", i).values for i in range(m)]
    G_zeta = [G.derivative("xi", i).values for i in range(m)]
    F_x = [F.derivative("x", j).values for j in range(n)]
    G_x = [G.derivative("x", j).values for j in range(n)]

    anchor_part = np.zeros(grid.shape, dtype=complex)
    for i in range(m):
        for j in range(n):
            a_ij = anchor[..., i, j]
            if np.any(a_ij != 0.0):
                anchor_part += _with_fiber_axes(a_ij, grid) * (
                    F_zeta[i] * G_x[j] - G_zeta[i] * F_x[j]
                )
    structure_part = np.zeros(grid.shape, dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                c_ijk = structure[..., i, j, k]
                if not np.any(c_ijk != 0.0):
                    continue
                zeta_k = axis_plane(grid.fiber[k].nodes, grid.base_dim + k, len(grid.shape))
                structure_part += (
                    _with_fiber_axes(c_ijk, grid)
                    * zeta_k
                    * (F_zeta[i] * G_zeta[j] - F_zeta[j] * G_zeta[i])
                )
    return SampledSymbol(values=-anchor_part - structure_part, grid=grid)


# ---------------------------------------------------------------------------
# the fourier-check: round trip, convolution theorem, intertwining
# ---------------------------------------------------------------------------

class FourierCheck(NamedTuple):
    """Residuals of :func:`fourier_check`; ``intertwining`` is None where the unit weight is not 1."""

    roundtrip: float
    convolution_theorem: float
    intertwining: float | None


def fourier_check(f: SymbolSpec, g: SymbolSpec, chart: GroupoidChart, grid: GridSpec) -> FourierCheck:
    """Transform conventions checked on ``f`` and ``g`` with the unit weight of ``chart``.

    * round trip: the inverse transform of ``F f`` against ``f``;
    * convolution theorem: ``F (f * g)`` against ``F f F g``;
    * intertwining, on a chart whose unit weight is the constant 1
      (:func:`is_unit_weight`): the transformed bracket against the
      dual-side bracket of ``F f`` and ``F g`` (:func:`poisson_bracket`
      against :func:`dual_poisson_bracket`).

    Each residual is a relative sup mismatch; a non-finite intertwining
    residual raises GroupoidLabError.  f, g, their convolution and (with
    unit weight) their bracket are sampled once and transformed once,
    together by :func:`select_dual_grid`, so its decay check sees all four;
    the round trip adds one inverse transform.
    """
    mu = unit_weight_on_grid(chart, grid)
    fs = eval_symbol(f, grid, name="f")
    gs = eval_symbol(g, grid, name="g")
    sampled = [fs, gs, fiber_convolve(fs, gs, mu)]
    unit = is_unit_weight(mu)
    if unit:
        sampled.append(poisson_bracket(f, g, chart, grid))
    _, transforms = select_dual_grid(grid, sampled, mu_on_base=mu)
    Ff, Fg, Fconv = transforms[:3]

    back = inverse_fourier(Ff, mu, grid)
    roundtrip = float(np.max(np.abs(back.values - fs.values))) / scale_of(fs.values)
    product = Ff.values * Fg.values
    convolution = float(np.max(np.abs(Fconv.values - product))) / scale_of(Fconv.values, product)
    intertwining = None
    if unit:
        lhs, rhs = transforms[3].values, dual_poisson_bracket(Ff, Fg, chart).values
        intertwining = float(np.max(np.abs(lhs - rhs))) / scale_of(lhs, rhs)
        if not np.isfinite(intertwining):
            raise GroupoidLabError("intertwining residual is not finite")
    return FourierCheck(roundtrip, convolution, intertwining)

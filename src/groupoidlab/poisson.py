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
functions take the weight explicitly as ``mu_on_base`` (default 1).

Conventions fixed here and validated end to end by the classical-limit and
intertwining tests:

* fiber measure = unit_weight(x) times Lebesgue measure in frame coordinates,
* Fourier kernel ``exp(-2 pi i <zeta, xi>)`` with no prefactor,
* ``xi_i f * dg/dx_j`` parses as (coordinate-multiplied f) convolved with
  (derivative of g),
* the fiber derivative in the structure-constant term is applied analytically
  to the first convolution factor, in an explicitly antisymmetrized form so
  the bracket changes sign bitwise under swapping its arguments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .algebroid import DEFAULT_FD_STEP, AlgebroidData, extract_algebroid
from .charts import GroupoidChart
from .errors import DecayWarning, GridMismatchError, GroupoidLabError
from .grids import GridSpec, SampledSymbol, boundary_fraction, require_same_grid, scale_of
from .symbols import SymbolSpec, eval_symbol

TWO_PI_I = 2j * np.pi
DUAL_DECAY_THRESHOLD = 1e-10  # boundary fraction a transform must stay below

Operand = Union[SymbolSpec, SampledSymbol]

# preference order for tie-breaking: charts that fix only one of the two
# signs (no anchor, or no structure constants) still report the same pair
SIGN_CHOICES = ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0))


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

def _convolve_values(fv: np.ndarray, gv: np.ndarray, grid: GridSpec, mu: np.ndarray) -> np.ndarray:
    # zero-padded FFT over the fiber axes; length 2 * count is even and
    # composite (2 * count - 1 can be prime) and leaves no wrap-around
    counts = grid.fiber_shape
    axes = tuple(range(grid.base_dim, grid.base_dim + grid.fiber_dim))
    size = [2 * c for c in counts]
    spectrum = np.fft.fftn(fv * grid.fiber_weights(), size, axes)
    spectrum *= np.fft.fftn(gv, size, axes)
    full = np.fft.ifftn(spectrum, size, axes)
    window = (Ellipsis,) + tuple(slice((c - 1) // 2, (c - 1) // 2 + c) for c in counts)
    return full[window] * _with_fiber_axes(mu, grid)


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


def _fiber_transform(values: np.ndarray, src: GridSpec, dst: GridSpec, sign: float) -> np.ndarray:
    """Apply the kernel ``exp(sign 2 pi i <dst, src>)`` times the ``src`` weights, axis by axis."""
    nb = src.base_dim
    vals = values.astype(complex)
    for k in range(src.fiber_dim):
        src_ax, dst_ax = src.fiber[k], dst.fiber[k]
        phase = sign * TWO_PI_I * np.outer(dst_ax.nodes, src_ax.nodes)
        kernel = np.exp(phase) * src_ax.trapezoid_weights()
        moved = np.moveaxis(vals, nb + k, -1)
        vals = np.moveaxis(moved @ kernel.T, -1, nb + k)
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


def inverse_fourier(F: SampledSymbol, mu_on_base=None, primal: GridSpec | None = None) -> SampledSymbol:
    """Inverse of :func:`fourier_transform` under the same convention."""
    dual = F.grid
    if primal is None:
        raise ValueError("inverse_fourier needs the primal grid")
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
    transforming again.

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


def poisson_bracket(
    f: Operand,
    g: Operand,
    chart: GroupoidChart,
    grid: GridSpec,
    fd_step: float = DEFAULT_FD_STEP,
) -> SampledSymbol:
    """Bracket of two symbols over the convolution product, sampled on ``grid``.

    The algebroid data (finite-difference step ``fd_step``) and the unit
    weight come from ``chart`` at the grid's base nodes.  ``f`` and ``g`` may
    be analytic symbols or samples on ``grid``; with sampled operands the
    coordinate multiplications act on node values and the derivatives fall
    back to high-order central stencils.  The result is antisymmetric under
    swapping ``f`` and ``g`` bitwise.  Decay warnings name the sampled
    symbol by operand and operation, e.g. ``d/dxi_2 (xi_1 f)``.
    """
    mu = unit_weight_on_grid(chart, grid)
    return _bracket(f, g, extract_algebroid(chart, grid.base_points_flat(), fd_step), grid, mu)


def _bracket(
    f: Operand, g: Operand, data: AlgebroidData, grid: GridSpec, mu: np.ndarray
) -> SampledSymbol:
    """:func:`poisson_bracket` on data tabulated at the base nodes of ``grid`` and weight ``mu``."""
    _op_grid_check(f, grid)
    _op_grid_check(g, grid)
    n, m = grid.base_dim, grid.fiber_dim
    base_shape = grid.base_shape

    anchor = data.anchor.reshape(base_shape + (m, n))
    structure = data.structure.reshape(base_shape + (m, m, m))
    log_grad = data.log_weight_grad.reshape(base_shape + (n,))

    conv = lambda av, bv: _convolve_values(av, bv, grid, mu)

    own: dict = {}  # samples of f and g themselves, read only by the weight coupling
    f_mult = [_op_values(f.fiber_multiply(i), grid, f"xi_{i + 1} f") for i in range(m)]
    g_mult = [_op_values(g.fiber_multiply(i), grid, f"xi_{i + 1} g") for i in range(m)]
    f_dx = [_op_values(f.derivative("x", j), grid, f"d/dx_{j + 1} f") for j in range(n)]
    g_dx = [_op_values(g.derivative("x", j), grid, f"d/dx_{j + 1} g") for j in range(n)]

    out = np.zeros(grid.shape, dtype=complex)

    # anchor and weight terms
    for i in range(m):
        convs_weight = None
        for j in range(n):
            a_ij = anchor[..., i, j]
            lg_j = log_grad[..., j]
            if np.any(a_ij != 0.0):
                diff = conv(f_mult[i], g_dx[j]) - conv(g_mult[i], f_dx[j])
                out += TWO_PI_I * _with_fiber_axes(a_ij, grid) * diff
                coupling = a_ij * lg_j
                if np.any(coupling != 0.0):
                    if convs_weight is None:
                        if not own:
                            own.update(f=_op_values(f, grid, "f"), g=_op_values(g, grid, "g"))
                        convs_weight = conv(f_mult[i], own["g"]) - conv(g_mult[i], own["f"])
                    out += TWO_PI_I * _with_fiber_axes(coupling, grid) * convs_weight

    # structure-constant terms, explicitly antisymmetrized
    d_cache: dict = {}

    def d_first(which: str, i: int, k: int) -> np.ndarray:
        key = (which, i, k)
        if key not in d_cache:
            source = f if which == "f" else g
            name = f"d/dxi_{k + 1} (xi_{i + 1} {which})"
            d_cache[key] = _op_values(source.fiber_multiply(i).derivative("xi", k), grid, name)
        return d_cache[key]

    for i in range(m):
        for j in range(m):
            for k in range(m):
                c_ijk = structure[..., i, j, k]
                if not np.any(c_ijk != 0.0):
                    continue
                term = conv(d_first("f", i, k), g_mult[j]) - conv(
                    d_first("g", i, k), f_mult[j]
                )
                out += (-0.5 * TWO_PI_I) * _with_fiber_axes(c_ijk, grid) * term

    return SampledSymbol(values=out, grid=grid)


# ---------------------------------------------------------------------------
# bracket on the dual side
# ---------------------------------------------------------------------------

def _dual_bracket_parts(
    F: SampledSymbol, G: SampledSymbol, data: AlgebroidData
) -> tuple[np.ndarray, np.ndarray]:
    """Anchor part and structure-constant part of the dual bracket, without signs.

    Each central-difference derivative of ``F`` and ``G`` is taken once.
    """
    grid = require_same_grid(F, G)
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
                ax = grid.fiber[k]
                shape = [1] * len(grid.shape)
                shape[grid.base_dim + k] = ax.count
                zeta_k = ax.nodes.reshape(shape)
                structure_part += (
                    _with_fiber_axes(c_ijk, grid)
                    * zeta_k
                    * (F_zeta[i] * G_zeta[j] - F_zeta[j] * G_zeta[i])
                )
    return anchor_part, structure_part


def _oriented_dual_bracket(parts: tuple[np.ndarray, np.ndarray], signs) -> np.ndarray:
    """``s1 * anchor_part + s2 * structure_part`` for ``signs = (s1, s2)``."""
    anchor_part, structure_part = parts
    return float(signs[0]) * anchor_part + float(signs[1]) * structure_part


def dual_poisson_bracket(
    F: SampledSymbol,
    G: SampledSymbol,
    chart: GroupoidChart,
    signs: tuple[float, float] = (-1.0, -1.0),
    fd_step: float = DEFAULT_FD_STEP,
) -> SampledSymbol:
    """Poisson bracket of fiberwise transforms on the dual grid.

    The algebroid data comes from ``chart`` at the grid's base nodes.
    ``signs`` fixes the orientation of the anchor part and of the
    structure-constant part; :func:`intertwining_residual` discovers the pair
    that matches the convolution-side bracket through the Fourier transform.
    Derivatives are central differences on the dual grid.
    """
    data = extract_algebroid(chart, F.grid.base_points_flat(), fd_step)
    values = _oriented_dual_bracket(_dual_bracket_parts(F, G, data), signs)
    return SampledSymbol(values=values, grid=F.grid)


# ---------------------------------------------------------------------------
# intertwining check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntertwiningResult:
    residual: float
    signs: tuple[float, float]
    per_sign: dict


def intertwining_residual(
    f: SymbolSpec,
    g: SymbolSpec,
    chart: GroupoidChart,
    grid: GridSpec,
    fd_step: float = DEFAULT_FD_STEP,
) -> IntertwiningResult:
    """Mismatch between the transformed bracket and the dual-side bracket.

    Requires a chart whose unit weight is the constant 1 on the grid
    (:func:`is_unit_weight`); the bracket and the dual side share one
    extraction of the algebroid data.  Returns the smallest relative sup
    mismatch over the four sign orientations of the dual bracket, with the
    minimizing pair; callers compare the pair across symbol pairs and charts.
    Raises GroupoidLabError when no orientation gives a finite mismatch.

    ``f``, ``g`` and their bracket are transformed once, by
    :func:`select_dual_grid`.  The dual-side derivatives are taken once too;
    each orientation only recombines the unsigned anchor and
    structure-constant parts.
    """
    mu = unit_weight_on_grid(chart, grid)
    if not is_unit_weight(mu):
        raise GroupoidLabError("intertwining check requires unit weight == 1")

    fs = eval_symbol(f, grid, name="f")
    gs = eval_symbol(g, grid, name="g")
    data = extract_algebroid(chart, grid.base_points_flat(), fd_step)
    bracket = _bracket(f, g, data, grid, mu)

    _, (Ff, Fg, Fbracket) = select_dual_grid(grid, [fs, gs, bracket], mu_on_base=mu)
    lhs = Fbracket.values
    parts = _dual_bracket_parts(Ff, Fg, data)

    per_sign = {}
    best_signs = None
    best = np.inf
    for signs in SIGN_CHOICES:
        rhs = _oriented_dual_bracket(parts, signs)
        residual = float(np.max(np.abs(lhs - rhs))) / scale_of(lhs, rhs)
        per_sign[signs] = residual
        if residual < best:
            best = residual
            best_signs = signs
    if best_signs is None:
        raise GroupoidLabError("intertwining residual is not finite for any sign pair")
    return IntertwiningResult(residual=best, signs=best_signs, per_sign=per_sign)


# ---------------------------------------------------------------------------
# convention checks used by the fourier-check command
# ---------------------------------------------------------------------------

def roundtrip_residual(f: SymbolSpec, grid: GridSpec, mu_on_base=None) -> float:
    fs = eval_symbol(f, grid)
    mu = _mu_base(mu_on_base, grid)
    _, (F,) = select_dual_grid(grid, [fs], mu_on_base=mu)
    back = inverse_fourier(F, mu, grid)
    return float(np.max(np.abs(back.values - fs.values))) / scale_of(fs.values)


def convolution_theorem_residual(
    f: SymbolSpec, g: SymbolSpec, grid: GridSpec, mu_on_base=None
) -> float:
    fs = eval_symbol(f, grid)
    gs = eval_symbol(g, grid)
    mu = _mu_base(mu_on_base, grid)
    conv = fiber_convolve(fs, gs, mu)
    _, (Ff, Fg, Fconv) = select_dual_grid(grid, [fs, gs, conv], mu_on_base=mu)
    lhs = Fconv.values
    rhs = Ff.values * Fg.values
    return float(np.max(np.abs(lhs - rhs))) / scale_of(lhs, rhs)

"""Deformed convolution in blow-up coordinates and the classical-limit study.

Chart density of the fiberwise measure
--------------------------------------
Convolution along range fibers needs the density ``rho(u, v)`` of the
left-invariant fiber measure in chart coordinates.  Left translation by the
arrow over ``(u, v0)`` maps the fiber over ``source_map(u, v0)`` to the fiber
over ``u`` via ``w -> product(u, v0, w)``; pushing the measure through this
map and comparing densities gives

    rho(source_map(u, v0), w) = rho(u, product(u, v0, w))
                                * |det d/dw product(u, v0, w)|.

Setting ``w = 0`` and normalizing the density at units by the unit weight,
``rho(u, 0) = unit_weight(u)``, determines the density everywhere:

    rho(u, v) = unit_weight(source_map(u, v))
                / |det d/dw product(u, v, 0)|.

Deformed product
----------------
At parameter ``t`` the group coordinate is scaled, ``v = t * xi``, and the
fiber measure is rescaled by ``1/|t|^m``.  Writing the convolution of two
sections that are constant in the scaled coordinates and substituting
``v' = t * eta`` (whose Jacobian ``|t|^m`` cancels the rescaling exactly, so
no ``1/t`` powers ever appear numerically) yields

    (f *_t g)(u, xi) = sum_eta f0(u, eta)
                       * g0(source_map(u, t eta), w(u, t eta, t xi) / t)
                       * rho(u, t eta) * quad_weight(eta),

where ``w(u, v', v)`` solves ``product(u, v', w) = v``.  The transport, that
is ``w``, ``source_map(u, t eta)`` and ``rho(u, t eta)``, depends on ``t`` and
the grid only; ``_Transport`` solves it per ``t`` and block of output nodes.
A block holds about ``_BLOCK_POINTS`` transported points (``K * H`` per
output node), so memory does not grow with the grid and each block's points
and symbol values stay in cache.  The points are coordinate-major and
output-major: a block's ``(K, A, H, m)`` points are a view of ``(m, K, A,
H)`` memory, so each coordinate is one plane whose contiguous inner axis
runs over the ``H`` integration nodes, and the chart maps, the solver's
contract check and the symbol evaluation all loop over long contiguous
rows.  Each worker thread allocates a block's arrays (points, residual,
symbol values and their exponent scratch) once per ``t`` and reuses them for
every later block.  On a block :func:`scaled_commutator` evaluates both
orderings, :func:`deformed_product` one, and
:func:`groupoidlab.normfield.group_regular_norm` assembles the matrix of
``g -> f *_t g``.  The product sums each output value over the contiguous
integration nodes with einsum's vector partial sums, not in node order; the
sum is the same for any block size and worker count, so the values are too.
As ``t -> 0`` the scaled commutator ``(f *_t g - g *_t f) / t`` converges to
``1/(2 pi i)`` times the bracket under the chart's unit weight;
:func:`classical_limit_error_table` measures that convergence.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .charts import GroupoidChart, _in_box, _sample_box, solve_product
from .config import deformation_domain_problems
from .errors import DomainError, GroupoidLabError, SingularJacobianError
from .grids import GridSpec, SampledSymbol, scale_of
from .poisson import TWO_PI_I, poisson_bracket
from .symbols import SymbolSpec

Operand = Union[SymbolSpec, SampledSymbol]

# transported points (K * H per output node) in one block of output nodes:
# a block's (m, K, A, H) points take 0.5-1.5 MB and each (K, A, H) float64
# array 0.5 MB, so the ~20 passes of one symbol evaluation run in cache.
# `deform` on heisenberg 13^3 + pair 129^2, fresh processes, medians of 22
# interleaved runs on a 2-core host: 1 << 15 0.98 + 0.48 s, 1 << 16
# 1.00 + 0.46 s, 1 << 17 1.08 + 0.47 s
_BLOCK_POINTS = 1 << 16


def haar_density(chart: GroupoidChart, u, v) -> np.ndarray:
    """Chart density of the left-invariant fiber measure (see module docs).

    ``rho(u, v) = unit_weight(source_map(u, v)) / |det product_w_jacobian(u, v, 0)|``;
    positive wherever defined, equal to the unit weight at ``v = 0``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    sigma = chart.source_map(u, v)
    mu = np.asarray(chart.unit_weight(sigma), dtype=float)
    zeros = np.zeros_like(v)
    jac = chart.product_w_jacobian(u, v, zeros)
    det = np.abs(np.linalg.det(jac))
    if det.size and not float(np.min(det)) >= 1e-13:
        raise SingularJacobianError("product Jacobian is singular at the unit section")
    return mu / det


def left_invariance_residual(chart: GroupoidChart, sample_count: int = 100, seed: int = 0) -> float:
    """Max violation of the density's left-invariance identity at random points."""
    rng = np.random.default_rng(seed)
    u = _sample_box(rng, chart.base_box, sample_count, 0.25)
    v = _sample_box(rng, chart.fiber_box, sample_count, 0.25)
    w = _sample_box(rng, chart.fiber_box, sample_count, 0.25)
    keep = _in_box(chart.product(u, v, w), chart.fiber_box)
    keep &= _in_box(chart.source_map(u, v), chart.base_box)
    u, v, w = u[keep], v[keep], w[keep]
    if u.shape[0] == 0:
        raise GroupoidLabError("no admissible sample points for the invariance check")

    lhs = haar_density(chart, u, chart.product(u, v, w)) * np.abs(
        np.linalg.det(chart.product_w_jacobian(u, v, w))
    )
    rhs = haar_density(chart, chart.source_map(u, v), w)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# deformation field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeformationField:
    """Chart, grid, symbol pair and scale sweep for the limit study.

    The sections are constant in blow-up coordinates: at every ``t`` the same
    coordinate expressions ``f0`` and ``g0`` are used.  Every ``t`` must keep
    all evaluation points inside the chart boxes, and the sweep must follow
    the rule of :func:`groupoidlab.config.sweep_problems` (t nonzero, |t|
    strictly decreasing).
    """

    chart: GroupoidChart
    grid: GridSpec
    f0: SymbolSpec
    g0: SymbolSpec
    t_values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "t_values", tuple(float(t) for t in self.t_values))
        problems = deformation_domain_problems(self.chart, self.grid, self.t_values)
        if problems:
            raise GroupoidLabError("; ".join(problems))


def _coordinate_major(points: np.ndarray) -> np.ndarray:
    """A copy of ``(..., m)`` points with the coordinate axis outermost in memory, viewed as ``(..., m)``."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(points, -1, 0)), 0, -1)


class _Transport:
    """The part of the deformed product that depends on ``t`` and the grid only.

    Setup checks ``t`` and the domain and takes the Haar density at the
    integration nodes; :meth:`solve` transports a block of output nodes and
    :meth:`evaluate` reads a symbol at the transported points.  Points keep
    their ``(..., m)`` shape but are views of coordinate-major memory: ``v =
    t eta`` is ``(1, 1, H, m)`` over ``(m, H)``, a block's points are ``(K, A,
    H, m)`` over ``(m, K, A, H)``, so every map, check and symbol evaluation
    runs inner loops over the ``H`` integration nodes.  The block's points,
    its contract-check residual, its symbol values and their two exponent
    arrays are allocated once per thread and reused by every later block.
    """

    def __init__(self, chart: GroupoidChart, grid: GridSpec, t: float):
        if t == 0.0:
            raise GroupoidLabError("deformed product needs t != 0")
        problems = deformation_domain_problems(chart, grid, [t])
        if problems:
            raise DomainError("; ".join(problems))
        self.chart, self.t = chart, t
        self.fiber_pts = grid.fiber_points_flat()  # (H, m)
        self.base = grid.base_points_flat()[:, None, None, :]  # (K, 1, 1, n)
        self.v_eta = _coordinate_major(t * self.fiber_pts)[None, None]  # (1, 1, H, m)
        self.rho = haar_density(chart, self.base[:, 0], self.v_eta[:, 0])  # (K, H)
        self.weights = grid.fiber_weights().reshape(-1)  # (H,)
        self._buffers = threading.local()

    def coefficient(self, f0: Operand) -> np.ndarray:
        """``(K, H)`` coefficients ``f0 * rho * weight``, in ``f0``'s dtype; ``f0`` is read at nodes only."""
        if isinstance(f0, SymbolSpec):
            values = f0.evaluate(self.base[:, 0], self.fiber_pts[None])
        else:
            values = f0.values.reshape(self.rho.shape)
        return values * self.rho * self.weights

    def _buffer(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """This thread's array ``name`` of ``shape``: the head of a flat buffer kept for later blocks."""
        buffers, key, size = self._buffers.__dict__, (name, dtype), math.prod(shape)
        if key not in buffers or buffers[key].size < size:
            buffers[key] = np.empty(size, dtype)
        return buffers[key][:size].reshape(shape)

    def solve(self, start: int, stop: int) -> np.ndarray:
        """``(K, A, H, m)`` points ``w / t``, ``product(u, t eta, w) = t xi`` for xi in ``start:stop``.

        A view of this thread's ``(m, K, A, H)`` buffer, overwritten by its next call.
        """
        K, H = self.rho.shape
        shape = (self.chart.fiber_dim, K, stop - start, H)
        points = np.moveaxis(self._buffer("points", shape), 0, -1)
        residual = np.moveaxis(self._buffer("residual", shape), 0, -1)
        target = self.v_eta[:, :, start:stop].transpose(0, 2, 1, 3)  # t xi, (1, A, 1, m)
        w = solve_product(self.chart, self.base, self.v_eta, target, out=points, residual=residual)
        w /= self.t
        return w

    def evaluate(self, g0: Operand, sigma: np.ndarray, points: np.ndarray) -> np.ndarray:
        """``(K, A, H)`` values of ``g0`` at the block's points, over ``sigma`` (``(K, 1, H, n)``).

        An analytic ``g0`` writes into this thread's buffers, overwritten by its next call.
        """
        if not isinstance(g0, SymbolSpec):
            return g0.evaluate(sigma, points)
        batch = points.shape[:-1]
        scratch = (self._buffer("exponent", batch), self._buffer("square", batch))
        return g0.evaluate(sigma, points, out=self._buffer("values", batch, g0.dtype), scratch=scratch)


def _deformed_products(
    chart: GroupoidChart,
    grid: GridSpec,
    pairs: Sequence[tuple[Operand, Operand]],
    t: float,
    workers: int,
) -> list[np.ndarray]:
    """``(K, H)`` values of ``f *_t g`` for every ``(f, g)`` in ``pairs``.

    The output nodes go in blocks of about ``_BLOCK_POINTS`` transported
    points, ``K * H`` per node, so a block's points and symbol values stay in
    cache; each block is transported once and every pair reads it.  A real
    ``g0`` is contracted with the real and, for a complex ``f0``, the
    imaginary part of the coefficient in float64 einsums.  Each output value
    is one einsum sum over the contiguous integration-node axis of one block
    row, which sums with vector partial sums, not in node order; the row and
    so the sum are the same whatever the blocks, so the values do not depend
    on the block size or the worker count.
    """
    transport = _Transport(chart, grid, t)
    K, H = transport.rho.shape
    sigma = _coordinate_major(chart.source_map(transport.base, transport.v_eta))  # (K, 1, H, n)
    coeffs = [transport.coefficient(f0) for f0, _ in pairs]  # (K, H) in each f0's dtype
    parts = [
        (c, np.ascontiguousarray(c.real), np.ascontiguousarray(c.imag) if np.iscomplexobj(c) else None)
        for c in coeffs
    ]

    outs = [np.zeros((K, H), dtype=complex) for _ in pairs]
    bounds = list(range(0, H, max(1, _BLOCK_POINTS // (K * H)))) + [H]

    def run(block: int):
        start, stop = bounds[block], bounds[block + 1]
        points = transport.solve(start, stop)
        for (_, g0), (coeff, real, imag), out in zip(pairs, parts, outs):
            values = transport.evaluate(g0, sigma, points)
            if np.iscomplexobj(values):
                out[:, start:stop] = np.einsum("kh,kah->ka", coeff, values, optimize=False)
            else:
                out.real[:, start:stop] = np.einsum("kh,kah->ka", real, values, optimize=False)
                if imag is not None:
                    out.imag[:, start:stop] = np.einsum("kh,kah->ka", imag, values, optimize=False)

    blocks = range(len(bounds) - 1)
    if workers <= 1 or len(blocks) == 1:
        for b in blocks:
            run(b)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, blocks))
    return outs


def deformed_product(
    chart: GroupoidChart,
    grid: GridSpec,
    f0: Operand,
    g0: Operand,
    t: float,
    workers: int = 1,
) -> SampledSymbol:
    """Deformed convolution of two sections at parameter ``t`` (see module docs).

    The unit weight enters through the fiber density ``rho``, so no separate
    weight argument exists here.  ``f0`` is only evaluated at grid nodes;
    ``g0`` is evaluated at the transported points, exactly for analytic
    symbols and by multilinear interpolation for sampled ones; a real ``g0``
    is evaluated in float64.  The output is complex, sampled on ``grid``.
    Workers only run the fixed blocks of output nodes on threads; results
    are identical at any worker count and, with a ``product_solver`` (every
    chart affine and triangular in w), at any block size.
    """
    (values,) = _deformed_products(chart, grid, [(f0, g0)], t, workers)
    return SampledSymbol(values=values.reshape(grid.shape), grid=grid)


def deformed_convolution(field: DeformationField, t: float) -> SampledSymbol:
    return deformed_product(field.chart, field.grid, field.f0, field.g0, t)


def scaled_commutator(field: DeformationField, t: float, workers: int = 1) -> SampledSymbol:
    """(f *_t g - g *_t f) / t, the quantity whose ``t -> 0`` limit is checked.

    Both orderings share one transport; the values equal those of two
    :func:`deformed_product` calls bit for bit.
    """
    fg, gf = _deformed_products(
        field.chart, field.grid, [(field.f0, field.g0), (field.g0, field.f0)], t, workers
    )
    return SampledSymbol(values=((fg - gf) / t).reshape(field.grid.shape), grid=field.grid)


@dataclass(frozen=True)
class LimitTable:
    """Rows ``(t, error, ratio)`` of the classical-limit convergence study.

    ``error`` is the sup distance between the scaled commutator and
    ``1/(2 pi i)`` times the bracket; ``ratio`` divides each error by the
    previous row's.  ``observed_constant`` is the measured size of the scaled
    commutator at the smallest ``t`` relative to the bracket itself (the
    limiting value of that quotient is ``1/(2 pi)``).
    """

    rows: tuple[tuple[float, float, float], ...]
    bracket_sup: float
    observed_constant: float

    def ratios(self) -> list[float]:
        return [r[2] for r in self.rows[1:]]

    def errors_decreasing(self) -> bool:
        errs = [r[1] for r in self.rows]
        return all(b < a for a, b in zip(errs, errs[1:]))


def limit_sweep_problems(t_values: Sequence[float]) -> list[str]:
    """Violations of the limit-study rule: at least three t values, geometric within 1e-2."""
    if len(t_values) < 3:
        return ["the limit sweep needs at least three t values"]
    ratios = [b / a for a, b in zip(t_values, t_values[1:])]
    if max(ratios) - min(ratios) > 1e-2 * abs(ratios[0]):
        return ["t values must form a geometric progression"]
    return []


def classical_limit_error_table(
    field: DeformationField, fd_step: float = 1e-3, workers: int = 1
) -> LimitTable:
    """Convergence table of the scaled commutator toward the bracket limit.

    The bracket target carries the chart's unit weight, as the deformed
    product's Haar density does.
    """
    ts = field.t_values
    problems = limit_sweep_problems(ts)
    if problems:
        raise GroupoidLabError("; ".join(problems))

    bracket = poisson_bracket(field.f0, field.g0, field.chart, field.grid, fd_step)
    target = bracket.values / TWO_PI_I
    bracket_sup = scale_of(bracket.values)

    rows = []
    prev_err = None
    last_sup = 0.0
    for t in ts:
        commutator = scaled_commutator(field, t, workers=workers)
        err = float(np.max(np.abs(commutator.values - target)))
        ratio = float("nan") if prev_err in (None, 0.0) else err / prev_err
        rows.append((float(t), err, ratio))
        prev_err = err
        last_sup = float(np.max(np.abs(commutator.values)))

    observed = last_sup / bracket_sup if bracket_sup > 0 else float("nan")
    return LimitTable(rows=tuple(rows), bracket_sup=bracket_sup, observed_constant=observed)

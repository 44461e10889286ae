"""Operator-norm estimates for the family of deformed convolution operators.

Away from 0 the section acts through finite-dimensional discretizations: for
pair charts as an integral kernel on the base grid, for base-dimension-0
group charts as the matrix of the regular action on the fiber grid.  At 0 the
fiber algebra is commutative and the norm is the sup of the fiberwise Fourier
transform over a refined dual grid.  Only the regular (reduced) picture is
computed; every built-in chart here is amenable, where it coincides with the
full norm, and reports record that.  One-sided semicontinuity of the exact
norms is not certified numerically: at a fixed discretization only the
two-sided continuity check (differences shrinking along the sweep) is
falsifiable.

All matrices are conjugated by square roots of the quadrature weights so the
matrix 2-norm approximates the integral-operator norm, and the top singular
value is the square root of the top eigenvalue of the Gram matrix, from
LAPACK ``eigvalsh``; one inverse-iteration step supplies the eigen-residual
that the reports carry (see :func:`power_iteration_sigma`).  The
regular-action matrix is assembled in blocks of output rows from the
deformed product's transport (:class:`groupoidlab.deformation._Transport`),
one product solve and one ordered scatter per block, so it maps samples g
to ``f *_t g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charts import GroupoidChart
from .deformation import _Transport, sweep_problems
from .errors import ConvergenceError, DomainError, GroupoidLabError
from .grids import GridSpec, interpolation_corners
from .poisson import _mu_base, fourier_transform, select_dual_grid, unit_weight_on_grid
from .symbols import SymbolSpec, eval_symbol

# relative offset of the inverse-iteration shift above the top eigenvalue
_SHIFT = 1e-13

# scatter entries per row block of the regular-action assembly; each entry
# carries a complex value, a flat index and a weight, ~15 MB of temporaries
_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class NormRow:
    """One operator-norm estimate: parameter, value, eigen-residual, size."""

    t: float
    value: float
    residual: float
    size: int


@dataclass(frozen=True)
class NormCurve:
    """Sweep rows (t != 0, in sweep order) plus the commutative row at t = 0."""

    rows: tuple[NormRow, ...]
    zero: NormRow

    def deltas(self) -> list[float]:
        return [abs(r.value - self.zero.value) for r in self.rows]

    def deltas_decreasing(self) -> bool:
        d = self.deltas()
        return all(b <= a for a, b in zip(d, d[1:]))

    def final_delta_fraction(self) -> float:
        if self.zero.value == 0.0:
            return 0.0 if self.deltas()[-1] == 0.0 else float("inf")
        return self.deltas()[-1] / self.zero.value


def power_iteration_sigma(matrix: np.ndarray) -> tuple[float, float, int]:
    """Largest singular value of ``matrix`` from LAPACK ``eigvalsh`` of its Gram matrix.

    Returns ``(sigma, residual, iterations)``.  ``sigma`` is the square root
    of the top eigenvalue ``lam`` of the Gram matrix ``G``; no eigenvector is
    computed.  ``residual`` is the relative eigen-residual
    ``|G v - lam v| / lam`` of the unit vector ``v`` from one step of inverse
    iteration (Golub & Van Loan, *Matrix Computations*, ch. 8) with the shift
    ``lam * (1 + _SHIFT)`` and a fixed pseudo-random start vector.  The shift
    sits just above ``lam``, so ``G - shift`` stays invertible also where
    ``lam`` is an exact eigenvalue (a diagonal Gram matrix).  ``iterations``
    is always 0; the name and the triple stay because
    ``benchmarks/tracing.py`` patches this function by name and reads them.
    """
    matrix = np.asarray(matrix, dtype=complex)
    gram = matrix.conj().T @ matrix
    lam = float(np.linalg.eigvalsh(gram)[-1])
    if lam <= 0.0:
        return 0.0, 0.0, 0
    n = gram.shape[0]
    shift = lam * (1.0 + _SHIFT)
    gram.flat[:: n + 1] -= shift  # G - shift, in place
    v = np.linalg.solve(gram, np.random.default_rng(0).standard_normal(n))
    v /= np.linalg.norm(v)
    # G v - lam v = (G - shift) v + (shift - lam) v
    residual = float(np.linalg.norm(gram @ v + (shift - lam) * v)) / lam
    return float(np.sqrt(lam)), residual, 0


# ---------------------------------------------------------------------------
# the commutative fiber at t = 0
# ---------------------------------------------------------------------------

def zero_fiber_norm(f0: SymbolSpec, grid: GridSpec, mu_on_base=None) -> NormRow:
    """Sup of the fiberwise Fourier transform over base and dual nodes.

    Starts on the conjugate dual grid (:func:`select_dual_grid` warns when
    the transform has not decayed at its boundary), then refines it (spacing
    halved) until the sup moves by less than 1e-4 relatively; more than six
    refinements raise ConvergenceError.
    """
    sampled = eval_symbol(f0, grid, name="f0")
    mu = _mu_base(mu_on_base, grid)
    if not f0.terms:
        return NormRow(t=0.0, value=0.0, residual=0.0, size=0)

    dual, (transform,) = select_dual_grid(grid, [sampled], mu_on_base=mu)
    sup = float(np.max(np.abs(transform.values)))
    for _ in range(6):
        dual_next = dual.refine_fiber()
        sup_next = float(np.max(np.abs(fourier_transform(sampled, mu, dual_next).values)))
        change = abs(sup_next - sup) / max(sup_next, 1e-300)
        if change < 1e-4:
            size = int(np.prod(dual_next.fiber_shape)) * max(
                1, int(np.prod(dual_next.base_shape))
            )
            return NormRow(t=0.0, value=sup_next, residual=change, size=size)
        dual, sup = dual_next, sup_next
    raise ConvergenceError("dual-grid sup did not settle to 1.0e-04 within 6 refinements")


# ---------------------------------------------------------------------------
# pair charts: integral kernels on the base grid
# ---------------------------------------------------------------------------

def _pair_weighted_matrix(
    f0: SymbolSpec, t: float, grid: GridSpec, mu_on_base=None
) -> np.ndarray:
    if grid.base_dim == 0:
        raise GroupoidLabError("pair kernels need a base grid")
    n = grid.base_dim
    pts = grid.base_points_flat()  # (K, n)
    K = pts.shape[0]
    reach = max(abs(t) * ax.half_width for ax in grid.fiber)
    span = min(2.0 * ax.half_width for ax in grid.base)
    if reach > span:
        raise DomainError(
            f"kernel support t * fiber radius = {reach:.3g} exceeds the base span {span:.3g}"
        )
    x = pts[:, None, :]
    y = pts[None, :, :]
    kernel = f0.evaluate(np.broadcast_to(x, (K, K, n)), (y - x) / t) / abs(t) ** n
    mu = _mu_base(mu_on_base, grid).reshape(-1)
    kernel = kernel * mu[None, :]
    sqw = np.sqrt(grid.base_weights().reshape(-1))
    return sqw[:, None] * kernel * sqw[None, :]


def pair_kernel_norm(
    f0: SymbolSpec,
    t: float,
    grid: GridSpec,
    mu_on_base=None,
) -> NormRow:
    """Top singular value of the discretized kernel ``f0(x, (y-x)/t) / t^n``."""
    if t == 0.0:
        raise GroupoidLabError("pair kernel norm needs t != 0")
    weighted = _pair_weighted_matrix(f0, t, grid, mu_on_base)
    sigma, residual, _ = power_iteration_sigma(weighted)
    return NormRow(t=float(t), value=sigma, residual=residual, size=weighted.shape[0])


def pair_cstar_identity_residual(
    f0: SymbolSpec, t: float, grid: GridSpec, mu_on_base=None
) -> float:
    """Relative mismatch of ``norm(f conv f^*) = norm(f)^2`` at parameter ``t``.

    The adjoint kernel is the conjugate transpose; the composition is a
    matrix product, i.e. quadrature on the base grid, then both norms come
    from the same Gram-matrix eigensolve as the norm curve.
    """
    weighted = _pair_weighted_matrix(f0, t, grid, mu_on_base)
    sigma, _, _ = power_iteration_sigma(weighted)
    composed = weighted @ weighted.conj().T
    sigma2, _, _ = power_iteration_sigma(composed)
    if sigma == 0.0:
        return 0.0 if sigma2 == 0.0 else float("inf")
    return abs(sigma2 - sigma**2) / sigma**2


# ---------------------------------------------------------------------------
# base-dimension-0 group charts: regular action on the fiber grid
# ---------------------------------------------------------------------------

def _interp_scatter(points: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear weights of arbitrary fiber points onto the fiber nodes.

    Returns ``(flat_indices, weights)`` of shape (..., 2^m); contributions
    outside the grid get weight 0 (their index is clamped into the grid).
    """
    corners = list(interpolation_corners(grid.fiber, list(np.moveaxis(points, -1, 0))))
    indices = np.stack([index for index, _ in corners], axis=-1)
    weights = np.stack([weight for _, weight in corners], axis=-1)
    return indices, weights


def group_regular_norm(
    f0: SymbolSpec,
    chart: GroupoidChart,
    t: float,
    grid: GridSpec,
) -> NormRow:
    """Norm of the regular action of ``f0`` at parameter ``t`` on the fiber grid.

    The action matrix is assembled from the same integral as the deformed
    convolution with the second factor replaced by grid basis vectors
    (multilinear interpolation spreads each transported point over its cell's
    corners).  Only base-dimension-0 charts are supported.
    """
    if chart.base_dim != 0:
        raise GroupoidLabError("regular-action norms are implemented for base dimension 0")
    transport = _Transport(chart, grid, t)
    H, m = transport.fiber_pts.shape
    (coeff,) = transport.coefficient(f0)  # (H,), K = 1

    # Integration node b sends output node a (the nodes coincide) to the
    # transported point w/t, solving product(t eta_b, w) = t xi_a; its 2^m
    # interpolation corners receive coeff[b] times their weights in row a.
    # A block of output rows scatters in (node, row, corner) order, so every
    # entry sums its terms in node order; with a closed-form solver the sums
    # do not depend on the block size (Newton stops on the worst point of a block).
    matrix = np.zeros(H * H, dtype=complex)
    block = max(1, _BLOCK_ELEMENTS // (H << m))
    for start in range(0, H, block):
        stop = min(start + block, H)
        (points,) = transport.solve(start, stop)  # (H, A, m)
        indices, weights = _interp_scatter(points, grid)  # (H, A, 2^m)
        indices += (np.arange(start, stop, dtype=np.int64) * H)[None, :, None]
        np.add.at(matrix, indices.reshape(-1), (coeff[:, None, None] * weights).reshape(-1))
    matrix = matrix.reshape(H, H)
    sqw = np.sqrt(grid.fiber_weights().reshape(-1))
    weighted = sqw[:, None] * matrix / sqw[None, :]
    sigma, residual, _ = power_iteration_sigma(weighted)
    return NormRow(t=float(t), value=sigma, residual=residual, size=H)


# ---------------------------------------------------------------------------
# the curve
# ---------------------------------------------------------------------------

def norm_curve(
    f0: SymbolSpec,
    chart: GroupoidChart,
    t_values: Sequence[float],
    grid: GridSpec,
) -> NormCurve:
    """Operator norms along the sweep plus the commutative value at 0.

    Every row carries the chart's unit weight: the pair kernels and the t = 0
    row read it on the base grid, the regular action through the Haar density.
    """
    ts = [float(t) for t in t_values]
    problems = sweep_problems(ts)
    if problems:
        raise GroupoidLabError("; ".join(problems))
    mu = unit_weight_on_grid(chart, grid)
    rows = []
    for t in ts:
        if chart.kind == "pair":
            rows.append(pair_kernel_norm(f0, t, grid, mu))
        elif chart.base_dim == 0:
            rows.append(group_regular_norm(f0, chart, t, grid))
        else:
            raise GroupoidLabError(
                "norm curves support pair charts and base-dimension-0 group charts"
            )
    zero = zero_fiber_norm(f0, grid, mu)
    return NormCurve(rows=tuple(rows), zero=zero)

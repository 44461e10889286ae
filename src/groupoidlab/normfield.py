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
matrix 2-norm approximates the integral-operator norm; Golub-Kahan-Lanczos
bidiagonalization finds it (:func:`power_iteration_sigma`).  The reports'
residual is ``|A^H A v - sigma^2 v| / sigma^2`` of the Ritz vector ``v``, which
converges more slowly than ``sigma``: 5e-16 to 5e-9 on pair kernels, 4e-10 to
1.2e-8 on the ax+b regular action, whose top singular value is 4 % above the
next.  The regular-action matrix is assembled in blocks of output rows from the
deformed product's transport (:class:`groupoidlab.deformation._Transport`),
one product solve per block, so it maps samples g to ``f *_t g``.  A block
holds ``_BLOCK_POINTS`` transported points, the deformed product's budget;
each point scatters to its ``2^m`` interpolation corners a value, a flat
index and a weight, so the ordered scatter (one ``np.bincount`` per part of
the value) takes a block's rows in chunks of about ``_BLOCK_POINTS`` corners.
Every matrix has the symbol's dtype (:attr:`SymbolSpec.dtype`): a real
symbol's is float64, assembled and solved in real arithmetic; a complex
symbol's runs the same code in complex128.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charts import GroupoidChart
from .config import sweep_problems
from .deformation import _BLOCK_POINTS, _Transport
from .errors import ConvergenceError, DomainError, GroupoidLabError
from .grids import GridSpec, interpolation_corners
from .poisson import _mu_base, fourier_transform, select_dual_grid, unit_weight_on_grid
from .symbols import SymbolSpec, eval_symbol


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


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> float:
    """Project the rows of ``basis`` out of ``w`` in place, in two passes; return the norm left."""
    for _ in range(2):
        w -= (basis @ w.conj()).conj() @ basis
    return float(np.linalg.norm(w))


def power_iteration_sigma(matrix: np.ndarray) -> tuple[float, float, int]:
    """Largest singular value of ``matrix`` by Golub-Kahan-Lanczos bidiagonalization.

    Returns ``(sigma, residual, iterations)``.  Step ``k`` extends orthonormal
    bases ``V``, ``U`` (reorthogonalized in full, twice) from a fixed start
    vector, with ``A V = U B`` and ``B`` upper bidiagonal (Golub & Van Loan,
    ch. 10); ``sigma`` is the top singular value of ``B``.  The steps stop
    when ``sigma`` grows by at most a rounding unit, when the Ritz residual
    bound ``beta_k |x_k| <= eps sigma`` holds (``x`` the top left singular
    vector of ``B``), at an invariant subspace (``alpha`` or ``beta`` is 0),
    or at the rank bound ``min(matrix.shape)``.  ``A`` is read only through
    ``A v`` and ``(u^H A)^H``; a wide matrix runs as its transpose, a view.
    The steps run in the matrix's dtype: float64 for a real matrix (integers
    too), complex128 for a complex one.  ``residual`` is
    ``|A^H A v - sigma^2 v| / sigma^2`` of the Ritz vector.
    The name is left from an earlier solver and stays, with the triple,
    because ``benchmarks/tracing.py`` patches it by name and counts ``result[2]``.
    """
    a = np.asarray(matrix)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    a = a.T if a.shape[0] < a.shape[1] else a
    eps = np.finfo(float).eps
    v = np.random.default_rng(0).standard_normal(a.shape[1]).astype(a.dtype)
    v /= np.linalg.norm(v)
    vs, us = v[None, :], np.empty((0, a.shape[0]), dtype=a.dtype)
    alphas, betas, sigma, beta, u = [], [], 0.0, 0.0, np.zeros(a.shape[0], dtype=a.dtype)
    while True:
        p = a @ v - beta * u
        alpha = _orthogonalize(p, us)
        alphas.append(alpha)
        left, values, right = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        previous, sigma = sigma, float(values[0])
        if alpha == 0.0 or sigma - previous <= eps * sigma:
            break
        u = p / alpha
        us = np.vstack([us, u])
        r = (u.conj() @ a).conj() - alpha * v
        beta = _orthogonalize(r, vs)
        if beta == 0.0 or beta * abs(left[-1, 0]) <= eps * sigma or len(alphas) == a.shape[1]:
            break
        betas.append(beta)
        v = r / beta
        vs = np.vstack([vs, v])
    if sigma == 0.0:
        return 0.0, 0.0, len(alphas)
    ritz = right[0] @ vs
    gram_ritz = ((a @ ritz).conj() @ a).conj()
    return sigma, float(np.linalg.norm(gram_ritz - sigma**2 * ritz)) / sigma**2, len(alphas)


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
    kernel = f0.evaluate(np.broadcast_to(x, (K, K, n)), (y - x) / t)
    # times the reciprocal, as numpy's complex division scales; a float64
    # division would move the norms by an ulp
    kernel *= 1.0 / abs(t) ** n
    kernel *= _mu_base(mu_on_base, grid).reshape(-1)[None, :]
    sqw = np.sqrt(grid.base_weights().reshape(-1))
    kernel *= sqw[:, None]
    kernel *= sqw[None, :]
    return kernel


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
    from the same Golub-Kahan-Lanczos solver as the norm curve.
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

def _interp_scatter(points: np.ndarray, grid: GridSpec, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear weights of arbitrary fiber points onto the fiber nodes.

    Returns ``(flat_indices, weights)`` of shape (..., 2^m), views of
    corner-major memory (``out`` if given, see :func:`interpolation_corners`);
    contributions outside the grid get weight 0 (their index is clamped into
    the grid).
    """
    index, weight = interpolation_corners(grid.fiber, list(np.moveaxis(points, -1, 0)), out)
    return np.moveaxis(index, 0, -1), np.moveaxis(weight, 0, -1)


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
    (coeff,) = transport.coefficient(f0)  # (H,) of the symbol's dtype, K = 1

    # Integration node b sends output node a (the nodes coincide) to the
    # transported point w/t, solving product(t eta_b, w) = t xi_a; its 2^m
    # interpolation corners receive coeff[b] times their weights in row a.
    # A block of output rows scatters in (row, node, corner) order, so every
    # entry sums its terms in node order; with a closed-form solver the sums
    # do not depend on the block size (Newton stops on the worst point of a block).
    # The scatter arrays hold 2^m corners per point, so they take a block's
    # rows in chunks of about _BLOCK_POINTS corners; entries of other rows are
    # other entries, so the chunks do not change a sum.  A chunk's corners are
    # computed corner-major into buffers that every chunk reuses (new arrays
    # would fault in fresh pages chunk after chunk), then copied out in (row,
    # node, corner) order for np.bincount, which adds in input order; a
    # complex matrix takes one bincount per part.
    matrix = np.zeros(H * H, dtype=coeff.dtype)
    parts = [(matrix, coeff)]
    if np.iscomplexobj(coeff):
        parts = [(matrix.real, coeff.real), (matrix.imag, coeff.imag)]
    block = max(1, _BLOCK_POINTS // H)
    chunk = max(1, block >> m)
    corners = (np.empty((1 << m, chunk, H), dtype=np.int64), np.empty((1 << m, chunk, H)))
    flat_index, values = np.empty((chunk, H, 1 << m), dtype=np.int64), np.empty((chunk, H, 1 << m))
    for start in range(0, H, block):
        stop = min(start + block, H)
        (points,) = transport.solve(start, stop)  # (A, H, m)
        for lo in range(start, stop, chunk):
            rows = min(chunk, stop - lo)
            out = tuple(c[:, :rows] for c in corners)
            indices, weights = _interp_scatter(points[lo - start :][:rows], grid, out)  # (rows, H, 2^m)
            offsets = (np.arange(rows, dtype=np.int64) * H)[:, None, None]
            index = np.add(indices, offsets, out=flat_index[:rows])
            for plane, part in parts:
                value = np.multiply(part[None, :, None], weights, out=values[:rows])
                plane[lo * H : (lo + rows) * H] = np.bincount(index.reshape(-1), value.reshape(-1), rows * H)
    matrix = matrix.reshape(H, H)
    sqw = np.sqrt(grid.fiber_weights().reshape(-1))
    matrix *= sqw[:, None]
    # times the reciprocal, as numpy's complex division scales
    matrix *= 1.0 / sqw[None, :]
    sigma, residual, _ = power_iteration_sigma(matrix)
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

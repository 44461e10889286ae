"""Structure functions of the Lie algebroid of a chart, by finite differences.

From the chart maps three families of functions on the base are extracted:

* the anchor matrix, the v-derivative of the source map at the unit section,
* the structure constants, the antisymmetrized bilinear part of the product
  law in the canonical fiber frame,
* the gradient of the logarithm of the unit weight.

Central differences of the constant step :data:`groupoidlab.charts.FD_STEP`
are used everywhere; no function takes a step.  The tests check them
against closed forms of the built-in charts.  Each function takes a base
point (n,) or a batch (..., n) and evaluates each stencil offset once over
the whole batch, so :func:`extract_algebroid` tabulates all k base nodes in
one call of each.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .charts import FD_STEP, GroupoidChart, check_box
from .errors import DomainError, GroupoidLabError


def _first_offender(u: np.ndarray, bad: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The first point of the batch ``u`` (..., n) flagged in ``bad`` (..., n), and the flag's index."""
    index = tuple(np.argwhere(bad)[0])
    return u[index[:-1]], index


def anchor_matrix(chart: GroupoidChart, u) -> np.ndarray:
    """(..., fiber_dim, base_dim) v-derivatives of the source map at v = 0.

    ``u`` is a base point (n,) or a batch of them (..., n).  Entry
    ``[..., i, j]`` is the central-difference approximation of the j-th
    source component differentiated along the i-th fiber direction, with
    error O(FD_STEP^2).
    """
    u = check_box(np.asarray(u, dtype=float), chart.base_box, "base point u")
    m = chart.fiber_dim
    # row i of the increments is FD_STEP * e_i
    dv = np.broadcast_to(FD_STEP * np.eye(m), u.shape[:-1] + (m, m))
    at = u[..., None, :]
    return (chart.source_map(at, dv) - chart.source_map(at, -dv)) / (2.0 * FD_STEP)


def product_bilinear(chart: GroupoidChart, u) -> np.ndarray:
    """Bilinear part of the product law on every frame pair, (..., m, m, m).

    Entry ``[..., i, j, :]`` is the mixed second partial of ``product`` in
    ``v_i`` and ``w_j`` at the unit, at the base point (n,) or batch (..., n)
    ``u``; the unit laws kill the pure second-order terms, so the four-point
    stencil recovers the bilinear coefficient with error O(FD_STEP^2).
    """
    u = check_box(np.asarray(u, dtype=float), chart.base_box, "base point u")
    m = chart.fiber_dim
    # products may ignore u, so the increments carry the full batch shape
    batch = u.shape[:-1] + (m, m, m)
    e = FD_STEP * np.eye(m)
    dv = np.broadcast_to(e[:, None, :], batch)  # [..., i, j, :] = FD_STEP * e_i
    dw = np.broadcast_to(e[None, :, :], batch)  # [..., i, j, :] = FD_STEP * e_j
    at = u[..., None, None, :]
    pp = chart.product(at, dv, dw)
    pm = chart.product(at, dv, -dw)
    mp = chart.product(at, -dv, dw)
    mm = chart.product(at, -dv, -dw)
    return (pp - pm - mp + mm) / (4.0 * FD_STEP * FD_STEP)


def structure_constants(chart: GroupoidChart, u) -> np.ndarray:
    """(..., m, m, m) array ``c[..., i, j, k]`` of algebroid structure constants at ``u``.

    ``c[i, j] = bilinear(i, j) - bilinear(j, i)`` for ``i < j`` and
    ``c[j, i] = -c[i, j]``, so antisymmetry in ``(i, j)`` holds bitwise by
    construction, signed zeros included.
    """
    bilinear = product_bilinear(chart, u)
    i, j = np.triu_indices(chart.fiber_dim, 1)
    diff = bilinear[..., i, j, :] - bilinear[..., j, i, :]
    c = np.zeros(bilinear.shape)
    c[..., i, j, :] = diff
    c[..., j, i, :] = -diff
    return c


def log_weight_gradient(chart: GroupoidChart, u) -> np.ndarray:
    """Central-difference gradient of log(unit_weight) at the base point (n,) or batch (..., n) ``u``."""
    box = chart.base_box
    u = check_box(np.asarray(u, dtype=float), box, "base point u")
    outside = (u < box[:, 0] + FD_STEP) | (u > box[:, 1] - FD_STEP)
    if np.any(outside):
        point, _ = _first_offender(u, outside)
        message = f"base point {point} too close to the box edge for finite-difference step {FD_STEP}"
        raise DomainError(message)
    du = FD_STEP * np.eye(chart.base_dim)  # row j is FD_STEP * e_j
    plus = np.asarray(chart.unit_weight(u[..., None, :] + du), dtype=float)
    minus = np.asarray(chart.unit_weight(u[..., None, :] - du), dtype=float)
    bad = (plus <= 0.0) | (minus <= 0.0)
    if np.any(bad):
        point, index = _first_offender(u, bad)
        worst = min(float(plus[index]), float(minus[index]))
        raise GroupoidLabError(f"unit weight must be positive near {point}; got {worst}")
    return (np.log(plus) - np.log(minus)) / (2.0 * FD_STEP)


class AlgebroidData(NamedTuple):
    """Structure functions tabulated at a fixed list of base points.

    ``base_points`` has shape (k, n); ``anchor`` (k, m, n); ``structure``
    (k, m, m, m); ``log_weight_grad`` (k, n).  Values are recomputed at the
    exact nodes requested, never interpolated.
    """

    base_points: np.ndarray
    anchor: np.ndarray
    structure: np.ndarray
    log_weight_grad: np.ndarray

    def jacobi_residual(self) -> float:
        """Max residual of the Jacobi identity of the tabulated constants."""
        c = self.structure
        # sum_l c[i,j,l] c[l,k,r] + cyclic, per base point
        term = np.einsum("pijl,plkr->pijkr", c, c, optimize=False)
        total = (
            term
            + np.einsum("pjkl,plir->pijkr", c, c, optimize=False)
            + np.einsum("pkil,pljr->pijkr", c, c, optimize=False)
        )
        return float(np.max(np.abs(total))) if total.size else 0.0


def extract_algebroid(chart: GroupoidChart, base_points) -> AlgebroidData:
    """Tabulate anchor, structure constants and log-weight gradient.

    ``base_points`` is (k, n); for base dimension 0 pass the single empty
    point ``np.zeros((1, 0))``.  The values equal those of single-point
    calls bitwise, signed zeros included.
    """
    pts = np.asarray(base_points, dtype=float)
    if chart.base_dim == 0:
        # any representation of base points collapses to the single empty point
        rows = pts.shape[0] if pts.ndim == 2 and pts.shape[-1] == 0 else 1
        pts = np.zeros((rows, 0))
    else:
        pts = pts.reshape(-1, chart.base_dim)
    return AlgebroidData(
        base_points=pts,
        anchor=anchor_matrix(chart, pts),
        structure=structure_constants(chart, pts),
        log_weight_grad=log_weight_gradient(chart, pts),
    )

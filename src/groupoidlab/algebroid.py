"""Structure functions of the Lie algebroid of a chart, by finite differences.

From the chart maps three families of functions on the base are extracted:

* the anchor matrix, the v-derivative of the source map at the unit section,
* the structure constants, the antisymmetrized bilinear part of the product
  law in the canonical fiber frame,
* the gradient of the logarithm of the unit weight.

Central differences are used everywhere; built-in charts carry analytic
versions of the same data, which the tests treat as the oracle for this
finite-difference path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import GroupoidChart, check_box
from .errors import DomainError, GroupoidLabError

DEFAULT_FD_STEP = 1e-3


def _require_margin(u: np.ndarray, box: np.ndarray, step: float):
    if box.shape[0] == 0:
        return
    lo = box[:, 0] + step
    hi = box[:, 1] - step
    if np.any(u < lo) or np.any(u > hi):
        raise DomainError(
            f"base point {u} too close to the box edge for finite-difference step {step}"
        )


def anchor_matrix(chart: GroupoidChart, u, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """(fiber_dim, base_dim) matrix of v-derivatives of the source map at v = 0.

    Entry ``[i, j]`` is the central-difference approximation of the
    j-th source component differentiated along the i-th fiber direction,
    with error O(step^2).
    """
    u = check_box(np.asarray(u, dtype=float), chart.base_box, "base point u")
    m, n = chart.fiber_dim, chart.base_dim
    if n == 0:
        return np.zeros((m, 0))
    out = np.empty((m, n))
    for i in range(m):
        dv = np.zeros(m)
        dv[i] = step
        plus = chart.source_map(u, dv)
        minus = chart.source_map(u, -dv)
        out[i] = (plus - minus) / (2.0 * step)
    return out


def product_bilinear(
    chart: GroupoidChart, u, i: int, j: int, step: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Bilinear part of the product law on the frame pair ``(i, j)`` (0-based).

    Computed as the mixed second partial of ``product`` in ``v_i`` and
    ``w_j`` at the unit; the unit laws kill the pure second-order terms, so
    the four-point stencil recovers the bilinear coefficient with error
    O(step^2).
    """
    m = chart.fiber_dim
    if not (0 <= i < m and 0 <= j < m):
        raise IndexError(f"frame indices ({i}, {j}) out of range for fiber_dim {m}")
    u = check_box(np.asarray(u, dtype=float), chart.base_box, "base point u")
    dv = np.zeros(m)
    dv[i] = step
    dw = np.zeros(m)
    dw[j] = step
    pp = chart.product(u, dv, dw)
    pm = chart.product(u, dv, -dw)
    mp = chart.product(u, -dv, dw)
    mm = chart.product(u, -dv, -dw)
    return (pp - pm - mp + mm) / (4.0 * step * step)


def structure_constants(
    chart: GroupoidChart, u, step: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """(m, m, m) array ``c[i, j, k]`` of algebroid structure constants at ``u``.

    ``c[i, j] = bilinear(i, j) - bilinear(j, i)``; antisymmetry in ``(i, j)``
    holds bitwise by construction.
    """
    m = chart.fiber_dim
    c = np.zeros((m, m, m))
    for i in range(m):
        for j in range(i + 1, m):
            diff = product_bilinear(chart, u, i, j, step) - product_bilinear(
                chart, u, j, i, step
            )
            c[i, j] = diff
            c[j, i] = -diff
    return c


def log_weight_gradient(
    chart: GroupoidChart, u, step: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference gradient of log(unit_weight) at ``u``."""
    u = check_box(np.asarray(u, dtype=float), chart.base_box, "base point u")
    n = chart.base_dim
    if n == 0:
        return np.zeros(0)
    _require_margin(u, chart.base_box, step)
    out = np.empty(n)
    for j in range(n):
        du = np.zeros(n)
        du[j] = step
        plus = float(chart.unit_weight(u + du))
        minus = float(chart.unit_weight(u - du))
        if plus <= 0.0 or minus <= 0.0:
            raise GroupoidLabError(
                f"unit weight must be positive near {u}; got {min(plus, minus)}"
            )
        out[j] = (np.log(plus) - np.log(minus)) / (2.0 * step)
    return out


@dataclass(frozen=True)
class AlgebroidData:
    """Structure functions tabulated at a fixed list of base points.

    ``base_points`` has shape (k, n); ``anchor`` (k, m, n); ``structure``
    (k, m, m, m); ``log_weight_grad`` (k, n).  Values are recomputed at the
    exact nodes requested, never interpolated.
    """

    base_points: np.ndarray
    anchor: np.ndarray
    structure: np.ndarray
    log_weight_grad: np.ndarray
    fd_step: float

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


def extract_algebroid(
    chart: GroupoidChart, base_points, step: float = DEFAULT_FD_STEP
) -> AlgebroidData:
    """Tabulate anchor, structure constants and log-weight gradient.

    ``base_points`` is (k, n); for base dimension 0 pass the single empty
    point ``np.zeros((1, 0))``.
    """
    pts = np.asarray(base_points, dtype=float)
    if chart.base_dim == 0:
        # any representation of base points collapses to the single empty point
        rows = pts.shape[0] if pts.ndim == 2 and pts.shape[-1] == 0 else 1
        pts = np.zeros((rows, 0))
    else:
        pts = pts.reshape(-1, chart.base_dim)
    anchors = np.stack([anchor_matrix(chart, p, step) for p in pts])
    structures = np.stack([structure_constants(chart, p, step) for p in pts])
    grads = np.stack([log_weight_gradient(chart, p, step) for p in pts])
    return AlgebroidData(
        base_points=pts,
        anchor=anchors,
        structure=structures,
        log_weight_grad=grads,
        fd_step=step,
    )

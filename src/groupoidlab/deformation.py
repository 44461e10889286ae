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
the grid only; ``_Transport`` solves it per ``t`` and chunk.  On it
:func:`scaled_commutator` evaluates both orderings, :func:`deformed_product`
one, and :func:`groupoidlab.normfield.group_regular_norm` assembles the matrix
of ``g -> f *_t g``.  As ``t -> 0`` the scaled commutator ``(f *_t g - g *_t f) / t``
converges to ``1/(2 pi i)`` times the bracket under the chart's unit weight;
:func:`classical_limit_error_table` measures that convergence.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .charts import GroupoidChart, _in_box, _sample_box
from .errors import (
    ConvergenceError,
    DomainError,
    GroupoidLabError,
    SingularJacobianError,
)
from .grids import GridSpec, SampledSymbol, scale_of
from .poisson import TWO_PI_I, poisson_bracket
from .symbols import SymbolSpec

Operand = Union[SymbolSpec, SampledSymbol]


def _product_residual(chart: GroupoidChart, u, v, w, target) -> np.ndarray:
    """``product(u, v, w) - target``, subtracted in place when the product is a fresh array."""
    out = chart.product(u, v, w)
    fresh = (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.flags.owndata
        and out.flags.writeable
        and out.shape == np.broadcast_shapes(out.shape, target.shape)
        and not any(np.may_share_memory(out, a) for a in (u, v, w, target))
    )
    if not fresh:
        return np.asarray(out, dtype=float) - target
    out -= target
    return out


def solve_product(
    chart: GroupoidChart,
    u,
    v,
    target,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> np.ndarray:
    """Solve ``product(u, v, w) = target`` for ``w`` (batched).

    Uses the chart's closed-form solver when present, otherwise Newton on its
    exact ``product_w_jacobian`` from ``w = target - v``.  Raises
    ConvergenceError, SingularJacobianError or DomainError (iterate left the fiber box).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    target = np.asarray(target, dtype=float)
    if chart.product_solver is not None:
        w = np.asarray(chart.product_solver(u, v, target), dtype=float)
        residual = _product_residual(chart, u, v, w, target)
        worst = float(np.max(np.abs(residual, out=residual))) if residual.size else 0.0
        if worst > tol:
            raise ConvergenceError(
                f"closed-form product solver violates its contract: residual {worst:.3e}"
            )
        return w

    w = (target - v).astype(float)
    batch = np.broadcast_shapes(u.shape[:-1], v.shape[:-1], target.shape[:-1])
    w = np.broadcast_to(w, batch + (chart.fiber_dim,)).copy()
    for _ in range(max_iter):
        residual = _product_residual(chart, u, v, w, target)
        worst = float(np.max(np.abs(residual))) if residual.size else 0.0
        if worst <= tol:
            return w
        jac = chart.product_w_jacobian(u, v, w)
        try:
            step = np.linalg.solve(jac, residual[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"singular Jacobian in product solve: {exc}")
        w = w - step
        if not np.all(_in_box(w, chart.fiber_box)):
            raise DomainError("Newton iterate for the product solve left the fiber box")
    raise ConvergenceError(
        f"product solve did not reach {tol:.1e} in {max_iter} iterations "
        f"(residual {worst:.3e})"
    )


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
    if det.size and float(np.min(det)) < 1e-13:
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
    the rule of :func:`sweep_problems` (t nonzero, |t| strictly decreasing).
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


def sweep_problems(t_values: Sequence[float]) -> list[str]:
    """Violations of the sweep rule: every t nonzero, |t| strictly decreasing."""
    problems = []
    if any(t == 0.0 for t in t_values):
        problems.append("t must be nonzero in sweep")
    mags = [abs(t) for t in t_values]
    if any(b >= a for a, b in zip(mags, mags[1:])):
        problems.append("t values must decrease strictly in magnitude toward 0")
    return problems


def deformation_domain_problems(
    chart: GroupoidChart, grid: GridSpec, t_values: Sequence[float]
) -> list[str]:
    """All violations of the sweep preconditions (empty list when admissible)."""
    if grid.fiber_dim != chart.fiber_dim or grid.base_dim != chart.base_dim:
        return [
            f"grid dims ({grid.base_dim},{grid.fiber_dim}) do not match chart "
            f"dims ({chart.base_dim},{chart.fiber_dim})"
        ]
    problems = sweep_problems(t_values)
    for k, ax in enumerate(grid.fiber):
        lo, hi = chart.fiber_box[k]
        for t in t_values:
            reach = abs(t) * ax.half_width
            if reach > hi or -reach < lo:
                problems.append(
                    f"t={t} pushes fiber axis {k} to {reach:.3g}, outside its box "
                    f"[{lo:.3g}, {hi:.3g}]"
                )
                break
    for j, ax in enumerate(grid.base):
        lo, hi = chart.base_box[j]
        if ax.start < lo or ax.start + ax.step * (ax.count - 1) > hi:
            problems.append(f"base axis {j} leaves the chart base box")
    return problems


class _Transport:
    """The part of the deformed product that depends on ``t`` and the grid only.

    Setup checks ``t`` and the domain and takes the Haar density at the
    integration nodes; :meth:`solve` transports a chunk of output nodes.
    """

    def __init__(self, chart: GroupoidChart, grid: GridSpec, t: float):
        if t == 0.0:
            raise GroupoidLabError("deformed product needs t != 0")
        problems = deformation_domain_problems(chart, grid, [t])
        if problems:
            raise DomainError("; ".join(problems))
        self.chart, self.t = chart, t
        self.fiber_pts = grid.fiber_points_flat()  # (H, m)
        self.u3 = grid.base_points_flat()[:, None, :]  # (K, 1, n)
        self.eta = self.fiber_pts[None, :, :]  # (1, H, m)
        self.v_eta = t * self.eta
        self.rho = haar_density(chart, self.u3, self.v_eta)  # (K, H)
        self.weights = grid.fiber_weights().reshape(-1)  # (H,)

    def coefficient(self, f0: Operand) -> np.ndarray:
        """``(K, H)`` coefficients ``f0 * rho * weight``; the left factor is read at nodes only."""
        if isinstance(f0, SymbolSpec):
            return f0.evaluate(self.u3, self.eta) * self.rho * self.weights
        return f0.values.reshape(self.rho.shape) * self.rho * self.weights

    def solve(self, start: int, stop: int) -> np.ndarray:
        """``(K, H, A, m)`` points ``w / t``, ``product(u, t eta, w) = t xi`` for xi in ``start:stop``."""
        shape = self.rho.shape + (stop - start, self.chart.fiber_dim)
        target = np.broadcast_to(self.t * self.fiber_pts[start:stop], shape)
        w = solve_product(self.chart, self.u3[:, :, None, :], self.v_eta[:, :, None, :], target)
        w /= self.t
        return w


def _deformed_products(
    chart: GroupoidChart,
    grid: GridSpec,
    pairs: Sequence[tuple[Operand, Operand]],
    t: float,
    workers: int,
) -> list[np.ndarray]:
    """``(K, H)`` values of ``f *_t g`` for every ``(f, g)`` in ``pairs``.

    Each chunk of output nodes is transported once and every pair reads it.
    """
    transport = _Transport(chart, grid, t)
    K, H = transport.rho.shape
    sigma = chart.source_map(transport.u3, transport.v_eta)  # (K, H, n)
    coeffs = [transport.coefficient(f0) for f0, _ in pairs]  # (K, H) each

    outs = [np.zeros((K, H), dtype=complex) for _ in pairs]
    chunk = max(1, min(H, (1 << 22) // max(1, K * H * chart.fiber_dim)))
    starts = list(range(0, H, chunk))

    def run(start: int):
        stop = min(start + chunk, H)
        scaled = transport.solve(start, stop)
        gpts_base = np.broadcast_to(sigma[:, :, None, :], (K, H, stop - start, chart.base_dim))
        for (_, g0), coeff, out in zip(pairs, coeffs, outs):
            # the (K, H, A) values of g0 die with this statement, before the next pair's
            out[:, start:stop] = np.einsum(
                "kh,kha->ka", coeff, g0.evaluate(gpts_base, scaled), optimize=False
            )

    if workers <= 1 or len(starts) == 1:
        for s in starts:
            run(s)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))
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
    symbols and by multilinear interpolation for sampled ones.  The output is
    sampled on ``grid``.  Workers only split the output into fixed chunks;
    results are identical at any worker count.
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

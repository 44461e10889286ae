"""Lie groupoids presented by single-chart data.

A chart packages the coordinate form of a groupoid near a unit: the source
map ``source_map(u, v)`` on base x fiber coordinates, the product law
``product(u, v, w)`` giving the fiber coordinate of a composition, a positive
unit weight on the base (the density of the fiberwise measure at units), and
the rectangular boxes on which the maps are defined.  Everything downstream
(structure extraction, deformed convolution, norm curves) consumes this one
data structure.

All maps are vectorized: they accept arrays whose last axis is the coordinate
axis and broadcast over leading batch axes.  That axis may be strided: the
deformed product passes views of coordinate-major memory, whose coordinate
axis is outermost (``v[..., l]`` is one contiguous plane), and maps that
address components as ``v[..., l]`` keep every inner loop over a contiguous
plane.  ``product`` and ``product_solver`` also take a keyword-only ``out``,
a float64 array of the result's shape that overlaps no input; a map given one
writes its result there and returns it, so a caller that solves many blocks
of one shape reuses its arrays.  All operations here are pure functions of
their arguments (and ``out``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError, SamplingError, SingularJacobianError
from .expressions import compile_expression, compile_vector, derivative

Array = np.ndarray


@dataclass(frozen=True)
class GroupoidChart:
    """Single-chart presentation of a Lie groupoid.

    ``base_dim`` is the dimension of the unit space, ``fiber_dim`` the fiber
    dimension, so the groupoid has dimension ``base_dim + fiber_dim``.  The
    unit fiber coordinate is 0: ``source_map(u, 0) = u``,
    ``product(u, 0, w) = w`` and ``product(u, v, 0) = v``.

    ``product_w_jacobian`` is exact: ``[..., i, l] = d product_i / d w_l``,
    from derivative trees for custom charts.  Closed forms ``inverse`` and
    ``product_solver`` are used when present, else Newton iteration.
    ``product(u, v, w, *, out=None)`` and ``product_solver(u, v, target, *,
    out=None)`` write into ``out`` when given (see the module docs).
    ``exact_structure`` holds the analytic structure constants of the
    built-ins, kept as a test oracle for the finite-difference extraction path.

    The chart is assumed to intersect the unit space exactly in the zero
    fiber section; that is a property of the data supplied and is documented
    here rather than checked numerically.
    """

    name: str
    base_dim: int
    fiber_dim: int
    source_map: Callable[[Array, Array], Array]
    product: Callable[[Array, Array, Array], Array]
    product_w_jacobian: Callable[[Array, Array, Array], Array]
    unit_weight: Callable[[Array], Array]
    base_box: Array
    fiber_box: Array
    kind: str = "custom"
    inverse: Optional[Callable[[Array, Array], Array]] = None
    product_solver: Optional[Callable[[Array, Array, Array], Array]] = None
    exact_structure: Optional[Callable[[Array], Array]] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "base_box", _as_box(self.base_box, self.base_dim))
        object.__setattr__(self, "fiber_box", _as_box(self.fiber_box, self.fiber_dim))
        if self.fiber_dim < 1:
            raise ValueError("fiber_dim must be positive")
        if self.base_dim < 0:
            raise ValueError("base_dim must be nonnegative")


def _as_box(box, dim: int) -> Array:
    box = np.asarray(box, dtype=float).reshape(dim, 2)
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValueError("box lower bounds must be below upper bounds")
    return box


def _in_box(points: Array, box: Array) -> Array:
    points = np.asarray(points, dtype=float)
    if box.shape[0] == 0:
        return np.ones(points.shape[:-1], dtype=bool)
    lo, hi = box[:, 0], box[:, 1]
    return np.all((points >= lo) & (points <= hi), axis=-1)


def check_box(points: Array, box: Array, label: str) -> Array:
    """Return ``points`` as a float array, raising DomainError if any leaves ``box``."""
    points = np.asarray(points, dtype=float)
    ok = _in_box(points, box)
    if not np.all(ok):
        bad = np.asarray(points)[~ok]
        raise DomainError(f"{label} outside its box: first offender {bad.reshape(-1, box.shape[0])[0]}")
    return points


# ---------------------------------------------------------------------------
# chart operations
# ---------------------------------------------------------------------------

def compose(chart: GroupoidChart, u, v, w) -> Array:
    """Fiber coordinate of the product of ``(u, v)`` with the arrow over its source.

    The second factor is implicitly the arrow ``(source_map(u, v), w)``; the
    result sits over ``u`` with fiber coordinate ``product(u, v, w)``.
    Raises DomainError when an input or the result leaves its box.
    """
    u = check_box(u, chart.base_box, "base point u")
    v = check_box(v, chart.fiber_box, "fiber vector v")
    w = check_box(w, chart.fiber_box, "fiber vector w")
    out = chart.product(u, v, w)
    return check_box(out, chart.fiber_box, "product(u, v, w)")


def source_coords(chart: GroupoidChart, u, v) -> Array:
    """Base coordinate of the source of the arrow ``(u, v)``."""
    u = check_box(u, chart.base_box, "base point u")
    v = check_box(v, chart.fiber_box, "fiber vector v")
    out = chart.source_map(u, v)
    return check_box(out, chart.base_box, "source_map(u, v)")


def invert_element(chart: GroupoidChart, u, v) -> Array:
    """Fiber coordinate ``w`` of the inverse arrow, solving ``product(u, v, w) = 0``.

    Uses the chart's closed-form inverse when available, otherwise Newton
    iteration (see :func:`groupoidlab.deformation.solve_product`).  The
    residual ``|product(u, v, w)|`` is guaranteed <= 1e-12.
    """
    u = check_box(u, chart.base_box, "base point u")
    v = check_box(v, chart.fiber_box, "fiber vector v")
    if chart.inverse is not None:
        w = np.asarray(chart.inverse(u, v), dtype=float)
    else:
        from .deformation import solve_product

        target = np.zeros_like(np.asarray(v, dtype=float))
        w = solve_product(chart, u, v, target)
    residual = np.max(np.abs(chart.product(u, v, w))) if w.size else 0.0
    if residual > 1e-12:
        raise ConvergenceError(f"inverse residual {residual:.3e} exceeds 1.0e-12")
    return w


# the residual fields of AxiomReport, in report order
AXIOMS = ("associativity", "source_compatibility", "left_unit", "right_unit", "source_unit", "inverse_law")


@dataclass(frozen=True)
class AxiomReport:
    """Max residuals of the groupoid axioms over the sampled triples."""

    chart_name: str
    samples: int
    associativity: float
    source_compatibility: float
    left_unit: float
    right_unit: float
    source_unit: float
    inverse_law: float
    inverse_checked: int
    min_unit_weight: float

    @property
    def max_residual(self) -> float:
        return max(getattr(self, name) for name in AXIOMS)

    def as_dict(self) -> dict:
        return {
            "chart": self.chart_name,
            "samples": self.samples,
            "associativity": self.associativity,
            "source_compatibility": self.source_compatibility,
            "left_unit": self.left_unit,
            "right_unit": self.right_unit,
            "source_unit": self.source_unit,
            "inverse_law": self.inverse_law,
            "inverse_checked": self.inverse_checked,
            "min_unit_weight": self.min_unit_weight,
            "max_residual": self.max_residual,
        }


def _sample_box(rng: np.random.Generator, box: Array, count: int, shrink: float) -> Array:
    if box.shape[0] == 0:
        return np.empty((count, 0), dtype=float)
    center = 0.5 * (box[:, 0] + box[:, 1])
    half = 0.5 * (box[:, 1] - box[:, 0]) * shrink
    return center + (2.0 * rng.random((count, box.shape[0])) - 1.0) * half


def validate_axioms(
    chart: GroupoidChart,
    sample_count: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Check associativity, source compatibility, unit and inverse laws.

    Composable triples are drawn by rejection sampling: candidates come from
    the centered half of each box and a candidate is kept only when every
    intermediate point of every law stays inside its box.  Raises
    SamplingError when fewer than ``sample_count`` triples survive
    ``100 * sample_count`` candidates.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    batch = 4 * sample_count
    max_attempts = 100 * sample_count

    kept_u, kept_v, kept_w, kept_z = [], [], [], []
    kept = 0
    attempts = 0
    while kept < sample_count and attempts < max_attempts:
        take = min(batch, max_attempts - attempts)
        attempts += take
        u = _sample_box(rng, chart.base_box, take, 0.5)
        v = _sample_box(rng, chart.fiber_box, take, 0.5)
        w = _sample_box(rng, chart.fiber_box, take, 0.5)
        z = _sample_box(rng, chart.fiber_box, take, 0.5)

        ok = np.ones(take, dtype=bool)
        u1 = chart.source_map(u, v)
        ok &= _in_box(u1, chart.base_box)
        vw = chart.product(u, v, w)
        ok &= _in_box(vw, chart.fiber_box)
        u2 = chart.source_map(u1, w)
        ok &= _in_box(u2, chart.base_box)
        wz = chart.product(u1, w, z)
        ok &= _in_box(wz, chart.fiber_box)
        left = chart.product(u, v, wz)
        ok &= _in_box(left, chart.fiber_box)
        right = chart.product(u, vw, z)
        ok &= _in_box(right, chart.fiber_box)

        for arr, keep in zip((u, v, w, z), (kept_u, kept_v, kept_w, kept_z)):
            keep.append(arr[ok])
        kept += int(np.count_nonzero(ok))

    if kept < sample_count:
        raise SamplingError(
            f"found {kept}/{sample_count} composable triples in {attempts} attempts "
            f"for chart {chart.name!r}"
        )

    u = np.concatenate(kept_u)[:sample_count]
    v = np.concatenate(kept_v)[:sample_count]
    w = np.concatenate(kept_w)[:sample_count]
    z = np.concatenate(kept_z)[:sample_count]

    u1 = chart.source_map(u, v)
    vw = chart.product(u, v, w)
    wz = chart.product(u1, w, z)
    assoc = _max_abs(chart.product(u, v, wz) - chart.product(u, vw, z))
    source_compat = _max_abs(chart.source_map(u, vw) - chart.source_map(u1, w))

    zeros = np.zeros_like(v)
    left_unit = _max_abs(chart.product(u, zeros, w) - w)
    right_unit = _max_abs(chart.product(u, v, zeros) - v)
    source_unit = _max_abs(chart.source_map(u, zeros) - u)

    inverse_res = 0.0
    inverse_checked = 0
    try:
        if chart.inverse is not None:
            winv = np.asarray(chart.inverse(u, v), dtype=float)
        else:
            from .deformation import solve_product

            winv = solve_product(chart, u, v, np.zeros_like(v))
        in_box = _in_box(winv, chart.fiber_box)
        inverse_checked = int(np.count_nonzero(in_box))
        if inverse_checked:
            inverse_res = _max_abs(chart.product(u[in_box], v[in_box], winv[in_box]))
    except (ConvergenceError, SingularJacobianError):
        inverse_checked = 0

    mu = np.asarray(chart.unit_weight(u), dtype=float)
    min_mu = float(np.min(mu)) if mu.size else float(chart.unit_weight(np.zeros((1, 0)))[0])

    return AxiomReport(
        chart_name=chart.name,
        samples=sample_count,
        associativity=assoc,
        source_compatibility=source_compat,
        left_unit=left_unit,
        right_unit=right_unit,
        source_unit=source_unit,
        inverse_law=inverse_res,
        inverse_checked=inverse_checked,
        min_unit_weight=min_mu,
    )


def _max_abs(arr: Array) -> float:
    arr = np.asarray(arr)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


# ---------------------------------------------------------------------------
# built-in catalog
# ---------------------------------------------------------------------------

def _constant_weight(value: float = 1.0):
    def weight(u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1], float(value))

    return weight


def _centered_box(dim: int, half_width: float) -> Array:
    return np.tile([[-half_width, half_width]], (dim, 1)) if dim else np.empty((0, 2))


def _resolve_weight(mu_e, dim: int):
    """Accept a callable, an expression tree, or None (constant 1)."""
    if mu_e is None:
        return _constant_weight(1.0)
    if callable(mu_e):
        return mu_e
    expr = compile_expression(mu_e, dim, 0, slots="u")
    return lambda u: expr(u=np.asarray(u, dtype=float))


def _additive_chart(name: str, kind: str, n: int, m: int, source_map, half_width, mu_e, params):
    """The additive group law on the fiber R^m over the base R^n."""
    return GroupoidChart(
        name=name,
        base_dim=n,
        fiber_dim=m,
        source_map=source_map,
        product=lambda u, v, w, *, out=None: np.add(v, w, out=out),
        product_w_jacobian=lambda u, v, w: np.broadcast_to(np.eye(m), np.shape(v)[:-1] + (m, m)).copy(),
        unit_weight=_resolve_weight(mu_e, n),
        base_box=_centered_box(n, half_width),
        fiber_box=_centered_box(m, half_width),
        kind=kind,
        inverse=lambda u, v: -np.asarray(v, dtype=float),
        product_solver=lambda u, v, target, *, out=None: np.subtract(target, v, out=out),
        exact_structure=lambda u: np.zeros((m, m, m)),
        params=params,
    )


def pair_chart(n: int, half_width: float = 10.0, mu_e=None) -> GroupoidChart:
    """Pair groupoid on R^n x R^n: source u + v, additive product."""
    if n < 1:
        raise ValueError("pair chart needs n >= 1")
    params = {"n": n, "half_width": half_width}
    return _additive_chart(f"pair({n})", "pair", n, n, lambda u, v: u + v, half_width, mu_e, params)


def abelian_bundle_chart(n: int, m: int, half_width: float = 10.0, mu_e=None) -> GroupoidChart:
    """Bundle of abelian groups R^m over R^n (n = 0 gives the group R^m)."""
    source_map = lambda u, v: np.asarray(u, dtype=float) + np.zeros(np.shape(v)[:-1] + (n,))
    params = {"n": n, "m": m, "half_width": half_width}
    name = f"abelian_bundle({n},{m})"
    return _additive_chart(name, "bundle", n, m, source_map, half_width, mu_e, params)


# The Heisenberg maps use the planes of their result as their only scratch, so
# a caller's ``out`` takes every intermediate; each rounds as the plain formula
# (v3 + w3) + (v1 w2 - v2 w1) / 2 does, term by term.

def _heisenberg_product(u, v, w, *, out=None):
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(v.shape, w.shape))
    p1, p2, p3 = (out[..., k] for k in range(3))
    np.multiply(v[..., 0], w[..., 1], out=p3)
    p3 -= np.multiply(v[..., 1], w[..., 0], out=p1)
    p3 *= 0.5
    p3 += np.add(v[..., 2], w[..., 2], out=p1)
    np.add(v[..., 0], w[..., 0], out=p1)
    np.add(v[..., 1], w[..., 1], out=p2)
    return out


def _heisenberg_solver(u, v, target, *, out=None):
    # w1, w2 = t1 - v1, t2 - v2, then w3 = (t3 - v3) - (v1 w2 - v2 w1) / 2
    v = np.asarray(v, dtype=float)
    target = np.asarray(target, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(v.shape, target.shape))
    w1, w2, w3 = (out[..., k] for k in range(3))
    np.subtract(target[..., 0], v[..., 0], out=w1)
    np.multiply(v[..., 1], w1, out=w3)
    np.subtract(target[..., 1], v[..., 1], out=w1)  # w2, held in w1's plane
    np.multiply(v[..., 0], w1, out=w2)
    w2 -= w3
    w2 *= 0.5
    np.subtract(target[..., 2], v[..., 2], out=w3)
    w3 -= w2
    np.copyto(w2, w1)
    np.subtract(target[..., 0], v[..., 0], out=w1)
    return out


def _heisenberg_structure(u):
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return c


def heisenberg_chart(half_width: float = 6.0) -> GroupoidChart:
    """Heisenberg group in exponential coordinates (base dimension 0)."""

    def w_jacobian(u, v, w):
        v = np.asarray(v, dtype=float)
        shape = v.shape[:-1]
        jac = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
        jac[..., 2, 0] = -0.5 * v[..., 1]
        jac[..., 2, 1] = 0.5 * v[..., 0]
        return jac

    return GroupoidChart(
        name="heisenberg",
        base_dim=0,
        fiber_dim=3,
        source_map=lambda u, v: np.zeros(np.shape(v)[:-1] + (0,)),
        product=_heisenberg_product,
        unit_weight=_constant_weight(1.0),
        base_box=np.empty((0, 2)),
        fiber_box=_centered_box(3, half_width),
        kind="group",
        inverse=lambda u, v: -np.asarray(v, dtype=float),
        product_solver=_heisenberg_solver,
        product_w_jacobian=w_jacobian,
        exact_structure=_heisenberg_structure,
        params={"half_width": half_width},
    )


def _ax_plus_b_product(u, v, w, *, out=None):
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(v.shape, w.shape), dtype=float)
    np.add(v[..., 0], w[..., 0], out=out[..., 0])
    np.multiply(np.exp(v[..., 0]), w[..., 1], out=out[..., 1])
    out[..., 1] += v[..., 1]
    return out


def _ax_plus_b_structure(u):
    # algebra [e1, e2] = e2
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    return c


def ax_plus_b_chart(half_width: float = 2.0) -> GroupoidChart:
    """Affine group of the line in global coordinates; non-unimodular."""

    def solver(u, v, target, *, out=None):
        v = np.asarray(v, dtype=float)
        target = np.asarray(target, dtype=float)
        w = np.empty(np.broadcast_shapes(v.shape, target.shape), dtype=float) if out is None else out
        np.subtract(target[..., 0], v[..., 0], out=w[..., 0])
        np.subtract(target[..., 1], v[..., 1], out=w[..., 1])
        w[..., 1] *= np.exp(-v[..., 0])
        return w

    def inverse(u, v):
        return solver(u, v, np.zeros_like(np.asarray(v, dtype=float)))

    def w_jacobian(u, v, w):
        v = np.asarray(v, dtype=float)
        shape = v.shape[:-1]
        jac = np.zeros(shape + (2, 2))
        jac[..., 0, 0] = 1.0
        jac[..., 1, 1] = np.exp(v[..., 0])
        return jac

    return GroupoidChart(
        name="ax_plus_b",
        base_dim=0,
        fiber_dim=2,
        source_map=lambda u, v: np.zeros(np.shape(v)[:-1] + (0,)),
        product=_ax_plus_b_product,
        unit_weight=_constant_weight(1.0),
        base_box=np.empty((0, 2)),
        fiber_box=_centered_box(2, half_width),
        kind="group",
        inverse=inverse,
        product_solver=solver,
        product_w_jacobian=w_jacobian,
        exact_structure=_ax_plus_b_structure,
        params={"half_width": half_width},
    )


BUILTIN_CHARTS = {
    "pair": pair_chart,
    "abelian_bundle": abelian_bundle_chart,
    "heisenberg": heisenberg_chart,
    "ax_plus_b": ax_plus_b_chart,
}


def builtin_chart(name: str, **params) -> GroupoidChart:
    """Instantiate a catalog chart by name; see BUILTIN_CHARTS for the names."""
    if name not in BUILTIN_CHARTS:
        raise ValueError(f"unknown built-in chart {name!r}; have {sorted(BUILTIN_CHARTS)}")
    return BUILTIN_CHARTS[name](**params)


def chart_from_spec(spec: dict) -> GroupoidChart:
    """Build a chart from the JSON description used in config files.

    Required keys: ``name``, ``base_dim``, ``fiber_dim``, ``source_map`` (list
    of ``base_dim`` expression trees in u, v), ``product`` (list of
    ``fiber_dim`` trees in u, v, w), ``base_box``, ``fiber_box``.  Optional:
    ``inverse`` (list of trees in u, v) and ``unit_weight`` (tree in u,
    default 1).  ``product_w_jacobian`` compiles the product's derivative trees.
    """
    n = int(spec["base_dim"])
    m = int(spec["fiber_dim"])
    source_exprs = spec.get("source_map", [])
    if len(source_exprs) != n:
        raise ConfigError([f"source_map needs {n} expression(s), got {len(source_exprs)}"])
    product_exprs = spec.get("product", [])
    if len(product_exprs) != m:
        raise ConfigError([f"product needs {m} expression(s), got {len(product_exprs)}"])

    source_fn = compile_vector(source_exprs, n, m, slots="uv")
    product_fn = compile_vector(product_exprs, n, m, slots="uvw")
    w_trees = [derivative(p, f"w{l + 1}") for p in product_exprs for l in range(m)]
    jacobian_fn = compile_vector(w_trees, n, m, slots="uvw")

    def w_jacobian(u, v, w):
        flat = jacobian_fn(u=np.asarray(u, float), v=np.asarray(v, float), w=np.asarray(w, float))
        return flat.reshape(flat.shape[:-1] + (m, m))

    weight = _resolve_weight(spec.get("unit_weight"), n)

    inverse_fn = None
    if "inverse" in spec:
        inv_exprs = spec["inverse"]
        if len(inv_exprs) != m:
            raise ConfigError([f"inverse needs {m} expression(s), got {len(inv_exprs)}"])
        inv_vec = compile_vector(inv_exprs, n, m, slots="uv")
        inverse_fn = lambda u, v: inv_vec(u=np.asarray(u, float), v=np.asarray(v, float))

    return GroupoidChart(
        name=str(spec.get("name", "custom")),
        base_dim=n,
        fiber_dim=m,
        source_map=lambda u, v: source_fn(u=np.asarray(u, float), v=np.asarray(v, float)),
        product=lambda u, v, w, *, out=None: product_fn(
            u=np.asarray(u, float), v=np.asarray(v, float), w=np.asarray(w, float), out=out
        ),
        product_w_jacobian=w_jacobian,
        unit_weight=weight,
        base_box=np.asarray(spec["base_box"], dtype=float).reshape(n, 2),
        fiber_box=np.asarray(spec["fiber_box"], dtype=float).reshape(m, 2),
        kind=str(spec.get("kind", "custom")),
        inverse=inverse_fn,
        params={"spec": "custom"},
    )

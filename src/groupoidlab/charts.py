"""Lie groupoids presented by single-chart data.

A chart packages the coordinate form of a groupoid near a unit: the source
map ``source_map(u, v)`` on base x fiber coordinates, the product law
``product(u, v, w)`` giving the fiber coordinate of a composition, a positive
unit weight on the base (the density of the fiberwise measure at units), and
the rectangular boxes on which the maps are defined.  Everything downstream
(structure extraction, deformed convolution, norm curves) consumes this one
data structure.  Every chart, built-in or from a JSON config, is compiled
from expression trees by :func:`chart_from_spec`; the built-ins are short
spec builders.

All maps are vectorized: they accept arrays whose last axis is the coordinate
axis and broadcast over leading batch axes, and return a new C-order such
array.  They also accept :class:`groupoidlab.expressions.Planes`, one array
per component, and then return Planes whose component ``k`` has the
broadcast shape of the components its tree reads: the deformed product
passes each coordinate at the shape of the grid axes it depends on, so a
coordinate that reads few axes is computed at their size.  ``product`` and
``product_solver`` also take a keyword-only ``out`` that overlaps no input: a
list of per-component arrays that are reused where their shapes agree (see
:func:`groupoidlab.expressions.compile_vector`); so a caller that solves many
blocks of one shape reuses its arrays.  All operations here are pure
functions of their arguments (and ``out``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError, SamplingError, SingularJacobianError, json_number
from .expressions import (
    Planes, _broadcast, _tree_uses, compile_expression, compile_solver, compile_vector, derivative, split, stack
)

Array = np.ndarray

# step of the central differences that extract the algebroid from the chart
# maps (groupoidlab.algebroid); config keeps the base grid this far inside the box
FD_STEP = 1e-3
SOLVE_TOL = 1e-12  # the residual every point that solve_product returns reaches
SOLVE_MAX_ITER = 50  # Newton's iteration cap in solve_product


@dataclass(frozen=True)
class GroupoidChart:
    """Single-chart presentation of a Lie groupoid.

    ``base_dim`` is the dimension of the unit space, ``fiber_dim`` the fiber
    dimension, so the groupoid has dimension ``base_dim + fiber_dim``.  The
    unit fiber coordinate is 0: ``source_map(u, 0) = u``,
    ``product(u, 0, w) = w`` and ``product(u, v, 0) = v``.

    ``product_w_jacobian`` is exact: ``[..., i, l] = d product_i / d w_l``,
    from the product's derivative trees, at the batch shape of the coordinate
    groups those trees read (one ``(m, m)`` matrix where they read none),
    which broadcasts against the inputs'.  ``product_solver`` solves
    ``product(u, v, w) = target`` in closed form, by forward substitution
    where the product is affine and lower triangular in w (every built-in
    is); it is None otherwise, and :func:`solve_product` runs Newton.  A
    custom chart's ``inverse`` is used where given, else the product solve.
    ``product(u, v, w, *, out=None)`` and ``product_solver(u, v, target, *,
    out=None)`` write into the Planes list ``out`` when given (see the module
    docs).
    ``is_pair`` marks the pair groupoids of :func:`pair_chart`, whose norm
    curve takes the kernel on the base grid.  ``translation_axes`` are the
    fiber axes ``l`` along which a shift of ``v`` is a left translation that
    keeps the source: ``product(u, v + a e_l, w) = product(u, v, w) + a e_l``
    and ``source_map(u, v + a e_l) = source_map(u, v)``, so a product solve
    reads ``v_l`` and ``target_l`` only through ``target_l - v_l``;
    :func:`chart_from_spec` derives them.

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
    is_pair: bool = False
    translation_axes: tuple = ()
    inverse: Optional[Callable[[Array, Array], Array]] = None
    product_solver: Optional[Callable[[Array, Array, Array], Array]] = None
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


def _worst_residual(chart: GroupoidChart, u, v, w, target, out) -> float:
    """``max |product(u, v, w) - target|`` over every point, NaN where any residual is.

    Each component's residual is taken at its own broadcast shape, which
    holds every value the component takes at any point, in ``out``.
    """
    worst = [0.0]
    for p, t in zip(split(chart.product(u, v, w, out=out)), split(target)):
        r = np.subtract(p, t, out=p if p.shape == _broadcast((p.shape, t.shape)) else None)
        worst.append(np.abs(r, out=r).max() if r.size else 0.0)
    return float(np.max(worst))


def solve_product(chart: GroupoidChart, u, v, target, *, out=None, residual=None) -> Array:
    """Solve ``product(u, v, w) = target`` for ``w`` (batched).

    Uses the chart's ``product_solver`` when present, otherwise Newton on its
    exact ``product_w_jacobian`` from ``w = target - v``.  Every point is
    checked: the closed form's residual, Newton's for at most
    :data:`SOLVE_MAX_ITER` iterations, against :data:`SOLVE_TOL`; a residual
    that is not finite fails the check.  The closed form writes ``w`` into
    ``out`` and its contract check the product into ``residual``: lists of
    per-component arrays reused where their shapes agree, so a caller that
    solves many blocks of one shape passes its own.  Given arrays the result
    is a new ``(..., fiber_dim)`` array.  Given
    :class:`~groupoidlab.expressions.Planes` it is Planes; Newton broadcasts
    them to the whole batch.  Newton takes no ``out``: each iteration
    allocates its product and step.  Raises ConvergenceError,
    SingularJacobianError or DomainError (iterate left the fiber box).
    """
    if chart.product_solver is not None:
        w = chart.product_solver(u, v, target, out=out)
        worst = _worst_residual(chart, u, v, w, target, residual)
        if not worst <= SOLVE_TOL:
            raise ConvergenceError(f"closed-form product solver violates its contract: residual {worst:.3e}")
        return w
    if any(isinstance(a, Planes) for a in (u, v, target)):
        batch = np.broadcast_shapes(*(np.shape(a)[:-1] for a in (u, v, target)))
        return split(solve_product(chart, *(stack(split(a), batch) for a in (u, v, target))))

    u, v, target = (np.asarray(a, dtype=float) for a in (u, v, target))
    shape = np.broadcast_shapes(u.shape[:-1], v.shape[:-1], target.shape[:-1]) + (chart.fiber_dim,)
    w = np.subtract(target, v, out=np.empty(shape))
    for _ in range(SOLVE_MAX_ITER):
        residual = chart.product(u, v, w)
        residual -= target
        worst = float(np.max(np.abs(residual))) if residual.size else 0.0
        if worst <= SOLVE_TOL:
            return w
        jac = chart.product_w_jacobian(u, v, w)
        try:
            step = np.linalg.solve(jac, residual[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"singular Jacobian in product solve: {exc}")
        w -= step
        if not np.all(_in_box(w, chart.fiber_box)):
            raise DomainError("Newton iterate for the product solve left the fiber box")
    raise ConvergenceError(
        f"product solve did not reach {SOLVE_TOL:.1e} in {SOLVE_MAX_ITER} iterations (residual {worst:.3e})"
    )


def _inverse(chart: GroupoidChart, u, v) -> Array:
    """The custom ``inverse`` where given, else the solve of ``product(u, v, w) = 0``."""
    if chart.inverse is not None:
        return np.asarray(chart.inverse(u, v), dtype=float)
    return solve_product(chart, u, v, np.zeros_like(np.asarray(v, dtype=float)))


def invert_element(chart: GroupoidChart, u, v) -> Array:
    """Fiber coordinate ``w`` of the inverse arrow, solving ``product(u, v, w) = 0``.

    Uses the custom chart's ``inverse`` when given, otherwise
    :func:`solve_product`.  The residual ``|product(u, v, w)|`` is
    guaranteed <= :data:`SOLVE_TOL`.
    """
    u = check_box(u, chart.base_box, "base point u")
    v = check_box(v, chart.fiber_box, "fiber vector v")
    w = _inverse(chart, u, v)
    residual = np.max(np.abs(chart.product(u, v, w))) if w.size else 0.0
    if not residual <= SOLVE_TOL:
        raise ConvergenceError(f"inverse residual {residual:.3e} exceeds {SOLVE_TOL:.1e}")
    return w


# the residual fields of AxiomReport, in report order
AXIOMS = ("associativity", "source_compatibility", "left_unit", "right_unit", "source_unit", "inverse_law")


class AxiomReport(NamedTuple):
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
        values = dict(zip(self._fields[1:], self[1:]))
        return {"chart": self.chart_name, **values, "max_residual": self.max_residual}


def _sample_box(rng: np.random.Generator, box: Array, count: int, shrink: float) -> Array:
    center = 0.5 * (box[:, 0] + box[:, 1])
    half = 0.5 * (box[:, 1] - box[:, 0]) * shrink
    return center + (2.0 * rng.random((count, box.shape[0])) - 1.0) * half


def validate_axioms(chart: GroupoidChart, sample_count: int = 100, seed: int = 0) -> AxiomReport:
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
        winv = _inverse(chart, u, v)
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

def _builtin(name, source_map, product, half_width, mu_e=None, **params) -> GroupoidChart:
    n, m = len(source_map), len(product)
    box = lambda dim: [[-half_width, half_width]] * dim
    spec = dict(name=name, base_dim=n, fiber_dim=m, source_map=source_map, product=product)
    spec.update(unit_weight=mu_e, base_box=box(n), fiber_box=box(m))
    return chart_from_spec(spec, dict(params, half_width=half_width))


def _additive(m: int) -> list:
    return [["+", f"v{i}", f"w{i}"] for i in range(1, m + 1)]


def pair_chart(n: int, half_width: float = 10.0, mu_e=None) -> GroupoidChart:
    """Pair groupoid on R^n x R^n: source u + v, additive product."""
    if n < 1:
        raise ValueError("pair chart needs n >= 1")
    source_map = [["+", f"u{j}", f"v{j}"] for j in range(1, n + 1)]
    return replace(_builtin(f"pair({n})", source_map, _additive(n), half_width, mu_e, n=n), is_pair=True)


def abelian_bundle_chart(n: int, m: int, half_width: float = 10.0, mu_e=None) -> GroupoidChart:
    """Bundle of abelian groups R^m over R^n (n = 0 gives the group R^m)."""
    source_map = [f"u{j}" for j in range(1, n + 1)]
    return _builtin(f"abelian_bundle({n},{m})", source_map, _additive(m), half_width, mu_e, n=n, m=m)


def heisenberg_chart(half_width: float = 6.0) -> GroupoidChart:
    """Heisenberg group in exponential coordinates (base dimension 0)."""
    twist = ["*", 0.5, ["-", ["*", "v1", "w2"], ["*", "v2", "w1"]]]
    # summed as twist + (v3 + w3); validate and algebroid bytes depend on the order
    product = _additive(2) + [["+", ["+", "v3", "w3"], twist]]
    return _builtin("heisenberg", [], product, half_width)


def ax_plus_b_chart(half_width: float = 2.0) -> GroupoidChart:
    """Affine group of the line in global coordinates; non-unimodular."""
    product = [["+", "v1", "w1"], ["+", "v2", ["*", ["exp", "v1"], "w2"]]]
    return _builtin("ax_plus_b", [], product, half_width)


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


def chart_from_spec(spec: dict, params: Optional[dict] = None) -> GroupoidChart:
    """Build a chart from the JSON description used in config files.

    Required keys: ``base_dim``, ``fiber_dim``, ``source_map`` (list of
    ``base_dim`` expression trees in u, v), ``product`` (list of
    ``fiber_dim`` trees in u, v, w), ``base_box``, ``fiber_box``.  Optional:
    ``name`` (default "custom"), ``inverse`` (list of trees in u, v) and
    ``unit_weight`` (tree in u; default 1).  The chart is no pair chart
    (``is_pair`` False); only :func:`pair_chart` sets it.  ``product_w_jacobian``
    compiles the product's derivative trees, and ``product_solver`` is the
    forward substitution of :func:`groupoidlab.expressions.compile_solver`
    where the product is affine and lower triangular in w, else None (Newton).
    ``translation_axes`` are the axes ``l`` whose derivative trees show the
    translation exactly: ``d product_i / d v_l`` is the constant 1.0 for
    ``i = l`` and 0.0 otherwise, and every ``d source_map_j / d v_l`` is 0.0.
    ``params`` default to ``{"spec": "custom"}``; the built-ins pass theirs.
    """
    n = json_number(spec["base_dim"], "base_dim must be an integer", integer=True)
    m = json_number(spec["fiber_dim"], "fiber_dim must be an integer", integer=True)
    source_exprs = spec.get("source_map", [])
    if len(source_exprs) != n:
        raise ConfigError([f"source_map needs {n} expression(s), got {len(source_exprs)}"])
    product_exprs = spec.get("product", [])
    if len(product_exprs) != m:
        raise ConfigError([f"product needs {m} expression(s), got {len(product_exprs)}"])

    source_fn = compile_vector(source_exprs, n, m, slots="uv")
    product_fn = compile_vector(product_exprs, n, m, slots="uvw")
    jacobian = [[derivative(p, f"w{l + 1}") for l in range(m)] for p in product_exprs]
    # compiled on first use: only the Haar density and Newton read it
    entries = [d for row in jacobian for d in row]
    jacobian_fn = functools.cache(lambda: compile_vector(entries, n, m, slots="uvw"))
    reads = [s for s in "uvw" if any(_tree_uses(d, s) for d in entries)]

    def w_jacobian(u, v, w):
        groups = {"u": u, "v": v, "w": w}
        flat = jacobian_fn()(**{s: np.asarray(groups[s], float) for s in reads})
        return flat.reshape(flat.shape[:-1] + (m, m))

    inverse_fn = None
    if "inverse" in spec:
        inv_exprs = spec["inverse"]
        if len(inv_exprs) != m:
            raise ConfigError([f"inverse needs {m} expression(s), got {len(inv_exprs)}"])
        inv_vec = compile_vector(inv_exprs, n, m, slots="uv")
        inverse_fn = lambda u, v: inv_vec(u=u, v=v)

    # d/dv_l of the product trees, then of the source trees: e_l, then zeros
    shift = lambda l: [derivative(e, f"v{l + 1}") for e in [*product_exprs, *source_exprs]]
    translation_axes = tuple(l for l in range(m) if shift(l) == [float(i == l) for i in range(m)] + [0.0] * n)
    weight = spec.get("unit_weight")  # None (a built-in's default) weighs 1
    return GroupoidChart(
        name=str(spec.get("name", "custom")),
        base_dim=n,
        fiber_dim=m,
        source_map=lambda u, v: source_fn(u=u, v=v),
        product=lambda u, v, w, *, out=None: product_fn(u=u, v=v, w=w, out=out),
        product_w_jacobian=w_jacobian,
        unit_weight=compile_expression(1.0 if weight is None else weight, n, 0, slots="u"),
        base_box=np.asarray(spec["base_box"], dtype=float).reshape(n, 2),
        fiber_box=np.asarray(spec["fiber_box"], dtype=float).reshape(m, 2),
        translation_axes=translation_axes,
        inverse=inverse_fn,
        product_solver=compile_solver(product_exprs, jacobian, n, m),
        params={"spec": "custom"} if params is None else params,
    )

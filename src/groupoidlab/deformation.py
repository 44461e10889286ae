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
Its points live on a tensor layout of (base node, output axes, integration
axes): ``t eta`` and ``t xi`` are one array per grid axis, and every other
coordinate is an array of the shape of the axes it depends on, so it is
computed at their size.  On heisenberg ``w1 = t xi1 - t eta1`` spans the first
output and the first integration axis only; on pair and bundle charts ``w``
spans no base axis.  Only what depends on every axis is full size (there
``w3``, the symbol values and their exponent).  A block of output nodes is a
product set, the leading output axes sliced and the trailing ones whole,
with about ``_BLOCK_POINTS`` transported points (``K * H`` per output node),
so memory does not grow with the grid and each block's arrays stay in
cache; a full-size array of a block is one contiguous ``(K, A, H)`` array
whose inner axis runs over the ``H`` integration nodes.  A block's arrays
are allocated once per ``t`` and reused by every later block of the same
shape.  On a block :func:`scaled_commutator` evaluates both orderings,
:func:`deformed_product` one, and :func:`groupoidlab.normfield.group_regular_norm`
assembles the matrix of ``g -> f *_t g``.  The product sums each output value
over the contiguous integration nodes with einsum's vector partial sums, not
in node order; the sum is the same for any block size, so the values are too.

Difference axes
---------------
Along a translation axis ``l`` of a group chart
(:attr:`~groupoidlab.charts.GroupoidChart.translation_axes`: a shift of
``v_l`` shifts the product's ``l``-th coordinate and nothing else),
``product(t eta, w) = t xi`` is ``product(t eta', w) = t xi'`` with ``eta'_l
= 0`` and ``xi'_l = xi_l - eta_l``: the transport reads ``xi_l`` and
``eta_l`` only through their difference, and the ``eta_l``-sum is a
correlation.  So :func:`deformed_product` and :func:`scaled_commutator`
transport a group chart on a layout whose last translation axis is a
difference axis: its output axis holds the ``2N - 1`` node differences
``t step (k - N + 1)``, its integration axis the one node 0, and every
other axis is laid out as above.  That is ``N^(m-1) (2N - 1)`` points
instead of ``N^(2m)`` on an ``N^m`` grid (714K instead of 4.8M on
heisenberg 13^3), each solved, checked against the solver's contract and
evaluated once.  An output row, the ``N`` output nodes of the difference
axis at one node of the other axes, is one GEMM of fixed shape, the
``(2N - 1, H / N)`` values by the ``(H / N, N)`` coefficients, and output
node ``i`` adds entry ``(i - j + N - 1, j)`` of the product over ``j`` in
order, so the sums do not depend on the block size (nor, with OpenBLAS,
on its thread count: 1 and 2 threads gave the same bits).  A block is a
product set of whole rows, about ``_BLOCK_POINTS`` transported points or
product entries, whichever a row has more of; a row that alone exceeds the
budget is a block.  Only the last translation axis is laid out so: with two
difference axes a row's product would hold every difference of both against
every node of both, which no block budget bounds.  Charts with a base
keep the plain layout: a pair chart's source map moves with ``v``, so it
has no translation axis, and a bundle's ``w`` already reads no base axis;
on the flat bundle of ``configs/abelian_degenerate.json`` the difference
layout ran slower and moved the roundoff commutator that
``benchmarks/reference.json`` pins exactly.  So does
:func:`groupoidlab.normfield.group_regular_norm`, whose matrix needs every
pair of nodes.

As ``t -> 0`` the scaled commutator ``(f *_t g - g *_t f) / t`` converges to
``1/(2 pi i)`` times the bracket under the chart's unit weight;
:func:`classical_limit_error_table` measures that convergence.
The study's entry points, :func:`deformed_product` and :func:`scaled_commutator`
at one ``t`` and :func:`classical_limit_error_table` over a sweep, take the
chart, the grid and the symbols ``f0`` and ``g0`` as plain arguments.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .charts import GroupoidChart, _in_box, _sample_box, solve_product
from .config import deformation_domain_problems, limit_sweep_problems
from .errors import DomainError, GroupoidLabError, SingularJacobianError
from .expressions import Planes
from .grids import GridSpec, SampledSymbol, axis_plane, scale_of
from .poisson import TWO_PI_I, poisson_bracket
from .symbols import SymbolSpec

Operand = Union[SymbolSpec, SampledSymbol]

# transported points (K * H per output node, or per difference row its
# points or product entries) in one block of output nodes: each full-size
# float64 array of a block takes 0.5 MB, so the passes of one symbol
# evaluation run in cache.  The scaled-commutator t sweeps (0.2, 0.1, 0.05)
# of heisenberg 13^3 (difference layout) + pair 129^2 in one process, best
# of 7 on a 2-core host: 1 << 15 0.055 + 0.087 s, 1 << 16 0.042 + 0.070 s,
# 1 << 17 0.059 + 0.085 s, where each doubling doubles the arrays a block holds
_BLOCK_POINTS = 1 << 16


def haar_density(chart: GroupoidChart, u, v) -> np.ndarray:
    """Chart density of the left-invariant fiber measure (see module docs).

    ``rho(u, v) = unit_weight(source_map(u, v)) / |det product_w_jacobian(u, v, 0)|``;
    positive wherever defined, equal to the unit weight at ``v = 0``.  The
    determinants are taken at the Jacobian's own batch shape (one on pair
    charts, one per fiber point on groups) and broadcast in the division.
    A batch of lower-triangular Jacobians (heisenberg, ax+b, pair) takes the
    product of the diagonal, which is exact; any other batch takes LU.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    sigma = chart.source_map(u, v)
    mu = np.asarray(chart.unit_weight(sigma), dtype=float)
    jacobian = chart.product_w_jacobian(u, v, np.zeros_like(v))
    if np.triu(jacobian, 1).any():
        det = np.abs(np.linalg.det(jacobian))
    else:
        det = np.abs(np.prod(np.diagonal(jacobian, axis1=-2, axis2=-1), axis=-1))
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


def _node_blocks(shape: tuple, rows: int):
    """Blocks of about ``rows`` nodes of the C-order node grid ``shape``: ``(start, slices, sizes)``.

    Each block is a product set, one slice per axis, of ``sizes`` nodes: the
    trailing axes that fit in ``rows`` whole, the axis before them in runs of
    ``rows`` // (their size) nodes and every leading axis one node at a time.
    So a block is the run of flat node indices from ``start``, and the blocks
    cover the grid in order.
    """
    j, inner = len(shape), 1
    while j and inner * shape[j - 1] <= rows:
        j -= 1
        inner *= shape[j]
    if j == 0:
        yield 0, (slice(None),) * len(shape), shape
        return
    step, start, whole = max(1, rows // inner), 0, (slice(None),) * (len(shape) - j)
    for prefix in np.ndindex(*shape[: j - 1]):
        for lo in range(0, shape[j - 1], step):
            hi = min(lo + step, shape[j - 1])
            slices = tuple(slice(i, i + 1) for i in prefix) + (slice(lo, hi),) + whole
            yield start, slices, (1,) * len(prefix) + (hi - lo,) + shape[j:]
            start += (hi - lo) * inner


class _Transport:
    """The part of the deformed product that depends on ``t`` and the grid only.

    Setup checks ``t`` and the domain and takes the Haar density at the
    integration nodes; :meth:`blocks` cuts the output into blocks,
    :meth:`solve` transports a block, :meth:`evaluate` reads a symbol at the
    transported points and :meth:`contract` weighs and sums those values.
    Points are :class:`~groupoidlab.expressions.Planes` on the layout ``(K,
    output axes, integration axes)`` (see the module docs): the base nodes
    ``u`` span the first axis, ``v_eta = t eta`` one integration axis a
    coordinate, and the solved ``w / t`` the axes its coordinate depends on.
    A ``difference`` axis (a translation axis of a group chart) comes after
    the other grid axes on both sides, with its ``2N - 1`` node differences
    on the output side and the one node 0 on the integration side; the
    coefficients and the output then run over the nodes in that axis order.
    The block's points, its contract-check residual, its symbol values and
    their two exponent arrays are allocated once and reused by every later
    block of the same shape.
    """

    def __init__(self, chart: GroupoidChart, grid: GridSpec, t: float, difference: Optional[int] = None):
        problems = deformation_domain_problems(chart, grid, [t])
        if problems:
            raise DomainError("; ".join(problems))
        self.chart, self.t, self.difference = chart, t, difference
        self.fiber_pts = grid.fiber_points_flat()  # (H, m)
        self.base = grid.base_points_flat()[:, None]  # (K, 1, n)
        m, ndim = grid.fiber_dim, 1 + 2 * grid.fiber_dim
        self.u = Planes(axis_plane(x, 0, ndim) for x in self.base[:, 0].T)
        # the grid axes in layout order, and the output and integration nodes of each
        self.order = sorted(range(m), key=lambda l: l == difference)
        xi, eta = [t * ax.nodes for ax in grid.fiber], [t * ax.nodes for ax in grid.fiber]
        if difference is not None:  # t xi - t eta = t step (k - N + 1), at eta = 0
            ax = grid.fiber[difference]
            xi[difference], eta[difference] = t * ax.step * np.arange(1 - ax.count, ax.count), np.zeros(1)
        self._position = [self.order.index(l) for l in range(m)]
        self._xi = [axis_plane(x, 1 + q, ndim) for x, q in zip(xi, self._position)]
        self.v_eta = Planes(axis_plane(x, 1 + m + q, ndim) for x, q in zip(eta, self._position))
        self.output_shape = tuple(xi[l].size for l in self.order)
        self.node_shape = tuple(eta[l].size for l in self.order)
        self._grid_shape = grid.fiber_shape
        self.lanes = 1 if difference is None else grid.fiber[difference].count  # nodes an output row holds
        self.rho = haar_density(chart, self.base, t * self.fiber_pts[None])  # (K, H)
        self.weights = grid.fiber_weights().reshape(-1)  # (H,)
        self._buffers: dict = {}
        self._points, self._residual = [None] * m, [None] * m

    def coefficient(self, f0: Operand) -> np.ndarray:
        """Coefficients ``f0 * rho * weight`` in ``f0``'s dtype; ``f0`` is read at nodes only.

        ``(K, H)``, or with a difference axis ``(H / N, N)`` in layout order, the
        ``N`` nodes of the difference axis last.
        """
        if isinstance(f0, SymbolSpec):
            values = f0.evaluate(self.base, self.fiber_pts[None])
        else:
            values = f0.values.reshape(self.rho.shape)
        coeff = values * self.rho * self.weights
        if self.difference is None:
            return coeff
        return coeff.reshape(self._grid_shape).transpose(self.order).reshape(-1, self.lanes)

    def in_grid_order(self, out: np.ndarray) -> np.ndarray:
        """The ``(K, H)`` output ``out`` of layout order in grid order."""
        if self.difference is None:
            return out
        layout = [self._grid_shape[l] for l in self.order]
        return out.reshape(layout).transpose(self._position).reshape(out.shape)

    def blocks(self):
        """The output in blocks ``(start, stop, block, sizes)`` of about ``_BLOCK_POINTS`` points each.

        A block is the product set ``block`` of output-axis slices, of
        ``sizes``: the output rows of :func:`_node_blocks` on the axes before
        the difference axis, which each block takes whole.  A row holds one
        node on the plain layout, ``N`` with a difference axis, and its
        transported points (``K * H`` per node on the plain layout) and its
        product matrix count against the budget; a row never splits.  The
        block's outputs are the nodes ``start:stop`` in layout order.
        """
        K, H = self.rho.shape
        whole = () if self.difference is None else self.output_shape[-1:]
        row = K * math.prod(whole) * max(H // self.lanes, self.lanes)
        rows = self.output_shape[: len(self.output_shape) - len(whole)]
        for start, block, sizes in _node_blocks(rows, max(1, _BLOCK_POINTS // row)):
            stop = start + math.prod(sizes)
            yield start * self.lanes, stop * self.lanes, block + (slice(None),) * len(whole), sizes + whole

    def _buffer(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """The array ``name`` of ``shape``: the head of a flat buffer kept for later blocks."""
        buffers, key, size = self._buffers, (name, dtype), math.prod(shape)
        if key not in buffers or buffers[key].size < size:
            buffers[key] = np.empty(size, dtype)
        return buffers[key][:size].reshape(shape)

    def solve(self, block: tuple) -> Planes:
        """Planes of ``w / t``, ``product(u, t eta, w) = t xi`` for xi in the product set ``block``.

        The arrays are overwritten by the next call of the same shape.
        """
        index = lambda q, s: (slice(None),) * (1 + q) + (s,)
        target = Planes(x[index(q, block[q])] for x, q in zip(self._xi, self._position))
        w = solve_product(self.chart, self.u, self.v_eta, target, out=self._points, residual=self._residual)
        for plane in w:
            plane /= self.t
        return w

    def evaluate(self, g0: Operand, sigma: Planes, points: Planes) -> np.ndarray:
        """Values of ``g0`` at the block's points over ``sigma``, at the points' broadcast shape.

        An analytic ``g0`` writes into the transport's buffers, overwritten by the next call.
        """
        if not isinstance(g0, SymbolSpec):
            return g0.evaluate(sigma, points)
        batch = np.broadcast_shapes(sigma.shape[:-1], points.shape[:-1])
        scratch = (self._buffer("exponent", batch), self._buffer("square", batch))
        return g0.evaluate(sigma, points, out=self._buffer("values", batch, g0.dtype), scratch=scratch)

    def contract(self, coeff: np.ndarray, values: np.ndarray, sizes: tuple) -> np.ndarray:
        """``(K, nodes)`` outputs of a block of ``sizes``: its symbol ``values`` weighed by ``coeff`` and summed.

        On the plain layout each output is one einsum sum over the
        contiguous integration nodes of its row.  With a difference axis each
        row is one GEMM of fixed shape, ``(2N - 1, H / N)`` values by the
        ``(H / N, N)`` coefficients, and output node ``i`` of the row adds
        entry ``(i - j + N - 1, j)`` of the product over ``j`` in order.
        """
        K, H = self.rho.shape
        # the values span every axis of the block unless no coordinate reads
        # one (a chart that breaks the unit laws); broadcast_to spreads them
        values = np.broadcast_to(values, (K,) + sizes + self.node_shape)
        if self.difference is None:
            return np.einsum("kh,kah->ka", coeff, values.reshape(K, -1, H), optimize=False)
        n = self.lanes
        products = np.matmul(values.reshape(-1, 2 * n - 1, H // n), coeff)  # K = 1
        out = np.zeros(products.shape[:1] + (n,), products.dtype)
        for j in range(n):
            out += products[:, n - 1 - j : 2 * n - 1 - j, j]
        return out.reshape(1, -1)


def _deformed_products(
    chart: GroupoidChart,
    grid: GridSpec,
    pairs: Sequence[tuple[Operand, Operand]],
    t: float,
) -> list[np.ndarray]:
    """``(K, H)`` values of ``f *_t g`` for every ``(f, g)`` in ``pairs``.

    A group chart with translation axes transports on the layout whose
    difference axis is the last of them; any other chart on the plain
    layout.  The output goes in the transport's blocks of about
    ``_BLOCK_POINTS`` transported points, so a block's points and symbol
    values stay in cache; each block is transported once and every pair reads
    it.  A real ``g0`` is contracted with the real and, for a complex ``f0``,
    the imaginary part of the coefficient in float64.  Each output value is
    summed over one row of the block, and the row and its sums are the same
    whatever the blocks, so the values do not depend on the block size.
    """
    difference = chart.translation_axes[-1] if chart.base_dim == 0 and chart.translation_axes else None
    transport = _Transport(chart, grid, t, difference)
    K, H = transport.rho.shape
    sigma = chart.source_map(transport.u, transport.v_eta)
    coeffs = [transport.coefficient(f0) for f0, _ in pairs]  # in each f0's dtype
    parts = [
        (c, np.ascontiguousarray(c.real), np.ascontiguousarray(c.imag) if np.iscomplexobj(c) else None)
        for c in coeffs
    ]

    outs = [np.zeros((K, H), dtype=complex) for _ in pairs]
    for start, stop, block, sizes in transport.blocks():
        points = transport.solve(block)
        for (_, g0), (coeff, real, imag), out in zip(pairs, parts, outs):
            values = transport.evaluate(g0, sigma, points)
            if np.iscomplexobj(values):
                out[:, start:stop] = transport.contract(coeff, values, sizes)
            else:
                out.real[:, start:stop] = transport.contract(real, values, sizes)
                if imag is not None:
                    out.imag[:, start:stop] = transport.contract(imag, values, sizes)
    return [transport.in_grid_order(out) for out in outs]


def deformed_product(
    chart: GroupoidChart,
    grid: GridSpec,
    f0: Operand,
    g0: Operand,
    t: float,
) -> SampledSymbol:
    """Deformed convolution of two sections at parameter ``t`` (see module docs).

    The unit weight enters through the fiber density ``rho``, so no separate
    weight argument exists here.  ``f0`` is only evaluated at grid nodes;
    ``g0`` is evaluated at the transported points, exactly for analytic
    symbols and by multilinear interpolation for sampled ones; a real ``g0``
    is evaluated in float64.  The output is complex, sampled on ``grid``.
    With a ``product_solver`` (every chart affine and triangular in w) the
    results are identical at any block size.
    """
    (values,) = _deformed_products(chart, grid, [(f0, g0)], t)
    return SampledSymbol(values=values.reshape(grid.shape), grid=grid)


def scaled_commutator(chart: GroupoidChart, grid: GridSpec, f0: Operand, g0: Operand, t: float) -> SampledSymbol:
    """(f *_t g - g *_t f) / t, the quantity whose ``t -> 0`` limit is checked.

    Both orderings share one transport; the values equal those of two
    :func:`deformed_product` calls bit for bit.
    """
    fg, gf = _deformed_products(chart, grid, [(f0, g0), (g0, f0)], t)
    return SampledSymbol(values=((fg - gf) / t).reshape(grid.shape), grid=grid)


class LimitTable(NamedTuple):
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


def classical_limit_error_table(
    chart: GroupoidChart, grid: GridSpec, f0: Operand, g0: Operand, t_values: Sequence[float]
) -> LimitTable:
    """Convergence table of the scaled commutator toward the bracket limit.

    The sections are constant in blow-up coordinates: the same coordinate
    expressions ``f0`` and ``g0`` are used at every ``t``.  The bracket
    target carries the chart's unit weight, as the deformed product's Haar
    density does.  The sweep's domain rule and limit rule
    (:func:`groupoidlab.config.deformation_domain_problems`,
    :func:`groupoidlab.config.limit_sweep_problems`) are checked together,
    before any computation; a violation raises DomainError.
    """
    problems = deformation_domain_problems(chart, grid, t_values) + limit_sweep_problems(t_values)
    if problems:
        raise DomainError("; ".join(problems))

    bracket = poisson_bracket(f0, g0, chart, grid)
    target = bracket.values / TWO_PI_I
    bracket_sup = scale_of(bracket.values)

    rows = []
    prev_err = None
    last_sup = 0.0
    for t in t_values:
        commutator = scaled_commutator(chart, grid, f0, g0, t)
        err = float(np.max(np.abs(commutator.values - target)))
        ratio = float("nan") if prev_err in (None, 0.0) else err / prev_err
        rows.append((float(t), err, ratio))
        prev_err = err
        last_sup = float(np.max(np.abs(commutator.values)))

    return LimitTable(rows=tuple(rows), bracket_sup=bracket_sup, observed_constant=last_sup / bracket_sup)

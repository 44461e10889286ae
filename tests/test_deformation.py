import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

import groupoidlab as gl
from groupoidlab import charts, deformation
from groupoidlab.errors import ConvergenceError, GroupoidLabError, SingularJacobianError
from groupoidlab.expressions import Planes

from conftest import CUSTOM_AX_PLUS_B
from oracles import (
    heisenberg_deformed_gaussians,
    kernel_composition_additive,
    pair_deformed_gaussians,
)


def test_solve_product_additive_is_exact():
    chart = gl.builtin_chart("abelian_bundle", n=1, m=1)
    u = np.array([[0.2]])
    v = np.array([[0.7]])
    target = np.array([[-0.4]])
    w = gl.solve_product(chart, u, v, target)
    assert np.array_equal(w, target - v)


def test_solve_product_heisenberg_contract(heisenberg):
    rng = np.random.default_rng(12)
    v = rng.uniform(-2, 2, (100, 3))
    target = rng.uniform(-2, 2, (100, 3))
    w = gl.solve_product(heisenberg, np.zeros((100, 0)), v, target)
    residual = np.max(np.abs(heisenberg.product(np.zeros((100, 0)), v, w) - target))
    assert residual <= 1e-12


def test_newton_matches_closed_form(heisenberg):
    assert heisenberg.product_solver is not None  # forward substitution from the product's trees
    newton_chart = replace(heisenberg, product_solver=None)
    rng = np.random.default_rng(5)
    v = rng.uniform(-1.5, 1.5, (50, 3))
    target = rng.uniform(-1.5, 1.5, (50, 3))
    u = np.zeros((50, 0))
    np.testing.assert_allclose(
        gl.solve_product(newton_chart, u, v, target),
        gl.solve_product(heisenberg, u, v, target),
        atol=1e-12,
    )
    # inverse through Newton agrees with the closed-form inverse -v
    np.testing.assert_allclose(
        gl.solve_product(newton_chart, u, v, np.zeros_like(v)), -v, atol=1e-12
    )


def test_newton_nonconvergence_raises(monkeypatch):
    chart = gl.chart_from_spec(
        {
            "name": "nasty",
            "base_dim": 0,
            "fiber_dim": 1,
            "source_map": [],
            # p(v, w) = v + w stays solvable, but one iteration cannot finish
            "product": [["+", "v1", "w1", ["*", 0.4, "w1", "w1", "w1"]]],
            "unit_weight": 1.0,
            "base_box": [],
            "fiber_box": [[-3.0, 3.0]],
        }
    )
    monkeypatch.setattr(charts, "SOLVE_MAX_ITER", 1)  # the cap is a module constant, lowered for the test only
    with pytest.raises(ConvergenceError):
        gl.solve_product(chart, np.zeros((1, 0)), np.array([[0.1]]), np.array([[2.0]]))


# the Heisenberg group in exponential coordinates, written as a custom chart
CUSTOM_HEISENBERG = {
    "name": "custom_heisenberg",
    "base_dim": 0,
    "fiber_dim": 3,
    "source_map": [],
    "product": [
        ["+", "v1", "w1"],
        ["+", "v2", "w2"],
        ["+", "v3", "w3", ["*", 0.5, ["-", ["*", "v1", "w2"], ["*", "v2", "w1"]]]],
    ],
    "unit_weight": 1.0,
    "base_box": [],
    "fiber_box": [[-6.0, 6.0]] * 3,
}


@pytest.mark.parametrize("spec, builtin", [(CUSTOM_AX_PLUS_B, "ax_plus_b"), (CUSTOM_HEISENBERG, "heisenberg")])
def test_newton_solves_a_product_affine_in_w_in_one_step(spec, builtin, monkeypatch):
    # the derivative trees give the built-in chart's closed-form Jacobian, entry
    # [..., i, l] = d product_i / d w_l, so one Newton step lands and the second
    # iteration only confirms the residual
    custom = replace(gl.chart_from_spec(spec), product_solver=None)  # Newton, not forward substitution
    reference = gl.builtin_chart(builtin)
    rng = np.random.default_rng(8)
    u = np.zeros((200, 0))
    v, w = rng.uniform(-1.0, 1.0, (2, 200, custom.fiber_dim))
    np.testing.assert_array_equal(custom.product_w_jacobian(u, v, w), reference.product_w_jacobian(u, v, w))
    target = custom.product(u, v, w)
    monkeypatch.setattr(charts, "SOLVE_MAX_ITER", 2)
    got = gl.solve_product(custom, u, v, target)
    np.testing.assert_allclose(got, w, rtol=0, atol=1e-12)


# w1 = (target - v1) / (1 - v1): the diagonal of the w-Jacobian vanishes at v1 = 1
SINGULAR_AT_V1_ONE = {
    "name": "singular_at_v1_one",
    "base_dim": 0,
    "fiber_dim": 1,
    "source_map": [],
    "product": [["+", "v1", "w1", ["*", -1.0, "v1", "w1"]]],
    "unit_weight": 1.0,
    "base_box": [],
    "fiber_box": [[-4.0, 4.0]],
}


def test_a_vanishing_diagonal_raises_singular_jacobian():
    chart = gl.chart_from_spec(SINGULAR_AT_V1_ONE)
    assert chart.product_solver is not None
    u, v, target = np.zeros((2, 0)), np.array([[0.5], [1.0]]), np.array([[1.0], [1.0]])
    for solver in (chart, replace(chart, product_solver=None)):  # forward substitution, Newton
        with pytest.raises(SingularJacobianError):
            gl.solve_product(solver, u, v, target)
    np.testing.assert_allclose(gl.solve_product(chart, u[:1], v[:1], target[:1]), [[1.0]], rtol=1e-15)


def test_a_closed_form_solver_returning_nan_fails_its_contract(pair1):
    nan_solver = lambda u, v, target, *, out=None: np.full(np.broadcast_shapes(np.shape(v), np.shape(target)), np.nan)
    chart = replace(pair1, product_solver=nan_solver)
    with pytest.raises(ConvergenceError, match="residual nan"):
        gl.solve_product(chart, np.zeros((3, 1)), np.zeros((3, 1)), np.ones((3, 1)))


@pytest.mark.parametrize("coordinate", [0, 2])
def test_the_contract_check_covers_every_point(coordinate, heisenberg, request):
    # a heisenberg solver that moves one entry of one plane by 1e-9: w1 spans
    # one output and one integration axis, w3 every axis of the block
    shift = [0.0]

    def moved(u, v, target, *, out=None):
        w = heisenberg.product_solver(u, v, target, out=out)
        w[coordinate].flat[-1] += shift[0]
        return w

    chart = replace(heisenberg, product_solver=moved)
    case = _commutator_case("heisenberg", request)._replace(chart=chart)
    grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(1.5, 8) for _ in range(3)))
    f = gl.SymbolSpec.gaussian(0, 3, xi_widths=1.3)
    case.commutator(0.1)
    gl.group_regular_norm(f, chart, 0.3, grid)
    shift[0] = 1e-9
    with pytest.raises(ConvergenceError, match="violates its contract"):
        case.commutator(0.1)
    with pytest.raises(ConvergenceError, match="violates its contract"):
        gl.group_regular_norm(f, chart, 0.3, grid)


def test_haar_density_rejects_a_nan_jacobian():
    # d p / d w1 = v1 / v1 is 0/0 at the unit section's v1 = 0
    spec = dict(SINGULAR_AT_V1_ONE, product=[["+", "v1", ["*", "w1", ["/", "v1", "v1"]]]])
    chart = gl.chart_from_spec(spec)
    with np.errstate(invalid="ignore"), pytest.raises(SingularJacobianError):
        gl.haar_density(chart, np.zeros((3, 0)), np.array([[-0.5], [0.0], [0.5]]))


@pytest.mark.parametrize("spec, builtin", [(CUSTOM_HEISENBERG, "heisenberg"), (CUSTOM_AX_PLUS_B, "ax_plus_b")])
def test_custom_specs_give_the_builtins_scaled_commutator_bitwise(spec, builtin, request):
    # one chart implementation: the built-ins are specs too, solved by the same forward substitution
    half_width = spec["fiber_box"][0][1]
    case = _commutator_case("heisenberg" if builtin == "heisenberg" else "custom_ax_plus_b", request)
    custom = case._replace(chart=gl.chart_from_spec(spec))
    reference = case._replace(chart=gl.builtin_chart(builtin, half_width=half_width))
    t = case.t_values[1]
    got = custom.commutator(t).values
    assert got.tobytes() == reference.commutator(t).values.tobytes()


# -- haar density ---------------------------------------------------------------

def test_haar_density_trivial_charts(pair1, heisenberg):
    rng = np.random.default_rng(0)
    v = rng.uniform(-2, 2, (20, 1))
    u = rng.uniform(-2, 2, (20, 1))
    np.testing.assert_allclose(gl.haar_density(pair1, u, v), 1.0, atol=1e-12)
    v3 = rng.uniform(-2, 2, (20, 3))
    np.testing.assert_allclose(
        gl.haar_density(heisenberg, np.zeros((20, 0)), v3), 1.0, atol=1e-12
    )


def test_haar_density_ax_plus_b_modular_factor():
    chart = gl.builtin_chart("ax_plus_b")
    v = np.array([[1.0, 0.3], [-0.5, 0.1]])
    np.testing.assert_allclose(
        gl.haar_density(chart, np.zeros((2, 0)), v), np.exp(-v[:, 0]), rtol=1e-12
    )


def test_haar_density_of_a_custom_chart_is_exact(custom_ax_plus_b):
    # the same group as the built-in ax_plus_b, written as expression trees
    v = np.random.default_rng(4).uniform(-2.0, 2.0, (500, 2))
    rho = gl.haar_density(custom_ax_plus_b, np.zeros((500, 0)), v)
    np.testing.assert_allclose(rho, np.exp(-v[:, 0]), rtol=1e-12)


@pytest.mark.parametrize(
    "chart, jacobian_batch",
    [
        (gl.builtin_chart("pair", n=1, mu_e=["exp", ["-", ["*", "u1", "u1"]]]), ()),
        (gl.builtin_chart("heisenberg"), (1, 9)),
        (gl.builtin_chart("ax_plus_b"), (1, 9)),
        (gl.chart_from_spec(CUSTOM_AX_PLUS_B), (1, 9)),
    ],
    ids=["pair", "heisenberg", "ax_plus_b", "custom_ax_plus_b"],
)
def test_haar_density_takes_determinants_at_the_jacobians_own_batch_shape(chart, jacobian_batch):
    # the transport's call: K = 7 base nodes (K, 1, n) against H = 9 fiber points (1, H, m);
    # a constant Jacobian is one matrix, one read from v one per fiber point
    n, m = chart.base_dim, chart.fiber_dim
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 1.0, (7 if n else 1, 1, n))
    v = rng.uniform(-0.5, 0.5, (1, 9, m))
    jac = chart.product_w_jacobian(u, v, np.zeros_like(v))
    assert jac.shape == jacobian_batch + (m, m)
    # against determinants of the Jacobian broadcast to every (u, v) pair
    full = np.broadcast_to(jac, np.broadcast_shapes(u.shape[:-1], v.shape[:-1]) + (m, m))
    mu = chart.unit_weight(chart.source_map(u, v))
    expected = mu / np.abs(np.linalg.det(full))
    got = gl.haar_density(chart, u, v)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_haar_density_of_a_triangular_jacobian_is_exact_where_lu_pivots():
    # heisenberg's Jacobian is unit lower-triangular, so its determinant is 1; LU with
    # partial pivoting misses 1 by an ulp at some points where an entry v/2 exceeds 1
    chart = gl.builtin_chart("heisenberg")
    v = np.random.default_rng(0).uniform(-5.5, 5.5, (2000, 3))
    u = np.zeros((2000, 0))
    assert np.array_equal(gl.haar_density(chart, u, v), chart.unit_weight(chart.source_map(u, v)))


def test_haar_density_normalized_at_units():
    chart = gl.builtin_chart("pair", n=1, mu_e=["exp", ["-", ["*", "u1", "u1"]]])
    u = np.array([[0.5], [-0.3]])
    np.testing.assert_allclose(
        gl.haar_density(chart, u, np.zeros((2, 1))),
        np.exp(-u[:, 0] ** 2),
        rtol=1e-12,
    )


@pytest.mark.parametrize(
    "name, params",
    [
        ("pair", {"n": 1}),
        ("abelian_bundle", {"n": 1, "m": 2}),
        ("heisenberg", {}),
        ("ax_plus_b", {}),
    ],
)
def test_haar_left_invariance(name, params):
    chart = gl.builtin_chart(name, **params)
    assert gl.left_invariance_residual(chart, sample_count=100, seed=17) <= 1e-8


# -- deformed product ------------------------------------------------------------

def bundle_setup():
    chart = gl.builtin_chart("abelian_bundle", n=1, m=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 32),), fiber=(gl.Axis.centered(8.0, 64),))
    f = gl.SymbolSpec.gaussian(1, 1, xi_widths=1.2)
    g = gl.SymbolSpec.gaussian(1, 1, xi_powers=[1])
    return chart, grid, f, g


def test_flat_bundle_matches_fiber_convolution():
    chart, grid, f, g = bundle_setup()
    mu = gl.unit_weight_on_grid(chart, grid)
    deformed = gl.deformed_product(chart, grid, f, g, 0.2)
    plain = gl.fiber_convolve(gl.eval_symbol(f, grid), gl.eval_symbol(g, grid), mu)
    assert np.max(np.abs(deformed.values - plain.values)) <= 1e-12 * gl.scale_of(plain.values)


def test_flat_bundle_t_independent_and_commutative():
    chart, grid, f, g = bundle_setup()
    reference = gl.deformed_product(chart, grid, f, g, 0.4)
    for t in (0.2, 0.1, 0.05):
        other = gl.deformed_product(chart, grid, f, g, t)
        assert np.max(np.abs(other.values - reference.values)) <= 1e-12 * gl.scale_of(reference.values)
        commutator = gl.scaled_commutator(chart, grid, f, g, t)
        assert np.max(np.abs(commutator.values)) <= 1e-10


def test_zero_right_factor_gives_zero(pair1, pair1_grid64, gauss11):
    out = gl.deformed_product(pair1, pair1_grid64, gauss11, gl.SymbolSpec.zero(1, 1), 0.1)
    assert np.all(out.values == 0)


def test_kernel_composition_oracle_at_unit_scale(pair1):
    grid = gl.GridSpec(base=(gl.Axis.centered(2.0, 32),), fiber=(gl.Axis.centered(8.0, 64),))
    f = gl.SymbolSpec.gaussian(1, 1)
    g = gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_widths=1.2)
    deformed = gl.deformed_product(pair1, grid, f, g, 1.0)
    oracle = kernel_composition_additive(
        lambda x, xi: np.exp(-x**2 - xi**2),
        lambda x, xi: x * np.exp(-x**2 - 1.2 * xi**2),
        grid.base[0].nodes,
        grid.fiber[0].nodes,
    )
    assert np.max(np.abs(deformed.values.real - oracle)) <= 1e-6
    assert np.max(np.abs(deformed.values.imag)) == 0.0


def test_real_symbols_give_real_commutator(pair1, pair1_grid64, gauss11, xxigauss11):
    commutator = gl.scaled_commutator(pair1, pair1_grid64, gauss11, xxigauss11, 0.1)
    assert np.max(np.abs(commutator.values.imag)) <= 1e-12 * gl.scale_of(commutator.values)


class Case(NamedTuple):
    """A classical-limit case: the arguments of ``classical_limit_error_table``."""

    chart: gl.GroupoidChart
    grid: gl.GridSpec
    f0: gl.SymbolSpec
    g0: gl.SymbolSpec
    t_values: tuple

    def commutator(self, t):
        return gl.scaled_commutator(self.chart, self.grid, self.f0, self.g0, t)


def _commutator_case(name, request):
    t_values = (0.2, 0.1, 0.05)
    if name == "pair":
        fixtures = ("pair1", "pair1_grid64", "gauss11", "xxigauss11")
        return Case(*map(request.getfixturevalue, fixtures), t_values)
    if name == "abelian_bundle":
        return Case(*bundle_setup(), t_values)
    if name == "heisenberg":
        # 11^3 nodes take many blocks of the product loop
        grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(5.5, 10) for _ in range(3)))
        f = gl.SymbolSpec.gaussian(0, 3, xi_widths=[1.1, 1.2, 1.1], xi_centers=[0.3, 0.0, -0.2])
        g = gl.SymbolSpec.gaussian(0, 3, xi_powers=[1, 0, 0], xi_widths=[1.2, 1.1, 1.3])
    else:
        grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(3.5, 16), gl.Axis.centered(3.5, 16)))
        f = gl.SymbolSpec.gaussian(0, 2, xi_widths=[2.5, 2.5])
        g = gl.SymbolSpec.gaussian(0, 2, xi_powers=[1, 0], xi_widths=[3.0, 2.6])
    # the built-in ax_plus_b with the custom chart's box
    chart = gl.builtin_chart("ax_plus_b", half_width=4.0) if name == "ax_plus_b" else request.getfixturevalue(name)
    return Case(chart, grid, f, g, t_values)


def _on_threads(callers: int, compute):
    """``compute()`` started at once on ``callers`` threads of the caller's own; the results."""
    barrier = threading.Barrier(callers)

    def run(_):
        barrier.wait()
        return compute()

    with ThreadPoolExecutor(max_workers=callers) as pool:
        return list(pool.map(run, range(callers)))


# callers: threads of the caller's own that run the product at once; each
# call has its own block arrays, and chart evaluation keeps no state between calls
@pytest.mark.parametrize("callers", [1, 3])
@pytest.mark.parametrize("chart_name", ["heisenberg", "custom_ax_plus_b"])
def test_scaled_commutator_shares_the_transport_exactly(chart_name, callers, request):
    # both orderings read one transport per t; the values are those of two
    # separate products, bit for bit
    case = _commutator_case(chart_name, request)
    t = case.t_values[0]
    fg = gl.deformed_product(case.chart, case.grid, case.f0, case.g0, t)
    gf = gl.deformed_product(case.chart, case.grid, case.g0, case.f0, t)
    for commutator in _on_threads(callers, lambda: case.commutator(t)):
        assert commutator.values.tobytes() == ((fg.values - gf.values) / t).tobytes()


# 1 << 11 makes the blocks of heisenberg, pair and the bundle one node wide
# and those of ax+b 7 nodes of one line, 1 << 12 makes heisenberg blocks
# three nodes wide, 1 << 20 puts every case but heisenberg in one block
@pytest.mark.parametrize("budget", [1 << 11, 1 << 12, 1 << 20])
@pytest.mark.parametrize("callers", [1, 3])
@pytest.mark.parametrize("chart_name", ["heisenberg", "pair", "custom_ax_plus_b", "ax_plus_b", "abelian_bundle"])
def test_block_size_does_not_change_the_product(chart_name, callers, budget, request, monkeypatch):
    # every node sum runs over the same contiguous row whatever the blocks, and
    # forward substitution solves each point on its own
    case = _commutator_case(chart_name, request)
    t = case.t_values[1]
    default = case.commutator(t).values
    monkeypatch.setattr(deformation, "_BLOCK_POINTS", budget)
    for blocked in _on_threads(callers, lambda: case.commutator(t).values):
        assert blocked.tobytes() == default.tobytes()


def test_consecutive_products_do_not_alias(request):
    # the block arrays are reused inside a product, never handed out
    case = _commutator_case("heisenberg", request)
    first = gl.deformed_product(case.chart, case.grid, case.f0, case.g0, 0.1)
    kept = first.values.copy()
    second = gl.deformed_product(case.chart, case.grid, case.g0, case.f0, 0.1)
    assert not np.shares_memory(first.values, second.values)
    assert first.values.tobytes() == kept.tobytes()


@pytest.mark.parametrize("chart_name", ["heisenberg", "pair"])
def test_transported_coordinates_span_the_axes_they_depend_on(chart_name, request):
    # the layout is (base node, output axes, integration axes); a block of
    # 2 * 11 * 11 heisenberg output nodes takes two first-axis slices
    case = _commutator_case(chart_name, request)
    t = 0.1
    transport = deformation._Transport(case.chart, case.grid, t)
    rows = 242 if chart_name == "heisenberg" else 3
    _, (start, block, sizes), *_ = deformation._node_blocks(case.grid.fiber_shape, rows)
    points = transport.solve(block)
    K, n, m = len(transport.rho), case.chart.base_dim, case.chart.fiber_dim
    batch, count = (K,) + sizes + case.grid.fiber_shape, int(np.prod(sizes))
    if chart_name == "heisenberg":
        assert batch == (1, 2, 11, 11, 11, 11, 11)
        # w1 = t xi1 - t eta1 and w2 read one output and one integration axis, w3 every axis
        assert [p.shape for p in points] == [(1, 2, 1, 1, 11, 1, 1), (1, 1, 11, 1, 1, 11, 1), batch]
    else:
        assert batch == (K, 3, 65) and K == 65
        # w = t xi - t eta reads no base node
        assert [p.shape for p in points] == [(1, 3, 65)]
    # the values are those of a solve on interleaved (..., m) points
    eta = case.grid.fiber_points_flat()
    H = len(eta)
    u = transport.base.reshape(K, 1, 1, n)
    want = gl.solve_product(case.chart, u, t * eta[None, None], t * eta[None, start : start + count, None])
    got = np.stack([np.broadcast_to(p, batch).reshape(K, count, H) for p in points], axis=-1)
    assert got.shape == (K, count, H, m)
    assert got.tobytes() == (want / t).tobytes()


@pytest.mark.parametrize("coordinate", [0, 1, 2])
def test_planes_solve_and_check_like_interleaved_points(coordinate, heisenberg):
    # solve_product on Planes gives each coordinate at its own shape, the
    # values of the solve on the (..., m) array of the same points
    rng = np.random.default_rng(coordinate)
    u = Planes(())
    v = Planes(rng.uniform(-1, 1, (1, 5) if l == coordinate else (1, 1)) for l in range(3))
    target = Planes(rng.uniform(-1, 1, (4, 1)) for _ in range(3))
    got = gl.solve_product(heisenberg, u, v, target)
    assert isinstance(got, Planes) and got.shape == (4, 5, 3)
    full = lambda planes: np.stack([np.broadcast_to(p, (4, 5)) for p in planes], axis=-1)
    want = gl.solve_product(heisenberg, np.zeros((4, 5, 0)), full(v), full(target))
    assert full(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("chart_name", ["custom_ax_plus_b", "heisenberg"])
def test_a_newton_chart_transports_like_its_closed_form(chart_name, request):
    # without a closed-form solver the transport's planes are broadcast to each block for Newton
    case = _commutator_case(chart_name, request)
    newton = case._replace(chart=replace(case.chart, product_solver=None))
    t = case.t_values[1]
    want = case.commutator(t).values
    got = newton.commutator(t).values
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_scaled_commutator_memory_is_bounded_by_its_blocks(request):
    # 13^3 nodes: a whole (H, H, m) transport would be 116 MB
    grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(5.5, 12) for _ in range(3)))
    case = _commutator_case("heisenberg", request)._replace(grid=grid)
    tracemalloc.start()
    try:
        case.commutator(0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_pair_product_matches_gaussian_closed_form(pair1, pair1_grid64):
    # the transported argument is affine in eta, so f *_t g of Gaussians is a
    # Gaussian integral; the trapezoid rule on decayed Gaussians is exact to roundoff
    t = 0.2
    fp, gp = (1.0, 0.3, 0.8, 0.2), (0.7, -0.4, 1.2, -0.1)
    f = gl.SymbolSpec.gaussian(1, 1, x_widths=fp[0], x_centers=fp[1], xi_widths=fp[2], xi_centers=fp[3])
    g = gl.SymbolSpec.gaussian(1, 1, x_widths=gp[0], x_centers=gp[1], xi_widths=gp[2], xi_centers=gp[3])
    got = gl.deformed_product(pair1, pair1_grid64, f, g, t).values
    want = np.array(
        [
            [pair_deformed_gaussians(x, xi, t, fp, gp) for xi in pair1_grid64.fiber[0].nodes]
            for x in pair1_grid64.base[0].nodes
        ]
    )
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_heisenberg_product_matches_gaussian_closed_form(heisenberg):
    # same closed form through the Heisenberg law; the 15^3 trapezoid grid
    # integrates these Gaussians to ~1.4e-6 of the product's sup
    t = 0.2
    grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(6.0, 14) for _ in range(3)))
    fw, fc = [0.45, 0.5, 0.45], [0.3, 0.0, -0.2]
    gw, gc = [0.45, 0.4, 0.5], [0.0, -0.25, 0.1]
    f = gl.SymbolSpec.gaussian(0, 3, xi_widths=fw, xi_centers=fc)
    g = gl.SymbolSpec.gaussian(0, 3, xi_widths=gw, xi_centers=gc)
    got = gl.deformed_product(heisenberg, grid, f, g, t).values.reshape(-1)
    want = np.array(
        [heisenberg_deformed_gaussians(xi, t, (fw, fc), (gw, gc)) for xi in grid.fiber_points_flat()]
    )
    assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


def test_associativity_at_fixed_scale(pair1):
    f = gl.SymbolSpec.gaussian(1, 1, xi_widths=1.2)
    g = gl.SymbolSpec.gaussian(1, 1, xi_powers=[1])
    h = gl.SymbolSpec.gaussian(1, 1, x_powers=[1], x_widths=1.1)
    t = 0.1

    def residual(intervals):
        grid = gl.GridSpec(
            base=(gl.Axis.centered(6.0, intervals),), fiber=(gl.Axis.centered(8.0, intervals),)
        )
        fg = gl.deformed_product(pair1, grid, f, g, t)
        left = gl.deformed_product(pair1, grid, fg, h, t)
        gh = gl.deformed_product(pair1, grid, g, h, t)
        right = gl.deformed_product(pair1, grid, f, gh, t)
        return np.max(np.abs(left.values - right.values)) / gl.scale_of(left.values, right.values)

    coarse = residual(128)
    fine = residual(256)
    assert fine <= 5e-3
    assert coarse / fine >= 2.0  # first-kind interpolation error, O(h^2)


# -- sweep validation -------------------------------------------------------------
# three or more t values each, so the limit rule's length is not what rejects them

def test_field_rejects_zero_and_increasing_t(pair1, pair1_grid64, gauss11):
    # a zero t is reported as such, not met by a division in the ratio test
    for t_values in ((0.2, 0.1, 0.0), (0.0, 0.1, 0.2)):
        with pytest.raises(GroupoidLabError, match="nonzero"):
            gl.classical_limit_error_table(pair1, pair1_grid64, gauss11, gauss11, t_values)
    with pytest.raises(GroupoidLabError, match="decrease"):
        gl.classical_limit_error_table(pair1, pair1_grid64, gauss11, gauss11, (0.1, 0.2, 0.4))


def test_field_rejects_out_of_box_scale(gauss11):
    chart = gl.builtin_chart("pair", n=1, half_width=3.0)
    grid = gl.GridSpec(base=(gl.Axis.centered(2.0, 16),), fiber=(gl.Axis.centered(8.0, 64),))
    with pytest.raises(GroupoidLabError, match="outside its box"):
        gl.classical_limit_error_table(chart, grid, gauss11, gauss11, (0.5, 0.25, 0.125))


def test_table_requires_geometric_sweep(pair1, pair1_grid64, gauss11, xxigauss11):
    with pytest.raises(GroupoidLabError, match="geometric"):
        gl.classical_limit_error_table(pair1, pair1_grid64, gauss11, xxigauss11, (0.2, 0.1, 0.07))


@pytest.mark.parametrize("t_values", [(0.2, 0.1), (0.2, 0.1, 0.07), (0.5, 0.25, 0.125), (0.0, 0.1, 0.2)])
def test_table_rejects_a_sweep_before_any_computation(t_values, monkeypatch, gauss11):
    # each sweep breaks one rule: the limit rule's length, its ratios, the chart box, the zero
    chart = gl.builtin_chart("pair", n=1, half_width=3.0)
    grid = gl.GridSpec(base=(gl.Axis.centered(2.0, 16),), fiber=(gl.Axis.centered(8.0, 16),))

    def computed(*args):
        raise AssertionError("the bracket was computed before the sweep was checked")

    monkeypatch.setattr(deformation, "poisson_bracket", computed)
    with pytest.raises(GroupoidLabError):
        gl.classical_limit_error_table(chart, grid, gauss11, gauss11, t_values)


# -- the limit itself --------------------------------------------------------------

def test_classical_limit_additive_chart(pair1, pair1_grid64, gauss11, xxigauss11):
    table = gl.classical_limit_error_table(pair1, pair1_grid64, gauss11, xxigauss11, (0.2, 0.1, 0.05))
    assert table.errors_decreasing()
    for ratio in table.ratios():
        assert 0.35 <= ratio <= 0.65
    assert table.observed_constant == pytest.approx(1.0 / (2.0 * np.pi), rel=5e-3)


def test_classical_limit_ax_plus_b_first_order():
    chart = gl.builtin_chart("ax_plus_b", half_width=4.0)
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(3.5, 24), gl.Axis.centered(3.5, 24)))
    f = gl.SymbolSpec.gaussian(0, 2, xi_widths=[2.5, 2.5])
    g = gl.SymbolSpec.gaussian(0, 2, xi_powers=[1, 0], xi_widths=[3.0, 2.6])
    table = gl.classical_limit_error_table(chart, grid, f, g, (0.2, 0.1, 0.05))
    assert table.errors_decreasing()
    for ratio in table.ratios():
        assert 0.35 <= ratio <= 0.65


def test_classical_limit_heisenberg_is_second_order(heis_limit_table16):
    # the midpoint-symmetric product law makes the deformed commutator odd in t,
    # so the error is O(t^2): super-convergent, ratios near 1/4 rather than 1/2
    table, _ = heis_limit_table16
    assert table.errors_decreasing()
    for ratio in table.ratios():
        assert 0.2 <= ratio <= 0.3
    assert table.observed_constant == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-2)


def _opposite_and_commutator(chart, grid, f, g, t):
    """Sup of f *_{-t} g - g *_t f and of f *_t g - g *_t f, relative to the products."""
    fg = gl.deformed_product(chart, grid, f, g, t)
    gf = gl.deformed_product(chart, grid, g, f, t)
    fg_opposite = gl.deformed_product(chart, grid, f, g, -t)
    scale = gl.scale_of(fg.values, gf.values)
    mismatch = np.max(np.abs(fg_opposite.values - gf.values)) / scale
    commutator = np.max(np.abs(fg.values - gf.values)) / scale
    return mismatch, commutator


def test_opposite_scale_swaps_factors_only_in_exponential_coordinates():
    # why heisenberg converges at second order: with v^-1 = -v and Haar density 1,
    # f *_{-t} g = g *_t f, so the commutator is odd in t and the scaled one even
    t = 0.2
    heis = gl.builtin_chart("heisenberg")
    heis_grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(5.5, 12) for _ in range(3)))
    f = gl.SymbolSpec.gaussian(0, 3, xi_widths=[1.1, 1.2, 1.1], xi_centers=[0.3, 0.0, -0.2])
    g = gl.SymbolSpec.gaussian(0, 3, xi_powers=[1, 0, 0], xi_widths=[1.2, 1.1, 1.3])
    mismatch, commutator = _opposite_and_commutator(heis, heis_grid, f, g, t)
    assert mismatch <= 1e-2  # quadrature error of the 12^3 grid
    assert commutator >= 10 * mismatch

    # affine coordinates lack the symmetry; this chart converges at first order
    axb = gl.builtin_chart("ax_plus_b", half_width=4.0)
    axb_grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(3.5, 24), gl.Axis.centered(3.5, 24)))
    f = gl.SymbolSpec.gaussian(0, 2, xi_widths=[2.5, 2.5])
    g = gl.SymbolSpec.gaussian(0, 2, xi_powers=[1, 0], xi_widths=[3.0, 2.6])
    mismatch, _ = _opposite_and_commutator(axb, axb_grid, f, g, t)
    assert mismatch >= 3e-2

import math
import tracemalloc

import numpy as np
import pytest

import groupoidlab as gl
from groupoidlab.errors import DomainError, GroupoidLabError

from oracles import (
    ax_plus_b_density,
    ax_plus_b_transport,
    dense_transform_sup,
    heisenberg_transport,
    regular_action_norm,
)


def test_power_iteration_on_diagonal():
    m = np.diag([3.0, 1.0, 0.5]).astype(complex)
    sigma, residual, iterations = gl.power_iteration_sigma(m)
    assert sigma == pytest.approx(3.0, rel=1e-10)
    assert residual <= 1e-8
    assert 1 <= iterations <= min(m.shape)


@pytest.mark.parametrize(
    "matrix, sigma",
    [
        (np.eye(4), 1.0),  # the top eigenvalue repeats
        (np.diag([0.5, 3.0, 1.0]), 3.0),  # the eigensolver returns the top eigenvalue exactly
        (np.zeros((3, 3)), 0.0),
        (np.array([[3.0 + 4.0j]]), 5.0),
    ],
    ids=["identity", "diagonal", "zero", "one_by_one"],
)
def test_power_iteration_edge_cases(matrix, sigma):
    value, residual, iterations = gl.power_iteration_sigma(matrix)
    assert value == pytest.approx(sigma, rel=1e-14, abs=0.0)
    assert np.isfinite(residual) and residual <= 1e-8
    assert 1 <= iterations <= min(matrix.shape)


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(120, 120), (200, 70), (70, 200), (1, 6), (6, 1)])
def test_power_iteration_matches_svd(shape):
    matrix = _complex_gaussian(np.random.default_rng(7), shape)
    sigma, residual, iterations = gl.power_iteration_sigma(matrix)
    exact = np.linalg.svd(matrix, compute_uv=False)[0]
    assert abs(sigma - exact) <= 1e-14 * exact
    assert residual <= 1e-7
    assert 1 <= iterations <= min(shape)


@pytest.mark.parametrize("rank", [1, 3])
def test_power_iteration_rank_deficient(rank):
    rng = np.random.default_rng(3)
    matrix = _complex_gaussian(rng, (50, rank)) @ _complex_gaussian(rng, (rank, 40))
    sigma, residual, iterations = gl.power_iteration_sigma(matrix)
    exact = np.linalg.svd(matrix, compute_uv=False)[0]
    assert abs(sigma - exact) <= 1e-14 * exact
    assert residual <= 1e-12
    assert iterations <= rank + 2


@pytest.mark.parametrize("shape", [(120, 120), (200, 70), (70, 200)])
def test_power_iteration_matches_svd_real(shape):
    matrix = np.random.default_rng(7).standard_normal(shape)
    sigma, residual, iterations = gl.power_iteration_sigma(matrix)
    exact = np.linalg.svd(matrix, compute_uv=False)[0]
    assert abs(sigma - exact) <= 1e-14 * exact
    assert residual <= 1e-7
    assert 1 <= iterations <= min(shape)


@pytest.mark.parametrize("rank", [1, 3])
def test_power_iteration_rank_deficient_real(rank):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((50, rank)) @ rng.standard_normal((rank, 40))
    sigma, residual, iterations = gl.power_iteration_sigma(matrix)
    exact = np.linalg.svd(matrix, compute_uv=False)[0]
    assert abs(sigma - exact) <= 1e-14 * exact
    assert residual <= 1e-12
    assert iterations <= rank + 2


def test_power_iteration_clustered_top_pair():
    # sigma_2 = sigma_1 (1 - 1e-10): the Ritz value lands inside the cluster
    # without separating it, so it is accurate to the cluster's width
    rng = np.random.default_rng(5)
    left, _ = np.linalg.qr(_complex_gaussian(rng, (80, 80)))
    right, _ = np.linalg.qr(_complex_gaussian(rng, (80, 80)))
    values = np.linspace(0.9, 0.1, 80)
    values[:2] = 1.0, 1.0 - 1e-10
    matrix = (left * values) @ right.conj().T
    sigma, residual, iterations = gl.power_iteration_sigma(matrix)
    top, second = np.linalg.svd(matrix, compute_uv=False)[:2]
    assert second * (1 - 1e-14) <= sigma <= top * (1 + 1e-14)
    assert residual <= 1e-7
    assert iterations < 80


def test_power_iteration_bitwise_repeatable():
    matrix = _complex_gaussian(np.random.default_rng(11), (90, 60))
    assert gl.power_iteration_sigma(matrix) == gl.power_iteration_sigma(matrix)


def test_power_iteration_allocates_no_gram_matrix():
    matrix = _complex_gaussian(np.random.default_rng(13), (600, 600))
    gl.power_iteration_sigma(matrix[:4, :4])  # first call's one-time set-up
    tracemalloc.start()
    try:
        gl.power_iteration_sigma(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * matrix.nbytes


def pair_norm_setup():
    chart = gl.builtin_chart("pair", n=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(5.0, 256),), fiber=(gl.Axis.centered(8.0, 64),))
    mu = gl.unit_weight_on_grid(chart, grid)
    return chart, grid, mu


def test_zero_fiber_norm_of_zero_symbol():
    _, grid, mu = pair_norm_setup()
    row = gl.zero_fiber_norm(gl.SymbolSpec.zero(1, 1), grid, mu)
    assert row.value == 0.0


def test_zero_fiber_norm_self_dual_gaussian():
    _, grid, mu = pair_norm_setup()
    f = gl.SymbolSpec.gaussian(1, 1, x_widths=1.0, xi_widths=np.pi)
    row = gl.zero_fiber_norm(f, grid, mu)
    assert row.value == pytest.approx(1.0, abs=1e-8)


def test_zero_fiber_norm_homogeneous_bitwise():
    _, grid, mu = pair_norm_setup()
    f = gl.SymbolSpec.gaussian(1, 1, xi_widths=0.5)
    one = gl.zero_fiber_norm(f, grid, mu)
    two = gl.zero_fiber_norm(f.scaled(2.0), grid, mu)
    assert two.value == 2.0 * one.value


def test_pair_kernel_norm_zero_symbol():
    chart, grid, mu = pair_norm_setup()
    row = gl.pair_kernel_norm(gl.SymbolSpec.zero(1, 1), 0.2, grid, mu)
    assert row.value == 0.0


def test_pair_kernel_rank_one_oracle():
    # duck-typed rank-one symbol f0(x, v) = a(x) b(x + v): kernel a(x) b(y),
    # whose norm is the product of the weighted 2-norms of a and b
    chart, grid, mu = pair_norm_setup()

    class RankOne:
        def evaluate(self, xpts, xipts):
            x = xpts[..., 0]
            y = x + xipts[..., 0]
            return np.exp(-(x**2)) * np.exp(-((y - 0.3) ** 2) * 1.3) + 0j

    row = gl.pair_kernel_norm(RankOne(), 1.0, grid, mu)
    xs = grid.base[0].nodes
    w = grid.base_weights()
    norm_a = np.sqrt(np.sum(w * np.exp(-(xs**2)) ** 2))
    norm_b = np.sqrt(np.sum(w * np.exp(-((xs - 0.3) ** 2) * 1.3) ** 2))
    assert row.value == pytest.approx(norm_a * norm_b, rel=1e-6)


def test_pair_kernel_support_guard():
    chart, grid, mu = pair_norm_setup()
    f = gl.SymbolSpec.gaussian(1, 1)
    with pytest.raises(DomainError):
        gl.pair_kernel_norm(f, 2.0, grid, mu)  # 2.0 * 8 = 16 > base span 10


def test_cstar_identity():
    chart, grid, mu = pair_norm_setup()
    f = gl.SymbolSpec.gaussian(1, 1, xi_widths=0.5)
    for t in (0.4, 0.1):
        assert gl.pair_cstar_identity_residual(f, t, grid, mu) <= 1e-5


def test_triangle_inequality():
    chart, grid, mu = pair_norm_setup()
    f = gl.SymbolSpec.gaussian(1, 1, xi_widths=0.5)
    g = gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_widths=0.7)
    t = 0.2
    nf = gl.pair_kernel_norm(f, t, grid, mu).value
    ng = gl.pair_kernel_norm(g, t, grid, mu).value
    nfg = gl.pair_kernel_norm(f + g, t, grid, mu).value
    assert nfg <= nf + ng + 1e-10


def test_norm_curve_pair_continuity():
    chart, grid, _ = pair_norm_setup()
    f = gl.SymbolSpec.gaussian(1, 1, x_widths=1.0, xi_widths=0.5)
    curve = gl.norm_curve(f, chart, (0.4, 0.2, 0.1, 0.05), grid)
    assert curve.zero.value == pytest.approx(np.sqrt(2 * np.pi), rel=1e-6)
    assert curve.deltas_decreasing()
    assert curve.final_delta_fraction() <= 0.05
    assert all(row.residual <= 1e-8 for row in curve.rows)


def test_norm_curve_discretization_stability():
    # doubling the base grid moves the reported norms by less than 1e-3 relative
    chart = gl.builtin_chart("pair", n=1)
    f = gl.SymbolSpec.gaussian(1, 1, x_widths=1.0, xi_widths=0.5)
    values = []
    for intervals in (256, 512):
        grid = gl.GridSpec(
            base=(gl.Axis.centered(5.0, intervals),), fiber=(gl.Axis.centered(8.0, 64),)
        )
        mu = gl.unit_weight_on_grid(chart, grid)
        values.append(gl.pair_kernel_norm(f, 0.1, grid, mu).value)
    assert abs(values[1] - values[0]) / values[1] <= 1e-3


def abelian_group_setup():
    chart = gl.builtin_chart("abelian_bundle", n=0, m=1, half_width=40.0)
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(20.0, 160),))
    return chart, grid


def test_group_regular_norm_matches_transform_sup():
    chart, grid = abelian_group_setup()
    f = gl.SymbolSpec.gaussian(0, 1, xi_widths=3.0)
    row = gl.group_regular_norm(f, chart, 0.3, grid)
    samples = gl.eval_symbol(f, grid).values.real
    oracle = dense_transform_sup(samples, grid.fiber[0].nodes, grid.fiber[0].trapezoid_weights())
    assert row.value == pytest.approx(oracle, rel=1e-3)


def test_group_regular_norm_zero_symbol():
    chart, grid = abelian_group_setup()
    row = gl.group_regular_norm(gl.SymbolSpec.zero(0, 1), chart, 0.3, grid)
    assert row.value == 0.0


def test_group_norm_triangle_inequality():
    chart, grid = abelian_group_setup()
    f = gl.SymbolSpec.gaussian(0, 1, xi_widths=3.0)
    g = gl.SymbolSpec.gaussian(0, 1, xi_powers=[1], xi_widths=2.5)
    nf = gl.group_regular_norm(f, chart, 0.3, grid).value
    ng = gl.group_regular_norm(g, chart, 0.3, grid).value
    nfg = gl.group_regular_norm(f + g, chart, 0.3, grid).value
    assert nfg <= nf + ng + 1e-10


def test_norm_curve_abelian_group_constant():
    chart, grid = abelian_group_setup()
    f = gl.SymbolSpec.gaussian(0, 1, xi_widths=3.0)
    curve = gl.norm_curve(f, chart, (0.4, 0.2, 0.1), grid)
    values = [row.value for row in curve.rows]
    assert max(values) - min(values) <= 1e-12 * values[0]
    assert curve.final_delta_fraction() <= 1e-3


def test_norm_curve_reads_the_unit_weight_of_the_chart():
    # the regular-action rows carry the weight through the Haar density, so
    # the t = 0 row has to read the same weight or the curve jumps by 2x at 0
    chart = gl.chart_from_spec(
        {
            "name": "weighted_line",
            "base_dim": 0,
            "fiber_dim": 1,
            "source_map": [],
            "product": [["+", "v1", "w1"]],
            "unit_weight": 2.0,
            "base_box": [],
            "fiber_box": [[-40.0, 40.0]],
        }
    )
    _, grid = abelian_group_setup()
    f = gl.SymbolSpec.gaussian(0, 1, xi_widths=1.0)
    curve = gl.norm_curve(f, chart, (0.4, 0.2, 0.1), grid)
    assert curve.final_delta_fraction() <= 0.05


def test_norm_curve_rejects_unsupported_chart():
    chart = gl.builtin_chart("abelian_bundle", n=1, m=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 16),), fiber=(gl.Axis.centered(8.0, 32),))
    f = gl.SymbolSpec.gaussian(1, 1)
    with pytest.raises(GroupoidLabError, match="norm curves support"):
        gl.norm_curve(f, chart, (0.2, 0.1), grid)


def test_heisenberg_regular_norm_smoke(heisenberg):
    grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(5.0, 8) for _ in range(3)))
    f = gl.SymbolSpec.gaussian(0, 3, xi_widths=1.3)
    row = gl.group_regular_norm(f, heisenberg, 0.2, grid)
    assert row.value > 0
    assert row.residual <= 1e-8


REGULAR_ACTION_CASES = {
    # chart: (fiber intervals, half width, t, transport, density)
    "heisenberg": ((6, 6, 6), 4.0, 0.3, heisenberg_transport, lambda v: np.ones(len(v))),
    "ax_plus_b": ((16, 12), 3.0, 0.2, ax_plus_b_transport, ax_plus_b_density),
    "custom_ax_plus_b": ((16, 12), 3.0, 0.2, ax_plus_b_transport, ax_plus_b_density),
}


@pytest.mark.parametrize(
    "chart_name, rel",
    [
        ("heisenberg", 1e-12),
        ("ax_plus_b", 1e-12),
        # the custom chart's Jacobian comes from its product's derivative trees
        ("custom_ax_plus_b", 1e-12),
    ],
)
def test_group_regular_norm_matches_per_node_oracle(chart_name, rel, request):
    if chart_name == "ax_plus_b":
        chart = gl.builtin_chart("ax_plus_b", half_width=4.0)
    else:
        chart = request.getfixturevalue(chart_name)
    intervals, half_width, t, transport, density = REGULAR_ACTION_CASES[chart_name]
    m = len(intervals)
    f = gl.SymbolSpec.gaussian(0, m, xi_widths=1.3, xi_centers=[0.2, -0.1, -0.3][:m])
    f = f + gl.SymbolSpec.gaussian(0, m, coeff=0.5j, xi_powers=[1] + [0] * (m - 1))
    grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(half_width, n) for n in intervals))
    row = gl.group_regular_norm(f, chart, t, grid)
    symbol = lambda nodes: f.evaluate(np.zeros((len(nodes), 0)), nodes)
    axes = [(half_width, n + 1) for n in intervals]
    assert row.value == pytest.approx(regular_action_norm(symbol, transport, density, axes, t), rel=rel)
    assert row.residual <= 1e-8


@pytest.mark.parametrize(
    "chart_name, intervals, half_width, t",
    [
        ("ax_plus_b", (24, 24), 3.5, 0.2),  # 7 row blocks
        ("custom_ax_plus_b", (16, 16), 3.0, 0.2),  # 2 row blocks
        ("heisenberg", (6, 6, 6), 4.0, 0.3),  # 4 row blocks
    ],
)
def test_regular_action_matrix_applies_the_deformed_product(
    chart_name, intervals, half_width, t, request, monkeypatch
):
    # the matrix and the deformed product share one transport, so the action
    # on samples g must be f *_t g with g read by multilinear interpolation
    if chart_name == "ax_plus_b":
        chart = gl.builtin_chart("ax_plus_b", half_width=4.0)
    else:
        chart = request.getfixturevalue(chart_name)
    m = len(intervals)
    grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(half_width, n) for n in intervals))
    f = gl.SymbolSpec.gaussian(0, m, xi_widths=1.3, xi_centers=[0.2, -0.1, -0.3][:m])
    f = f + gl.SymbolSpec.gaussian(0, m, coeff=0.5j, xi_powers=[1] + [0] * (m - 1))
    captured = []
    sigma = gl.normfield.power_iteration_sigma
    monkeypatch.setattr(gl.normfield, "power_iteration_sigma", lambda a: captured.append(a) or sigma(a))
    gl.group_regular_norm(f, chart, t, grid)
    (weighted,) = captured
    sqw = np.sqrt(grid.fiber_weights().reshape(-1))
    matrix = weighted * sqw[None, :] / sqw[:, None]

    rng = np.random.default_rng(7)
    eta = grid.fiber_points_flat()
    decay = np.exp(-0.5 * np.sum(eta**2, axis=-1))
    g = (rng.standard_normal(len(eta)) + 1j * rng.standard_normal(len(eta))) * decay
    product = gl.deformed_product(chart, grid, f, gl.SampledSymbol.wrap(g.reshape(grid.shape), grid), t)
    expected = product.values.reshape(-1)
    assert np.max(np.abs(matrix @ g - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("budget", [1 << 10, 1 << 13, 1 << 20])
@pytest.mark.parametrize("chart_name", ["ax_plus_b", "heisenberg"])
def test_regular_action_matrix_does_not_depend_on_its_blocks(chart_name, budget, monkeypatch):
    # each entry sums its terms in node order whatever the row blocks and the
    # scatter chunks within them; 1 << 10 makes heisenberg blocks one row wide,
    # 1 << 20 puts both charts in one block
    chart = gl.builtin_chart(chart_name)
    m = chart.fiber_dim
    grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(1.5, 8) for _ in range(m)))
    f = gl.SymbolSpec.gaussian(0, m, xi_widths=1.3, xi_centers=[0.2, -0.1, -0.3][:m])
    captured = []
    sigma = gl.normfield.power_iteration_sigma
    monkeypatch.setattr(gl.normfield, "power_iteration_sigma", lambda a: captured.append(a) or sigma(a))
    gl.group_regular_norm(f, chart, 0.3, grid)
    monkeypatch.setattr(gl.normfield, "_BLOCK_POINTS", budget)
    gl.group_regular_norm(f, chart, 0.3, grid)
    default, blocked = captured
    assert blocked.tobytes() == default.tobytes()


def _captured_matrix(monkeypatch, norm, args):
    """The matrix ``norm(*args)`` hands to the singular-value solver, and its row."""
    captured = []
    sigma = gl.normfield.power_iteration_sigma
    monkeypatch.setattr(gl.normfield, "power_iteration_sigma", lambda a: captured.append(a) or sigma(a))
    row = norm(*args)
    monkeypatch.undo()
    (matrix,) = captured
    return matrix, row


def _ax_plus_b_norm(coeff):
    chart = gl.builtin_chart("ax_plus_b", half_width=4.0)
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(3.0, 16), gl.Axis.centered(3.0, 12)))
    f = gl.SymbolSpec.gaussian(0, 2, coeff=coeff, xi_widths=1.3, xi_centers=[0.2, -0.1])
    return gl.group_regular_norm, (f, chart, 0.2, grid)


def _heisenberg_norm(coeff):
    grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(4.0, 6) for _ in range(3)))
    f = gl.SymbolSpec.gaussian(0, 3, coeff=coeff, xi_widths=1.3, xi_centers=[0.2, -0.1, -0.3])
    return gl.group_regular_norm, (f, gl.builtin_chart("heisenberg"), 0.3, grid)


def _pair_norm(coeff):
    chart, grid, mu = pair_norm_setup()
    f = gl.SymbolSpec.gaussian(1, 1, coeff=coeff, x_widths=1.0, xi_widths=0.5, xi_centers=0.1)
    return gl.pair_kernel_norm, (f, 0.3, grid, mu)


@pytest.mark.parametrize(
    "case", [_ax_plus_b_norm, _heisenberg_norm, _pair_norm], ids=["ax_plus_b", "heisenberg", "pair"]
)
def test_real_symbol_matrix_is_the_imaginary_part_of_its_i_multiple(case, monkeypatch):
    # a real symbol is assembled and solved in float64; times 1j it runs the
    # same code at complex dtype, whose imaginary part is the real matrix
    real, real_row = _captured_matrix(monkeypatch, *case(1.0))
    imag, imag_row = _captured_matrix(monkeypatch, *case(1j))
    assert real.dtype == np.float64
    assert imag.dtype == np.complex128
    assert real.tobytes() == np.ascontiguousarray(imag.imag).tobytes()
    assert not np.any(imag.real)
    assert abs(real_row.value - imag_row.value) <= 1e-14 * imag_row.value


def test_regular_norm_peak_memory_holds_one_real_matrix():
    # ax+b 25^2: the float64 matrix takes 3.1 MB, the transport's and the
    # scatter's block buffers about 5 MB more; a complex128 matrix would add
    # another 3.1 MB and cross the bound
    chart = gl.builtin_chart("ax_plus_b", half_width=4.0)
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(3.5, 24),) * 2)
    f = gl.SymbolSpec.gaussian(0, 2, xi_widths=2.5)
    gl.group_regular_norm(f, chart, 0.2, grid)  # first call's one-time set-up
    tracemalloc.start()
    try:
        gl.group_regular_norm(f, chart, 0.2, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    H = math.prod(grid.fiber_shape)
    assert peak < 3.4 * H * H * 8

import numpy as np
import pytest

import groupoidlab as gl
from groupoidlab.errors import DomainError, GroupoidLabError

from oracles import dense_transform_sup


def test_power_iteration_on_diagonal():
    m = np.diag([3.0, 1.0, 0.5]).astype(complex)
    sigma, residual, iterations = gl.power_iteration_sigma(m)
    assert sigma == pytest.approx(3.0, rel=1e-10)
    assert residual <= 1e-8
    assert iterations == 0


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
    chart, grid, mu = pair_norm_setup()
    f = gl.SymbolSpec.gaussian(1, 1, x_widths=1.0, xi_widths=0.5)
    curve = gl.norm_curve(f, chart, (0.4, 0.2, 0.1, 0.05), grid, mu)
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

from pathlib import Path

import numpy as np
import pytest

import groupoidlab as gl
from groupoidlab import poisson
from groupoidlab.cli import main
from groupoidlab.errors import GridMismatchError, GroupoidLabError, MissingDataError

from oracles import BRACKET_POINT_VALUES, bracket_closed_additive_chart, bracket_point_additive_chart

CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.fixture(scope="module")
def pair_setup(pair1, pair1_grid64, pair1_data64):
    mu = gl.unit_weight_on_grid(pair1, pair1_grid64)
    return pair1, pair1_grid64, pair1_data64, mu


def test_bracket_vanishes_on_flat_bundle():
    chart = gl.builtin_chart("abelian_bundle", n=1, m=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 16),), fiber=(gl.Axis.centered(8.0, 32),))
    data = gl.extract_algebroid(chart, grid.base_points_flat())
    mu = gl.unit_weight_on_grid(chart, grid)
    f = gl.SymbolSpec.gaussian(1, 1)
    g = gl.SymbolSpec.gaussian(1, 1, xi_powers=[1])
    bracket = gl.poisson_bracket(f, g, data, grid, mu)
    assert np.max(np.abs(bracket.values)) == 0.0


def test_antisymmetry_bitwise(pair_setup, gauss11, xxigauss11):
    chart, grid, data, mu = pair_setup
    forward = gl.poisson_bracket(gauss11, xxigauss11, data, grid, mu)
    backward = gl.poisson_bracket(xxigauss11, gauss11, data, grid, mu)
    assert np.array_equal(forward.values, -backward.values)


def test_antisymmetry_bitwise_heisenberg(heisenberg, heis_grid16, heis_data16):
    mu = gl.unit_weight_on_grid(heisenberg, heis_grid16)
    f = gl.SymbolSpec.gaussian(0, 3)
    g = gl.SymbolSpec.gaussian(0, 3, xi_powers=[0, 1, 0], xi_widths=[1.1, 1.2, 1.0])
    forward = gl.poisson_bracket(f, g, heis_data16, heis_grid16, mu)
    backward = gl.poisson_bracket(g, f, heis_data16, heis_grid16, mu)
    assert np.array_equal(forward.values, -backward.values)
    assert forward.sup > 0


def test_antisymmetry_bitwise_weighted_chart():
    chart = gl.builtin_chart("pair", n=1, mu_e=["exp", ["-", ["*", "u1", "u1"]]])
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 32),), fiber=(gl.Axis.centered(8.0, 32),))
    data = gl.extract_algebroid(chart, grid.base_points_flat())
    mu = gl.unit_weight_on_grid(chart, grid)
    f = gl.SymbolSpec.gaussian(1, 1)
    g = gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_powers=[1])
    forward = gl.poisson_bracket(f, g, data, grid, mu)
    backward = gl.poisson_bracket(g, f, data, grid, mu)
    assert np.array_equal(forward.values, -backward.values)
    # the log-weight term contributes: result differs from the flat-weight bracket
    flat = gl.builtin_chart("pair", n=1)
    flat_data = gl.extract_algebroid(flat, grid.base_points_flat())
    flat_mu = gl.unit_weight_on_grid(flat, grid)
    flat_bracket = gl.poisson_bracket(f, g, flat_data, grid, flat_mu)
    assert np.max(np.abs(forward.values - flat_bracket.values)) > 1e-3


def test_bracket_point_values_match_oracles(pair_setup, gauss11):
    chart, grid, data, mu = pair_setup
    g = gl.SymbolSpec.gaussian(1, 1, x_powers=[1])
    bracket = gl.poisson_bracket(gauss11, g, data, grid, mu)
    xs = grid.base[0].nodes
    xis = grid.fiber[0].nodes
    for (x, xi), frozen in BRACKET_POINT_VALUES.items():
        a = int(np.where(np.isclose(xs, x))[0][0])
        b = int(np.where(np.isclose(xis, xi))[0][0])
        value = bracket.values[a, b]
        assert value == pytest.approx(frozen, abs=1e-6)
        assert value == pytest.approx(bracket_point_additive_chart(x, xi), abs=1e-6)
        assert value == pytest.approx(bracket_closed_additive_chart(x, xi), abs=1e-6)


def test_leibniz_over_convolution(pair_setup, gauss11, xxigauss11):
    chart, grid, data, mu = pair_setup
    h = gl.SymbolSpec.gaussian(1, 1, xi_powers=[1], x_widths=1.2, xi_widths=0.9)
    f, g = gauss11, xxigauss11

    def residual(grid, data, mu):
        ev = lambda s: gl.eval_symbol(s, grid)
        gh = gl.fiber_convolve(ev(g), ev(h), mu)
        lhs = gl.poisson_bracket(f, gh, data, grid, mu).values
        rhs = (
            gl.fiber_convolve(gl.poisson_bracket(f, g, data, grid, mu), ev(h), mu).values
            + gl.fiber_convolve(ev(g), gl.poisson_bracket(f, h, data, grid, mu), mu).values
        )
        return np.max(np.abs(lhs - rhs)) / gl.scale_of(lhs, rhs)

    coarse = residual(grid, data, mu)
    assert coarse <= 5e-3
    fine_grid = grid.refine_all()
    fine_data = gl.extract_algebroid(chart, fine_grid.base_points_flat())
    fine_mu = gl.unit_weight_on_grid(chart, fine_grid)
    fine = residual(fine_grid, fine_data, fine_mu)
    assert coarse / fine >= 3.0


def test_jacobi_identity(pair_setup, gauss11, xxigauss11):
    chart, grid, data, mu = pair_setup
    h = gl.SymbolSpec.gaussian(1, 1, xi_powers=[1], x_widths=1.2, xi_widths=0.9)
    f, g = gauss11, xxigauss11

    def residual(grid, data, mu):
        br = lambda a, b: gl.poisson_bracket(a, b, data, grid, mu)
        total = br(f, br(g, h)).values + br(g, br(h, f)).values + br(h, br(f, g)).values
        scale = gl.scale_of(br(f, br(g, h)).values, br(g, br(h, f)).values, br(h, br(f, g)).values)
        return np.max(np.abs(total)) / scale

    coarse = residual(grid, data, mu)
    assert coarse <= 1e-2
    fine_grid = grid.refine_all()
    fine_data = gl.extract_algebroid(chart, fine_grid.base_points_flat())
    fine_mu = gl.unit_weight_on_grid(chart, fine_grid)
    assert coarse / residual(fine_grid, fine_data, fine_mu) >= 3.0


# -- dual bracket ---------------------------------------------------------------

def test_dual_bracket_zero_without_structure():
    chart = gl.builtin_chart("abelian_bundle", n=1, m=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 16),), fiber=(gl.Axis.centered(4.0, 16),))
    data = gl.extract_algebroid(chart, grid.base_points_flat())
    rng = np.random.default_rng(2)
    F = gl.SampledSymbol(values=rng.normal(size=grid.shape) + 0j, grid=grid)
    G = gl.SampledSymbol(values=rng.normal(size=grid.shape) + 0j, grid=grid)
    out = gl.dual_poisson_bracket(F, G, data)
    assert np.all(out.values == 0)


def test_dual_bracket_antisymmetric_bitwise(heis_data16, heis_grid16):
    rng = np.random.default_rng(4)
    F = gl.SampledSymbol(values=rng.normal(size=heis_grid16.shape) + 0j, grid=heis_grid16)
    G = gl.SampledSymbol(values=rng.normal(size=heis_grid16.shape) + 0j, grid=heis_grid16)
    a = gl.dual_poisson_bracket(F, G, heis_data16, signs=(-1.0, -1.0))
    b = gl.dual_poisson_bracket(G, F, heis_data16, signs=(-1.0, -1.0))
    assert np.array_equal(a.values, -b.values)


def test_dual_bracket_matches_analytic_derivatives(pair1):
    zgrid = gl.GridSpec(base=(gl.Axis.centered(6.0, 64),), fiber=(gl.Axis.centered(5.0, 64),))
    data = gl.extract_algebroid(pair1, zgrid.base_points_flat())
    X = zgrid.base[0].nodes[:, None]
    Z = zgrid.fiber[0].nodes[None, :]
    base_gauss = np.exp(-(X**2) - Z**2)
    F = gl.SampledSymbol(values=base_gauss.astype(complex), grid=zgrid)
    G = gl.SampledSymbol(values=(X * Z * base_gauss).astype(complex), grid=zgrid)
    out = gl.dual_poisson_bracket(F, G, data, signs=(-1.0, -1.0))
    F_z = -2 * Z * base_gauss
    F_x = -2 * X * base_gauss
    G_z = X * (1 - 2 * Z**2) * base_gauss
    G_x = Z * (1 - 2 * X**2) * base_gauss
    exact = -1.0 * (F_z * G_x - G_z * F_x)
    assert np.max(np.abs(out.values - exact)) <= 1e-3 * gl.scale_of(exact)


# -- intertwining ----------------------------------------------------------------

PAIR_SYMBOLS = [
    (gl.SymbolSpec.gaussian(1, 1), gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_powers=[1])),
    (gl.SymbolSpec.gaussian(1, 1), gl.SymbolSpec.gaussian(1, 1, x_powers=[1])),
    (
        gl.SymbolSpec.gaussian(1, 1, x_widths=1.3, x_centers=0.4),
        gl.SymbolSpec.gaussian(1, 1, xi_powers=[1], xi_widths=1.2),
    ),
    (
        gl.SymbolSpec.gaussian(1, 1, x_powers=[2]),
        gl.SymbolSpec.gaussian(1, 1, x_widths=1.1, xi_widths=1.1),
    ),
    (
        gl.SymbolSpec.gaussian(1, 1, coeff=1 + 0.5j),
        gl.SymbolSpec.gaussian(1, 1, xi_powers=[2], xi_widths=1.4),
    ),
]


def test_intertwining_pair_residuals_and_signs(pair_setup):
    chart, grid, data, mu = pair_setup
    signs = set()
    for f, g in PAIR_SYMBOLS:
        result = gl.intertwining_residual(f, g, data, grid, mu)
        assert result.residual <= 1e-3
        signs.add(result.signs)
    assert signs == {(-1.0, -1.0)}


def test_intertwining_heisenberg(heisenberg, heis_grid16, heis_data16):
    mu = gl.unit_weight_on_grid(heisenberg, heis_grid16)
    f = gl.SymbolSpec.gaussian(0, 3, xi_widths=[1.1, 1.2, 1.1], xi_centers=[0.3, 0.0, -0.2])
    g = gl.SymbolSpec.gaussian(0, 3, xi_powers=[1, 0, 0], xi_widths=[1.2, 1.1, 1.3])
    result = gl.intertwining_residual(f, g, heis_data16, heis_grid16, mu)
    assert result.residual <= 1e-2
    assert result.signs == (-1.0, -1.0)


def test_intertwining_requires_unit_weight():
    chart = gl.builtin_chart("pair", n=1, mu_e=["exp", "u1"])
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 16),), fiber=(gl.Axis.centered(8.0, 16),))
    data = gl.extract_algebroid(chart, grid.base_points_flat())
    mu = gl.unit_weight_on_grid(chart, grid)
    f = gl.SymbolSpec.gaussian(1, 1)
    with pytest.raises(GroupoidLabError, match="unit weight"):
        gl.intertwining_residual(f, f, data, grid, mu)


def test_intertwining_without_a_finite_residual_fails(pair_setup, monkeypatch, capsys):
    chart, grid, data, mu = pair_setup

    def nan_bracket(parts, signs):
        return np.full(parts[0].shape, np.nan + 0j)

    monkeypatch.setattr(poisson, "_oriented_dual_bracket", nan_bracket)
    f = gl.SymbolSpec.gaussian(1, 1)
    with pytest.raises(GroupoidLabError, match="not finite for any sign pair"):
        gl.intertwining_residual(f, f, data, grid, mu)
    assert main(["fourier-check", "--config", str(CONFIGS / "pair1_fourier.json")]) == 1
    err = capsys.readouterr().err
    assert "computation failed: intertwining residual is not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["pair", "heisenberg"])
def test_fourier_residuals_reuse_the_selected_transforms_bitwise(case, request, pair_setup):
    # every per-sign residual equals one computed from the public dual bracket
    # on the selected (conjugate) dual grid, bit for bit
    if case == "pair":
        chart, grid, data, mu = pair_setup
        f, g = PAIR_SYMBOLS[0]
    else:
        chart, grid, data = map(request.getfixturevalue, ("heisenberg", "heis_grid16", "heis_data16"))
        mu = gl.unit_weight_on_grid(chart, grid)
        f = gl.SymbolSpec.gaussian(0, 3, xi_widths=[1.1, 1.2, 1.1], xi_centers=[0.3, 0.0, -0.2])
        g = gl.SymbolSpec.gaussian(0, 3, xi_powers=[1, 0, 0], xi_widths=[1.2, 1.1, 1.3])
    dual = grid.dual()
    selected = gl.intertwining_residual(f, g, data, grid, mu)
    lhs = gl.fourier_transform(gl.poisson_bracket(f, g, data, grid, mu), mu, dual).values
    F = gl.fourier_transform(gl.eval_symbol(f, grid), mu, dual)
    G = gl.fourier_transform(gl.eval_symbol(g, grid), mu, dual)
    for signs, residual in selected.per_sign.items():
        rhs = gl.dual_poisson_bracket(F, G, data, signs).values
        assert residual == float(np.max(np.abs(lhs - rhs))) / gl.scale_of(lhs, rhs)


def test_unit_weight_fourier_check_transforms_each_operand_once(monkeypatch):
    signs = []
    transform = poisson._fiber_transform

    def counted(values, src, dst, sign):
        signs.append(sign)
        return transform(values, src, dst, sign)

    monkeypatch.setattr(poisson, "_fiber_transform", counted)
    assert main(["fourier-check", "--config", str(CONFIGS / "pair1_fourier.json")]) == 0
    # round trip: f and its inverse; convolution theorem: f, g and f conv g;
    # intertwining: f, g and the bracket
    assert len(signs) == 8
    assert signs.count(1.0) == 1


def test_misaligned_data_raises(pair_setup):
    chart, grid, data, mu = pair_setup
    other = gl.GridSpec(base=(gl.Axis.centered(5.0, 64),), fiber=(gl.Axis.centered(8.0, 64),))
    f = gl.SymbolSpec.gaussian(1, 1)
    with pytest.raises(MissingDataError):
        gl.poisson_bracket(f, f, data, other, None)


def test_sampled_operand_grid_checked(pair_setup):
    chart, grid, data, mu = pair_setup
    other = gl.GridSpec(base=(gl.Axis.centered(6.0, 32),), fiber=(gl.Axis.centered(8.0, 32),))
    f = gl.SymbolSpec.gaussian(1, 1)
    wrong = gl.eval_symbol(f, other)
    with pytest.raises(GridMismatchError):
        gl.poisson_bracket(f, wrong, data, grid, mu)

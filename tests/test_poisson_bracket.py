from pathlib import Path

import numpy as np
import pytest

import groupoidlab as gl
from groupoidlab import poisson
from groupoidlab.cli import main
from groupoidlab.errors import GridMismatchError, GroupoidLabError

from oracles import BRACKET_POINT_VALUES, bracket_closed_additive_chart, bracket_point_additive_chart

CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.fixture(scope="module")
def pair_setup(pair1, pair1_grid64):
    mu = gl.unit_weight_on_grid(pair1, pair1_grid64)
    return pair1, pair1_grid64, mu


def test_bracket_vanishes_on_flat_bundle():
    chart = gl.builtin_chart("abelian_bundle", n=1, m=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 16),), fiber=(gl.Axis.centered(8.0, 32),))
    f = gl.SymbolSpec.gaussian(1, 1)
    g = gl.SymbolSpec.gaussian(1, 1, xi_powers=[1])
    bracket = gl.poisson_bracket(f, g, chart, grid)
    assert np.max(np.abs(bracket.values)) == 0.0


def test_antisymmetry_bitwise(pair_setup, gauss11, xxigauss11):
    chart, grid, _ = pair_setup
    forward = gl.poisson_bracket(gauss11, xxigauss11, chart, grid)
    backward = gl.poisson_bracket(xxigauss11, gauss11, chart, grid)
    assert np.array_equal(forward.values, -backward.values)


def test_antisymmetry_bitwise_heisenberg(heisenberg, heis_grid16):
    f = gl.SymbolSpec.gaussian(0, 3)
    g = gl.SymbolSpec.gaussian(0, 3, xi_powers=[0, 1, 0], xi_widths=[1.1, 1.2, 1.0])
    forward = gl.poisson_bracket(f, g, heisenberg, heis_grid16)
    backward = gl.poisson_bracket(g, f, heisenberg, heis_grid16)
    assert np.array_equal(forward.values, -backward.values)
    assert forward.sup > 0


def test_antisymmetry_bitwise_weighted_chart():
    chart = gl.builtin_chart("pair", n=1, mu_e=["exp", ["-", ["*", "u1", "u1"]]])
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 32),), fiber=(gl.Axis.centered(8.0, 32),))
    f = gl.SymbolSpec.gaussian(1, 1)
    g = gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_powers=[1])
    forward = gl.poisson_bracket(f, g, chart, grid)
    backward = gl.poisson_bracket(g, f, chart, grid)
    assert np.array_equal(forward.values, -backward.values)
    # the log-weight term contributes: result differs from the flat-weight bracket
    flat_bracket = gl.poisson_bracket(f, g, gl.builtin_chart("pair", n=1), grid)
    assert np.max(np.abs(forward.values - flat_bracket.values)) > 1e-3


def test_bracket_point_values_match_oracles(pair_setup, gauss11):
    chart, grid, _ = pair_setup
    g = gl.SymbolSpec.gaussian(1, 1, x_powers=[1])
    bracket = gl.poisson_bracket(gauss11, g, chart, grid)
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
    chart, grid, _ = pair_setup
    h = gl.SymbolSpec.gaussian(1, 1, xi_powers=[1], x_widths=1.2, xi_widths=0.9)
    f, g = gauss11, xxigauss11

    def residual(grid):
        mu = gl.unit_weight_on_grid(chart, grid)
        ev = lambda s: gl.eval_symbol(s, grid)
        gh = gl.fiber_convolve(ev(g), ev(h), mu)
        lhs = gl.poisson_bracket(f, gh, chart, grid).values
        rhs = (
            gl.fiber_convolve(gl.poisson_bracket(f, g, chart, grid), ev(h), mu).values
            + gl.fiber_convolve(ev(g), gl.poisson_bracket(f, h, chart, grid), mu).values
        )
        return np.max(np.abs(lhs - rhs)) / gl.scale_of(lhs, rhs)

    coarse = residual(grid)
    assert coarse <= 5e-3
    fine = residual(grid.refine_all())
    assert coarse / fine >= 3.0


def test_jacobi_identity(pair_setup, gauss11, xxigauss11):
    chart, grid, _ = pair_setup
    h = gl.SymbolSpec.gaussian(1, 1, xi_powers=[1], x_widths=1.2, xi_widths=0.9)
    f, g = gauss11, xxigauss11

    def residual(grid):
        br = lambda a, b: gl.poisson_bracket(a, b, chart, grid)
        total = br(f, br(g, h)).values + br(g, br(h, f)).values + br(h, br(f, g)).values
        scale = gl.scale_of(br(f, br(g, h)).values, br(g, br(h, f)).values, br(h, br(f, g)).values)
        return np.max(np.abs(total)) / scale

    coarse = residual(grid)
    assert coarse <= 1e-2
    assert coarse / residual(grid.refine_all()) >= 3.0


# -- dual bracket ---------------------------------------------------------------

def test_dual_bracket_zero_without_structure():
    chart = gl.builtin_chart("abelian_bundle", n=1, m=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 16),), fiber=(gl.Axis.centered(4.0, 16),))
    rng = np.random.default_rng(2)
    F = gl.SampledSymbol(values=rng.normal(size=grid.shape) + 0j, grid=grid)
    G = gl.SampledSymbol(values=rng.normal(size=grid.shape) + 0j, grid=grid)
    out = gl.dual_poisson_bracket(F, G, chart)
    assert np.all(out.values == 0)


def test_dual_bracket_antisymmetric_bitwise(heisenberg, heis_grid16):
    rng = np.random.default_rng(4)
    F = gl.SampledSymbol(values=rng.normal(size=heis_grid16.shape) + 0j, grid=heis_grid16)
    G = gl.SampledSymbol(values=rng.normal(size=heis_grid16.shape) + 0j, grid=heis_grid16)
    a = gl.dual_poisson_bracket(F, G, heisenberg)
    b = gl.dual_poisson_bracket(G, F, heisenberg)
    assert np.array_equal(a.values, -b.values)


def test_dual_bracket_matches_analytic_derivatives(pair1):
    zgrid = gl.GridSpec(base=(gl.Axis.centered(6.0, 64),), fiber=(gl.Axis.centered(5.0, 64),))
    X = zgrid.base[0].nodes[:, None]
    Z = zgrid.fiber[0].nodes[None, :]
    base_gauss = np.exp(-(X**2) - Z**2)
    F = gl.SampledSymbol(values=base_gauss.astype(complex), grid=zgrid)
    G = gl.SampledSymbol(values=(X * Z * base_gauss).astype(complex), grid=zgrid)
    out = gl.dual_poisson_bracket(F, G, pair1)
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


HEIS_PAIR = (
    gl.SymbolSpec.gaussian(0, 3, xi_widths=[1.1, 1.2, 1.1], xi_centers=[0.3, 0.0, -0.2]),
    gl.SymbolSpec.gaussian(0, 3, xi_powers=[1, 0, 0], xi_widths=[1.2, 1.1, 1.3]),
)


def _mismatch(lhs, rhs) -> float:
    return float(np.max(np.abs(lhs - rhs))) / gl.scale_of(lhs, rhs)


def test_intertwining_pair_residuals_and_signs(pair_setup):
    # the fixed orientation matches on every pair; the opposite one reads a mismatch near 2
    chart, grid, mu = pair_setup
    dual = grid.dual()
    for f, g in PAIR_SYMBOLS:
        residual = gl.fourier_check(f, g, chart, grid).intertwining
        assert residual <= 1e-3
        lhs = gl.fourier_transform(gl.poisson_bracket(f, g, chart, grid), mu, dual).values
        F, G = (gl.fourier_transform(gl.eval_symbol(s, grid), mu, dual) for s in (f, g))
        flipped = -gl.dual_poisson_bracket(F, G, chart).values
        assert abs(_mismatch(lhs, flipped) - 2.0) <= 1e-2


def test_intertwining_heisenberg(heisenberg, heis_grid16):
    assert gl.fourier_check(*HEIS_PAIR, heisenberg, heis_grid16).intertwining <= 1e-2


def test_intertwining_requires_unit_weight():
    chart = gl.builtin_chart("pair", n=1, mu_e=["exp", "u1"])
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 16),), fiber=(gl.Axis.centered(8.0, 16),))
    f = gl.SymbolSpec.gaussian(1, 1)
    assert gl.fourier_check(f, f, chart, grid).intertwining is None


def test_intertwining_without_a_finite_residual_fails(pair_setup, monkeypatch, capsys):
    chart, grid, _ = pair_setup

    monkeypatch.setattr(poisson, "_dual_bracket", lambda F, G, data: np.full(F.values.shape, np.nan + 0j))
    f = gl.SymbolSpec.gaussian(1, 1)
    with pytest.raises(GroupoidLabError, match="intertwining residual is not finite"):
        gl.fourier_check(f, f, chart, grid)
    assert main(["fourier-check", "--config", str(CONFIGS / "pair1_fourier.json")]) == 1
    err = capsys.readouterr().err
    assert "computation failed: intertwining residual is not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["pair", "heisenberg"])
def test_fourier_residuals_reuse_the_selected_transforms_bitwise(case, request, pair_setup):
    # the intertwining residual equals one computed from the public dual bracket
    # on the selected (conjugate) dual grid, bit for bit
    if case == "pair":
        chart, grid, mu = pair_setup
        f, g = PAIR_SYMBOLS[0]
    else:
        chart, grid = map(request.getfixturevalue, ("heisenberg", "heis_grid16"))
        mu = gl.unit_weight_on_grid(chart, grid)
        f, g = HEIS_PAIR
    dual = grid.dual()
    residual = gl.fourier_check(f, g, chart, grid).intertwining
    lhs = gl.fourier_transform(gl.poisson_bracket(f, g, chart, grid), mu, dual).values
    F = gl.fourier_transform(gl.eval_symbol(f, grid), mu, dual)
    G = gl.fourier_transform(gl.eval_symbol(g, grid), mu, dual)
    assert residual == _mismatch(lhs, gl.dual_poisson_bracket(F, G, chart).values)


@pytest.mark.parametrize("case", ["heisenberg_structure", "pair1_anchor"])
def test_a_sign_error_in_the_dual_bracket_fails_the_check(case, request, pair_setup, monkeypatch):
    # heisenberg has only the structure part and pair1 only the anchor part, so
    # negating the dual bracket flips that part: a mismatch near 2, where the
    # fixed orientation passes
    if case == "pair1_anchor":
        chart, grid, _ = pair_setup
        f, g = PAIR_SYMBOLS[0]
        config, bound = "pair1_fourier.json", 1e-3
    else:
        chart, grid = map(request.getfixturevalue, ("heisenberg", "heis_grid16"))
        f, g = HEIS_PAIR
        config, bound = "heisenberg_fourier.json", 1e-2
    assert gl.fourier_check(f, g, chart, grid).intertwining <= bound
    assert main(["fourier-check", "--config", str(CONFIGS / config)]) == 0

    dual_bracket = poisson._dual_bracket
    monkeypatch.setattr(poisson, "_dual_bracket", lambda F, G, data: -dual_bracket(F, G, data))
    assert abs(gl.fourier_check(f, g, chart, grid).intertwining - 2.0) <= 1e-2
    assert main(["fourier-check", "--config", str(CONFIGS / config)]) == 1


def test_unit_weight_fourier_check_transforms_each_operand_once(monkeypatch):
    signs = []
    transform = poisson._fiber_transform

    def counted(values, src, dst, sign):
        signs.append(sign)
        return transform(values, src, dst, sign)

    monkeypatch.setattr(poisson, "_fiber_transform", counted)
    poisson._axis_kernel.cache_clear()
    assert main(["fourier-check", "--config", str(CONFIGS / "pair1_fourier.json")]) == 0
    # forward: f, g, f conv g and the bracket; inverse: the round trip of f
    assert len(signs) == 5
    assert signs.count(1.0) == 1
    # the one fiber axis's kernel is built once per sign, and its real view once: the real
    # samples f, g and f conv g read the view, the complex bracket the forward kernel
    assert poisson._axis_kernel.cache_info()[:2] == (3, 3)  # (hits, misses)


def test_fourier_check_decay_check_sees_all_four_transforms(pair_setup, monkeypatch):
    # select_dual_grid's boundary test reads the transforms of f, g, f conv g
    # and the bracket, the ones the three residuals are computed from
    chart, grid, mu = pair_setup
    f, g = PAIR_SYMBOLS[0]
    seen = []
    boundary_fraction = poisson.boundary_fraction

    def spy(values):
        seen.append(values)
        return boundary_fraction(values)

    monkeypatch.setattr(poisson, "boundary_fraction", spy)
    gl.fourier_check(f, g, chart, grid)
    monkeypatch.undo()
    fs, gs = gl.eval_symbol(f, grid), gl.eval_symbol(g, grid)
    sampled = [fs, gs, gl.fiber_convolve(fs, gs, mu), gl.poisson_bracket(f, g, chart, grid)]
    assert len(seen) == 4 and len({values.tobytes() for values in seen}) == 4
    for values, symbol in zip(seen, sampled):
        assert np.array_equal(values, gl.fourier_transform(symbol, mu, grid.dual()).values)


def test_sampled_operand_grid_checked(pair_setup):
    chart, grid, _ = pair_setup
    other = gl.GridSpec(base=(gl.Axis.centered(6.0, 32),), fiber=(gl.Axis.centered(8.0, 32),))
    f = gl.SymbolSpec.gaussian(1, 1)
    wrong = gl.eval_symbol(f, other)
    with pytest.raises(GridMismatchError):
        gl.poisson_bracket(f, wrong, chart, grid)

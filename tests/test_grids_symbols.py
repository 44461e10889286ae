import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import groupoidlab as gl
from groupoidlab.errors import DecayWarning, GridMismatchError
from groupoidlab.grids import interpolate, interpolation_corners
from groupoidlab.normfield import _interp_scatter
from groupoidlab.symbols import SymbolSpec, decay_problems

from oracles import gaussian_polynomial_values


def test_axis_nodes_and_weights():
    ax = gl.Axis.centered(8.0, 64)
    assert ax.count == 65
    assert ax.nodes[0] == -8.0 and ax.nodes[-1] == 8.0
    assert ax.nodes[32] == 0.0
    assert np.sum(ax.trapezoid_weights()) == pytest.approx(16.0)


@given(half=st.floats(0.5, 20.0), intervals=st.integers(4, 80).map(lambda k: 2 * k))
@settings(max_examples=40, deadline=None)
def test_axis_weight_sum_equals_span(half, intervals):
    ax = gl.Axis.centered(half, intervals)
    assert np.sum(ax.trapezoid_weights()) == pytest.approx(2 * half, rel=1e-12)
    assert abs(ax.center) <= 1e-12 * half


def test_fiber_axes_must_be_odd_and_symmetric():
    with pytest.raises(ValueError, match="odd node count"):
        gl.GridSpec(base=(), fiber=(gl.Axis(start=-1.0, step=0.25, count=8),))
    with pytest.raises(ValueError, match="symmetric"):
        gl.GridSpec(base=(), fiber=(gl.Axis(start=0.0, step=0.25, count=9),))


AXIS = gl.Axis.centered(2.0, 8)
TERM = gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_centers=0.5).terms[0]
GRID = gl.GridSpec(base=(AXIS,), fiber=(AXIS,))


@pytest.mark.parametrize("make, message", [
    (lambda: gl.Axis(start=0.0, step=0.0, count=3), "step must be positive"),
    (lambda: gl.Axis(0.0, 0.5, 1), "at least two nodes"),
    (lambda: AXIS._replace(step=-0.5), "step must be positive"),
    (lambda: AXIS._replace(count=1), "at least two nodes"),
    (lambda: gl.GridSpec(base=(AXIS,), fiber=()), "at least one fiber axis"),
    (lambda: GRID._replace(fiber=()), "at least one fiber axis"),
    (lambda: GRID._replace(fiber=[gl.Axis(0.0, 0.25, 9)]), "symmetric"),
    (lambda: GRID._replace(fiber=(gl.Axis(-1.0, 0.25, 8),)), "odd node count"),
    (lambda: TERM._replace(xi_widths=(0.0,)), "widths must be positive"),
    (lambda: TERM._replace(x_widths=(-1.0,)), "widths must be positive"),
    (lambda: TERM._replace(x_powers=(-1,)), "powers must be nonnegative"),
    (lambda: gl.SymbolTerm(1.0, (0,), (-1,), (1.0,), (0.0,), (1.0,), (0.0,)), "powers must be nonnegative"),
])
def test_invalid_values_raise_when_built_and_when_replaced(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_axes_and_grids_are_hashable_values():
    # Axis keys the lru_cache of the fiber transform kernels
    same = gl.Axis(AXIS.start, AXIS.step, AXIS.count)
    assert same == AXIS and hash(same) == hash(AXIS) and len({same, AXIS}) == 1
    assert AXIS._replace(count=11) != AXIS
    from groupoidlab.poisson import _axis_kernel

    kernel = _axis_kernel(AXIS, AXIS.dual(), -1.0)
    hits = _axis_kernel.cache_info().hits
    assert _axis_kernel(same, same.dual(), -1.0) is kernel and _axis_kernel.cache_info().hits == hits + 1
    assert gl.GridSpec(base=[same], fiber=[same]) == GRID and hash(GRID._replace(base=(same,))) == hash(GRID)
    assert GRID.refine_fiber() != GRID


def _records():
    from groupoidlab.config import Tolerances
    from groupoidlab.reports import Check

    zeros = [
        cls._make([0.0] * len(cls._fields))
        for cls in (gl.AxiomReport, gl.AlgebroidData, gl.FourierCheck, gl.LimitTable, gl.NormRow, gl.NormCurve)
    ]
    sampled = gl.SampledSymbol(np.zeros(GRID.shape), GRID)
    return [AXIS, GRID, TERM, sampled, Tolerances(), Check("c", True, 0.0, 1.0)] + zeros


def test_records_are_immutable():
    for record in _records():
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 1.0)
        with pytest.raises(AttributeError):
            record.extra = 1.0


def test_dual_axis_spacing_is_reciprocal_span():
    ax = gl.Axis.centered(8.0, 64)
    dax = ax.dual()
    assert dax.step == pytest.approx(1.0 / 16.0)
    assert dax.count == 65
    assert dax.half_width == pytest.approx(2.0)  # Nyquist width 1/(2h)


def test_base_points_flat_shapes():
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(4.0, 8),))
    assert grid.base_points_flat().shape == (1, 0)
    grid2 = gl.GridSpec(
        base=(gl.Axis.centered(2.0, 8), gl.Axis.centered(3.0, 10)),
        fiber=(gl.Axis.centered(4.0, 8),),
    )
    assert grid2.base_points_flat().shape == (99, 2)


# -- symbols -------------------------------------------------------------------

def test_eval_zero_symbol():
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(8.0, 32),))
    s = gl.eval_symbol(gl.SymbolSpec.zero(0, 1), grid)
    assert np.all(s.values == 0)


def test_eval_gaussian_symmetry_and_peak():
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(8.0, 64),))
    s = gl.eval_symbol(gl.SymbolSpec.gaussian(0, 1), grid)
    np.testing.assert_array_equal(s.values, s.values[::-1])
    assert s.values[32] == 1.0


def test_derivative_matches_finite_difference():
    spec = gl.SymbolSpec.gaussian(1, 1, coeff=1.3 - 0.2j, x_powers=[2], xi_powers=[1],
                                  x_widths=0.8, xi_widths=1.1, x_centers=0.3, xi_centers=-0.4)
    d = spec.derivative("x", 0)
    x = np.array([[0.37]])
    xi = np.array([[0.81]])
    h = 1e-5
    fd = (spec.evaluate(np.array([[0.37 + h]]), xi) - spec.evaluate(np.array([[0.37 - h]]), xi)) / (2 * h)
    np.testing.assert_allclose(d.evaluate(x, xi), fd, rtol=1e-8)


def test_mixed_partials_commute():
    spec = gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_powers=[2], x_centers=0.2, xi_centers=0.5)
    a = spec.derivative("x", 0).derivative("xi", 0).merged()
    b = spec.derivative("xi", 0).derivative("x", 0).merged()
    pts_x = np.linspace(-2, 2, 7).reshape(-1, 1)
    pts_xi = np.linspace(-2, 2, 7).reshape(-1, 1)
    np.testing.assert_allclose(
        a.evaluate(pts_x, pts_xi), b.evaluate(pts_x, pts_xi), rtol=1e-13, atol=1e-13
    )


def test_fiber_only_symbols_have_no_base_derivative():
    # strictly positive Gaussian widths mean x-free symbols exist only at base dim 0,
    # where the base derivative is out of range by construction
    spec0 = gl.SymbolSpec.gaussian(0, 1)
    assert spec0.derivative("xi", 0).fiber_dim == 1
    with pytest.raises(IndexError):
        spec0.derivative("x", 0)


@given(
    w=st.floats(0.6, 2.5),
    c=st.floats(-0.5, 0.5),
    p=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_derivative_closure_property(w, c, p):
    spec = gl.SymbolSpec.gaussian(0, 2, xi_powers=[p, 0], xi_widths=[w, 1.0], xi_centers=[c, 0.0])
    d = spec.derivative("xi", 0)
    assert all(t.xi_widths[0] == w for t in d.terms)
    pts = np.array([[0.3, -0.2], [1.1, 0.4]])
    h = 1e-6
    plus = spec.evaluate(np.zeros((2, 0)), pts + np.array([h, 0.0]))
    minus = spec.evaluate(np.zeros((2, 0)), pts - np.array([h, 0.0]))
    np.testing.assert_allclose(
        d.evaluate(np.zeros((2, 0)), pts), (plus - minus) / (2 * h), rtol=1e-6, atol=1e-9
    )


def test_fiber_multiply_matches_node_multiplication():
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(6.0, 16), gl.Axis.centered(6.0, 16)))
    spec = gl.SymbolSpec.gaussian(0, 2, xi_widths=[1.0, 1.3])
    left = gl.eval_symbol(spec.fiber_multiply(1), grid).values
    right = gl.eval_symbol(spec, grid).fiber_multiply(1).values
    np.testing.assert_allclose(left, right, atol=1e-14)


def test_decay_check_warns_then_raises():
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(3.0, 16),))
    wide = gl.SymbolSpec.gaussian(0, 1, xi_widths=0.5)  # e^{-4.5} at the edge
    with pytest.warns(DecayWarning):
        gl.eval_symbol(wide, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DecayWarning)  # what strict runs add
        with pytest.raises(DecayWarning, match="symbol term 0 only decays to"):
            gl.eval_symbol(wide, grid)


def test_decay_problems_name_only_the_terms_that_fail():
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(8.0, 64),))
    assert decay_problems(gl.SymbolSpec.gaussian(0, 1), grid) == []
    wide = gl.SymbolSpec.gaussian(0, 1, xi_widths=0.05, xi_centers=1.0)
    problems = decay_problems(gl.SymbolSpec.gaussian(0, 1) + wide, grid, "symbol 'f'")
    assert len(problems) == 1 and problems[0].startswith("symbol 'f' term 1 only decays to")


def test_eval_symbol_evaluates_each_term_once(monkeypatch):
    grid = gl.GridSpec(base=(gl.Axis.centered(2.0, 8),), fiber=(gl.Axis.centered(6.0, 12),))
    spec = (
        gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_widths=0.7)
        + gl.SymbolSpec.gaussian(1, 1, coeff=0.5 - 2j, xi_powers=[2], x_centers=0.3)
        + gl.SymbolSpec.gaussian(1, 1, coeff=-1.25, x_widths=2.0, xi_centers=-0.4)
    )
    nodes = grid.base_mesh()[:, None, :], grid.fiber_mesh()[None, :, :]
    expected = spec.evaluate(*nodes)
    calls = []
    evaluate = SymbolSpec.evaluate

    def counting(self, base_points, fiber_points):
        calls.append(len(self.terms))
        return evaluate(self, base_points, fiber_points)

    monkeypatch.setattr(SymbolSpec, "evaluate", counting)
    sampled = gl.eval_symbol(spec, grid)
    assert calls == [1, 1, 1]
    assert sampled.values.tobytes() == expected.tobytes()


# terms with real coefficients, powers on both sides, centres on and off 0 and unit widths
REAL_TERMS = [
    {"coeff": 1.0, "x_powers": [0, 0], "xi_powers": [0, 0, 0], "x_widths": [1.0, 0.7],
     "x_centers": [0.0, 0.3], "xi_widths": [1.1, 1.2, 1.1], "xi_centers": [0.3, 0.0, -0.2]},
    {"coeff": -2.5, "x_powers": [1, 0], "xi_powers": [2, 0, 3], "x_widths": [0.9, 1.0],
     "x_centers": [-0.4, 0.0], "xi_widths": [1.2, 1.0, 1.3], "xi_centers": [0.0, 0.25, 0.1]},
    {"coeff": 0.75, "x_powers": [0, 2], "xi_powers": [0, 1, 0], "x_widths": [2.0, 0.5],
     "x_centers": [0.1, -0.1], "xi_widths": [0.6, 0.8, 1.4], "xi_centers": [-0.3, 0.0, 0.0]},
]


def _evaluation_points():
    # base points broadcast over fiber points, as the deformed product passes
    # them, and one fiber point at the origin
    rng = np.random.default_rng(21)
    x = rng.uniform(-2.0, 2.0, (4, 1, 2))
    xi = rng.uniform(-3.0, 3.0, (4, 30, 3))
    xi[0, 0] = 0.0
    return x, xi


def test_real_coefficients_evaluate_in_float64_to_the_plain_formula():
    x, xi = _evaluation_points()
    got = gl.parse_symbol(REAL_TERMS, 2, 3).evaluate(x, xi)
    assert got.dtype == np.float64 and got.shape == (4, 30)
    assert got.tobytes() == gaussian_polynomial_values(REAL_TERMS, x, xi).tobytes()


UNIT_TERM = dict(REAL_TERMS[1], coeff=1.0, x_centers=[0.0, 0.0], xi_centers=[0.0, 0.0, 0.0],
                 x_widths=[1.0, 1.0], xi_widths=[1.0, 1.0, 1.0])


@pytest.mark.parametrize("terms", [
    [],
    REAL_TERMS[:1],  # coefficient 1, no powers, zero and nonzero centres
    [dict(REAL_TERMS[1], coeff=1.0)],  # coefficient 1 with powers
    [UNIT_TERM],  # every centre 0, every width 1
    REAL_TERMS,
    REAL_TERMS[1:2],  # -0.0 where xi_1 = 0, which the sum from zeros turns into 0.0
    [dict(REAL_TERMS[0], coeff=[0.5, -1.25])] + REAL_TERMS[1:],
    [dict(UNIT_TERM, coeff=[1.0, 0.0]), dict(REAL_TERMS[2], coeff=[0.0, 2.0]), REAL_TERMS[0]],
], ids=["empty", "unit", "unit-powers", "unit-widths", "real", "signed-zero", "complex", "complex-unit"])
@pytest.mark.parametrize("broadcast", [True, False])
def test_evaluate_equals_the_plain_per_term_evaluation_bitwise(terms, broadcast):
    # the shortcuts of SymbolSpec.evaluate (no zero fills, no x - 0.0, no
    # products with 1.0) must not change a bit; base points broadcast over
    # fiber points, as in the deformed product, or come at the full batch shape
    x, xi = _evaluation_points()
    if not broadcast:
        x = np.ascontiguousarray(np.broadcast_to(x, xi.shape[:-1] + (2,)))
    spec = gl.parse_symbol(terms, 2, 3)
    want = gaussian_polynomial_values(terms, x, xi)
    got = spec.evaluate(x, xi)
    assert got.dtype == want.dtype == spec.dtype
    assert got.tobytes() == want.tobytes()
    out = np.full(want.shape, np.nan, dtype=spec.dtype)
    scratch = (np.full(want.shape, np.nan), np.full(want.shape, np.nan))
    assert spec.evaluate(x, xi, out=out, scratch=scratch).tobytes() == want.tobytes()


def test_a_symbol_on_no_coordinates_is_the_sum_of_its_coefficients():
    terms = tuple(gl.SymbolSpec.gaussian(0, 0, coeff=c).terms[0] for c in (2.0, 3.0))
    assert gl.SymbolSpec(0, 0, terms).evaluate(np.zeros((3, 0)), np.zeros((3, 0))).tolist() == [5.0] * 3


def test_complex_coefficient_scales_the_real_values():
    # a term with no powers: the real path multiplies exp(exponent) by the coefficient alone
    x, xi = _evaluation_points()
    term = REAL_TERMS[0]
    real = gl.parse_symbol([term], 2, 3).evaluate(x, xi)
    coeff = 0.5 - 1.25j
    got = gl.parse_symbol([dict(term, coeff=[coeff.real, coeff.imag])], 2, 3).evaluate(x, xi)
    assert got.dtype == np.complex128
    assert np.max(np.abs(got - coeff * real)) <= 1e-15 * np.max(np.abs(coeff * real))


@pytest.mark.parametrize("coeff", [1.5, 0.5 - 1.25j])
def test_evaluate_into_caller_arrays_equals_the_allocating_call(coeff):
    # arrays prefilled with NaN, fiber points as coordinate-major planes, base
    # points broadcasting over them: the values are the allocating call's, bitwise
    x, xi = _evaluation_points()
    terms = [dict(REAL_TERMS[0], coeff=[coeff.real, coeff.imag])] + REAL_TERMS[1:]
    spec = gl.parse_symbol(terms, 2, 3)
    want = spec.evaluate(x, xi)
    assert want.dtype == spec.dtype
    planar = np.moveaxis(np.ascontiguousarray(np.moveaxis(xi, -1, 0)), 0, -1)
    out = np.full(want.shape, np.nan, dtype=spec.dtype)
    scratch = (np.full(want.shape, np.nan), np.full(want.shape, np.nan))
    for _ in range(2):
        got = spec.evaluate(x, planar, out=out, scratch=scratch)
        assert got is out and got.tobytes() == want.tobytes()


def test_sampled_symbol_shape_checked():
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(8.0, 16),))
    with pytest.raises(GridMismatchError):
        gl.SampledSymbol.wrap(np.zeros(5), grid)


def test_interpolation_exact_on_nodes():
    grid = gl.GridSpec(
        base=(gl.Axis.centered(2.0, 8),), fiber=(gl.Axis.centered(3.0, 10),)
    )
    rng = np.random.default_rng(8)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    s = gl.SampledSymbol(values=vals, grid=grid)
    bpts = grid.base_mesh().reshape(-1, 1)
    fpts = grid.fiber_mesh().reshape(-1, 1)
    got = interpolate(s, bpts[:, None, :], fpts[None, :, :])
    np.testing.assert_allclose(got, vals.reshape(9, 11), atol=1e-12)


def test_interpolation_zero_outside():
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(1.0, 8),))
    s = gl.SampledSymbol(values=np.ones(grid.shape, dtype=complex), grid=grid)
    out = interpolate(s, np.zeros((2, 0)), np.array([[5.0], [-1.7]]))
    np.testing.assert_array_equal(out, 0.0)


def test_interpolation_is_the_sum_over_scatter_corners():
    # gather (interpolate) and scatter (_interp_scatter) share one corner routine
    grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(3.0, 10), gl.Axis.centered(2.5, 12)))
    rng = np.random.default_rng(4)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    s = gl.SampledSymbol(values=vals, grid=grid)
    pts = rng.uniform(-3.5, 3.5, (6, 9, 2))  # some fall outside the grid
    indices, weights = _interp_scatter(pts, grid)
    expected = np.zeros(pts.shape[:-1], dtype=complex)
    for corner in range(indices.shape[-1]):
        expected += weights[..., corner] * vals.reshape(-1)[indices[..., corner]]
    got = interpolate(s, np.zeros(pts.shape[:-1] + (0,)), pts)
    assert got.tobytes() == expected.tobytes()
    assert np.array_equal(s.evaluate(np.zeros(pts.shape[:-1] + (0,)), pts), got)


def _corner_loop(axes, coords):
    """Multilinear corners one at a time: weights multiplied in axis order, then masked."""
    batch = np.broadcast_shapes(*(np.shape(c) for c in coords))
    strides = [int(np.prod([ax.count for ax in axes[k + 1 :]])) for k in range(len(axes))]
    indices, weights = [], []
    for corner in range(1 << len(axes)):
        index, weight, ok = np.zeros(batch, dtype=np.int64), np.ones(batch), np.ones(batch, dtype=bool)
        for k, (c, ax) in enumerate(zip(coords, axes)):
            tpos = (np.asarray(c, dtype=float) - ax.start) / ax.step
            node = np.floor(tpos).astype(np.int64) + (corner >> k & 1)
            frac = tpos - np.floor(tpos)
            weight = weight * (frac if corner >> k & 1 else 1.0 - frac)
            ok = ok & (node >= 0) & (node <= ax.count - 1)
            index = index + np.clip(node, 0, ax.count - 1) * strides[k]
        indices.append(index)
        weights.append(np.where(ok, weight, 0.0))
    return np.stack(indices), np.stack(weights)


@pytest.mark.parametrize("fiber_axes", [1, 2, 3])
def test_interpolation_corners_match_the_corner_loop(fiber_axes):
    # one base axis and up to three fiber axes whose coordinate arrays only
    # broadcast to the batch shape; points inside, on the edge of and outside the grid
    axes = (gl.Axis(-1.0, 0.25, 9),) + tuple(gl.Axis.centered(2.0, 4 + 2 * k) for k in range(fiber_axes))
    rng = np.random.default_rng(fiber_axes)
    coords = [rng.uniform(-1.6, 1.6, (5, 1, 1))] + [
        rng.uniform(-2.6, 2.6, (1, 4, 6)) for _ in range(fiber_axes)
    ]
    coords[1][0, 0, :2] = 2.0, -2.0
    index, weight = interpolation_corners(axes, coords)
    expected_index, expected_weight = _corner_loop(axes, coords)
    assert index.shape == expected_index.shape == (1 << len(axes), 5, 4, 6)
    assert np.array_equal(index, expected_index)
    assert weight.tobytes() == expected_weight.tobytes()


def test_parse_symbol_defaults_and_complex_coeff():
    spec = gl.parse_symbol(
        [{"coeff": [0.5, -1.0], "xi_powers": [2]}, {"x_powers": [1]}], 1, 1
    )
    assert spec.terms[0].coeff == 0.5 - 1.0j
    assert spec.terms[0].xi_powers == (2,)
    assert spec.terms[1].x_widths == (1.0,)
    assert spec.terms[1].xi_centers == (0.0,)


def test_scaled_and_add():
    a = gl.SymbolSpec.gaussian(0, 1)
    b = gl.SymbolSpec.gaussian(0, 1, coeff=2.0)
    s = (a + b).merged()
    assert len(s.terms) == 1 and s.terms[0].coeff == 3.0
    assert (a - a).terms == ()

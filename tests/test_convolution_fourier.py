import warnings

import numpy as np
import pytest

import groupoidlab as gl
from groupoidlab.errors import DecayWarning, GridMismatchError

from oracles import direct_fiber_convolution, gaussian_self_convolution


def grid_1d(half=8.0, intervals=256):
    return gl.GridSpec(base=(), fiber=(gl.Axis.centered(half, intervals),))


def test_convolution_with_zero_is_zero():
    grid = grid_1d(intervals=64)
    f = gl.eval_symbol(gl.SymbolSpec.gaussian(0, 1), grid)
    z = gl.eval_symbol(gl.SymbolSpec.zero(0, 1), grid)
    assert np.all(gl.fiber_convolve(f, z).values == 0)


def test_convolution_commutative():
    grid = grid_1d(intervals=128)
    f = gl.eval_symbol(gl.SymbolSpec.gaussian(0, 1), grid)
    g = gl.eval_symbol(gl.SymbolSpec.gaussian(0, 1, coeff=0.7, xi_powers=[1], xi_widths=1.3), grid)
    a = gl.fiber_convolve(f, g)
    b = gl.fiber_convolve(g, f)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12 * gl.scale_of(a.values)


def test_gaussian_convolution_matches_closed_form():
    grid = grid_1d(half=8.0, intervals=256)
    f = gl.eval_symbol(gl.SymbolSpec.gaussian(0, 1), grid)
    conv = gl.fiber_convolve(f, f)
    nodes = grid.fiber[0].nodes
    np.testing.assert_allclose(conv.values.real, gaussian_self_convolution(nodes), atol=1e-6)
    center = (grid.fiber[0].count - 1) // 2
    assert conv.values[center].real == pytest.approx(np.sqrt(np.pi / 2.0), abs=1e-6)


def test_convolution_respects_unit_weight():
    grid = gl.GridSpec(base=(gl.Axis.centered(2.0, 8),), fiber=(gl.Axis.centered(8.0, 64),))
    spec = gl.SymbolSpec.gaussian(1, 1)
    f = gl.eval_symbol(spec, grid)
    mu = np.full(grid.base_shape, 2.0)
    weighted = gl.fiber_convolve(f, f, mu)
    plain = gl.fiber_convolve(f, f)
    np.testing.assert_allclose(weighted.values, 2.0 * plain.values, rtol=1e-15)


def test_convolution_matches_direct_sum_oracle():
    # a base axis, a 2-d fiber with unequal node counts and a non-constant unit weight
    fiber_axes = [(3.0, 9), (2.5, 11)]
    grid = gl.GridSpec(
        base=(gl.Axis.centered(1.5, 4),),
        fiber=tuple(gl.Axis.centered(half, count - 1) for half, count in fiber_axes),
    )
    rng = np.random.default_rng(3)
    fv = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    gv = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    mu = 1.0 + 0.5 * np.sin(grid.base[0].nodes)
    f = gl.SampledSymbol(values=fv, grid=grid)
    g = gl.SampledSymbol(values=gv, grid=grid)
    got = gl.fiber_convolve(f, g, mu).values
    expected = direct_fiber_convolution(fv, gv, fiber_axes, mu)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_grid_mismatch_raises():
    f = gl.eval_symbol(gl.SymbolSpec.gaussian(0, 1), grid_1d(intervals=64))
    g = gl.eval_symbol(gl.SymbolSpec.gaussian(0, 1), grid_1d(intervals=128))
    with pytest.raises(GridMismatchError):
        gl.fiber_convolve(f, g)


def test_fourier_self_dual_gaussian():
    grid = grid_1d(half=8.0, intervals=256)
    f = gl.eval_symbol(gl.SymbolSpec.gaussian(0, 1, xi_widths=np.pi), grid)
    F = gl.fourier_transform(f)
    zeta = F.grid.fiber[0].nodes
    np.testing.assert_allclose(F.values, np.exp(-np.pi * zeta**2), atol=1e-8)


def test_fourier_real_even_input_gives_real_output():
    grid = grid_1d(intervals=128)
    f = gl.eval_symbol(gl.SymbolSpec.gaussian(0, 1, xi_widths=1.7), grid)
    F = gl.fourier_transform(f)
    assert np.max(np.abs(F.values.imag)) <= 1e-12 * np.max(np.abs(F.values.real))


def test_roundtrip_and_convolution_theorem_fine_grid():
    grid = grid_1d(half=8.0, intervals=256)
    f = gl.SymbolSpec.gaussian(0, 1)
    g = gl.SymbolSpec.gaussian(0, 1, xi_powers=[1], xi_widths=1.2)
    assert gl.roundtrip_residual(f, grid) <= 1e-8
    assert gl.convolution_theorem_residual(f, g, grid) <= 1e-6


def test_residuals_at_floor_across_refinement():
    # the conjugate-grid transform pair inverts exactly (trapezoid halves close a
    # full geometric sum) and the discrete convolution theorem is exact for
    # zero-filled on-node convolution, so both residuals sit at the rounding
    # floor at every resolution instead of merely shrinking with the grid
    f = gl.SymbolSpec.gaussian(0, 1, xi_widths=2.5)
    g = gl.SymbolSpec.gaussian(0, 1, xi_widths=2.2)
    for intervals in (48, 96):
        grid = grid_1d(half=6.0, intervals=intervals)
        assert gl.roundtrip_residual(f, grid) <= 1e-13
        assert gl.convolution_theorem_residual(f, g, grid) <= 1e-13


def test_inverse_of_spike_has_constant_magnitude_and_positive_phase():
    grid = grid_1d(intervals=64)
    dual = grid.dual()
    spike = np.zeros(dual.fiber_shape, dtype=complex)
    spike[(dual.fiber[0].count - 1) // 2 + 8] = 1.0  # a positive frequency
    back = gl.inverse_fourier(gl.SampledSymbol(values=spike, grid=dual), None, grid)
    mags = np.abs(back.values)
    assert np.max(mags) - np.min(mags) <= 1e-14
    # with kernel exp(+2 pi i zeta xi), phase advances with xi for zeta > 0
    assert np.angle(back.values[33] / back.values[32]) > 0


def test_inverse_fourier_linearity():
    grid = grid_1d(intervals=64)
    dual = grid.dual()
    rng = np.random.default_rng(0)
    Fv = rng.normal(size=dual.fiber_shape) + 1j * rng.normal(size=dual.fiber_shape)
    Gv = rng.normal(size=dual.fiber_shape) + 1j * rng.normal(size=dual.fiber_shape)
    F = gl.SampledSymbol(values=Fv, grid=dual)
    G = gl.SampledSymbol(values=Gv, grid=dual)
    FG = gl.SampledSymbol(values=2.0 * Fv - 1.0 * Gv, grid=dual)
    lhs = gl.inverse_fourier(FG, None, grid).values
    rhs = 2.0 * gl.inverse_fourier(F, None, grid).values - gl.inverse_fourier(G, None, grid).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * gl.scale_of(lhs, rhs)


def test_strict_dual_decay_raises():
    coarse = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(5.5, 16) for _ in range(3)))
    f = gl.eval_symbol(gl.SymbolSpec.gaussian(0, 3), coarse)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DecayWarning)  # what strict runs add
        with pytest.raises(DecayWarning, match="a transform only decays to"):
            gl.select_dual_grid(coarse, [f])


def test_weighted_fourier_consistency():
    # transform with weight mu == mu times plain transform, fiberwise
    grid = gl.GridSpec(base=(gl.Axis.centered(2.0, 8),), fiber=(gl.Axis.centered(8.0, 64),))
    spec = gl.SymbolSpec.gaussian(1, 1)
    f = gl.eval_symbol(spec, grid)
    mu = 1.0 + 0.5 * np.cos(grid.base[0].nodes)
    Fw = gl.fourier_transform(f, mu)
    Fp = gl.fourier_transform(f, None)
    np.testing.assert_allclose(Fw.values, mu[:, None] * Fp.values, rtol=1e-14)

"""The bracket in spectral space and the real-GEMM Fourier transform.

The bracket is checked against a test-side sum of its terms, each formed from
two fiber convolutions, on charts that between them exercise anchor, weight
coupling and structure-constant terms, with real, complex and sampled
operands.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

import groupoidlab as gl
from groupoidlab import poisson
from groupoidlab.algebroid import extract_algebroid

CONFIGS = Path(__file__).parent.parent / "configs"


def _axes(half_width, intervals, count):
    return tuple(gl.Axis.centered(half_width, intervals) for _ in range(count))


def _pair():
    grid = gl.GridSpec(base=_axes(6.0, 48, 1), fiber=_axes(8.0, 48, 1))
    f = gl.SymbolSpec.gaussian(1, 1, xi_centers=0.3)
    g = gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_powers=[1], xi_widths=1.3)
    return gl.builtin_chart("pair", n=1), grid, f, g


def _weighted_pair():
    # unit weight exp(-u^2): a nonzero log-weight gradient, so weight-coupling terms
    chart = gl.builtin_chart("pair", n=1, mu_e=["exp", ["-", ["*", "u1", "u1"]]])
    grid = gl.GridSpec(base=_axes(4.0, 32, 1), fiber=_axes(8.0, 32, 1))
    f = gl.SymbolSpec.gaussian(1, 1)
    g = gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_powers=[1])
    return chart, grid, f, g


def _pair2():
    grid = gl.GridSpec(base=_axes(4.0, 8, 2), fiber=_axes(6.0, 16, 2))
    f = gl.SymbolSpec.gaussian(2, 2, xi_centers=[0.2, -0.1])
    g = gl.SymbolSpec.gaussian(2, 2, x_powers=[1, 0], xi_powers=[0, 1])
    return gl.builtin_chart("pair", n=2), grid, f, g


def _heisenberg():
    grid = gl.GridSpec(base=(), fiber=_axes(5.5, 12, 3))
    f = gl.SymbolSpec.gaussian(0, 3, xi_widths=[1.1, 1.2, 1.1], xi_centers=[0.3, 0.0, -0.2])
    g = gl.SymbolSpec.gaussian(0, 3, xi_powers=[1, 0, 0], xi_widths=[1.2, 1.1, 1.3])
    return gl.builtin_chart("heisenberg"), grid, f, g


def _ax_plus_b():
    grid = gl.GridSpec(base=(), fiber=_axes(3.5, 24, 2))
    f = gl.SymbolSpec.gaussian(0, 2, xi_widths=[2.5, 2.5])
    g = gl.SymbolSpec.gaussian(0, 2, xi_powers=[1, 0], xi_widths=[3.0, 2.6])
    return gl.builtin_chart("ax_plus_b", half_width=4.0), grid, f, g


def _complex_pair():
    chart, grid, f, g = _weighted_pair()
    return chart, grid, f.scaled(0.6 - 0.8j), g + gl.SymbolSpec.gaussian(1, 1, coeff=0.5j, xi_centers=0.4)


def _sampled_pair():
    chart, grid, f, g = _weighted_pair()
    return chart, grid, gl.eval_symbol(f, grid), g


def _sampled_complex_heisenberg():
    chart, grid, f, g = _heisenberg()
    return chart, grid, f, gl.eval_symbol(g.scaled(1j) + g, grid)


CASES = {
    "pair": _pair,
    "weighted_pair": _weighted_pair,
    "pair2": _pair2,
    "heisenberg": _heisenberg,
    "ax_plus_b": _ax_plus_b,
    "complex_pair": _complex_pair,
    "sampled_pair": _sampled_pair,
    "sampled_complex_heisenberg": _sampled_complex_heisenberg,
}
REAL_CASES = ("pair", "weighted_pair", "pair2", "heisenberg", "ax_plus_b", "sampled_pair")


def _bracket_terms(f, g, chart, grid):
    """``(coefficient, (a, b), (c, d))`` with bracket = 2 pi i sum c (a conv b - c conv d).

    Operands are ``(label, operand)``; the label names the operand so that
    the distinct ones can be counted.
    """
    data = extract_algebroid(chart, grid.base_points_flat())
    n, m = grid.base_dim, grid.fiber_dim
    anchor = data.anchor.reshape(grid.base_shape + (m, n))
    structure = data.structure.reshape(grid.base_shape + (m, m, m))
    log_grad = data.log_weight_grad.reshape(grid.base_shape + (n,))
    own = {"f": f, "g": g}
    xi = lambda w, i: (f"xi_{i} {w}", own[w].fiber_multiply(i))
    dx = lambda w, j: (f"d/dx_{j} {w}", own[w].derivative("x", j))
    dxi = lambda w, i, k: (f"d/dxi_{k} xi_{i} {w}", own[w].fiber_multiply(i).derivative("xi", k))
    terms = []
    for i in range(m):
        for j in range(n):
            a_ij = anchor[..., i, j]
            if np.any(a_ij != 0.0):
                terms.append((a_ij, (xi("f", i), dx("g", j)), (xi("g", i), dx("f", j))))
                coupling = a_ij * log_grad[..., j]
                if np.any(coupling != 0.0):
                    terms.append((coupling, (xi("f", i), ("g", g)), (xi("g", i), ("f", f))))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                c_ijk = structure[..., i, j, k]
                if np.any(c_ijk != 0.0):
                    terms.append((-0.5 * c_ijk, (dxi("f", i, k), xi("g", j)), (dxi("g", i, k), xi("f", j))))
    return terms


def _convolution_sum(f, g, chart, grid):
    """The bracket as a sum of fiber convolutions, one pair per term."""
    mu = gl.unit_weight_on_grid(chart, grid)
    sample = lambda op: op if isinstance(op, gl.SampledSymbol) else gl.eval_symbol(op, grid)
    conv = lambda a, b: gl.fiber_convolve(sample(a[1]), sample(b[1]), mu).values
    out = np.zeros(grid.shape, dtype=complex)
    for coeff, (a, b), (c, d) in _bracket_terms(f, g, chart, grid):
        coeff = coeff.reshape(coeff.shape + (1,) * grid.fiber_dim)
        out += 2j * np.pi * coeff * (conv(a, b) - conv(c, d))
    return out


@pytest.mark.parametrize("case", CASES)
def test_spectral_bracket_matches_the_sum_of_convolutions(case):
    chart, grid, f, g = CASES[case]()
    expected = _convolution_sum(f, g, chart, grid)
    got = gl.poisson_bracket(f, g, chart, grid).values
    sup = float(np.max(np.abs(expected)))
    assert sup > 0
    assert np.max(np.abs(got - expected)) <= 1e-14 * sup


@pytest.mark.parametrize("case", CASES)
def test_spectral_bracket_is_antisymmetric_bitwise(case):
    chart, grid, f, g = CASES[case]()
    forward = gl.poisson_bracket(f, g, chart, grid)
    backward = gl.poisson_bracket(g, f, chart, grid)
    assert np.array_equal(forward.values, -backward.values)
    real = case in REAL_CASES
    assert np.all(forward.values.real == 0.0) == real
    if real:  # exactly +0, so the CSV's real column reads "0", never "-0"
        assert not np.signbit(forward.values.real).any()
        assert not np.signbit(backward.values.real).any()


def test_the_bracket_warns_once_per_sample():
    # heisenberg_fourier's f is under-resolved: each of its samples warns once, named as f's
    config = gl.load_config(CONFIGS / "heisenberg_fourier.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", gl.DecayWarning)
        gl.poisson_bracket(config.symbols["f"], config.symbols["g"], config.chart, config.grid)
    messages = [str(w.message) for w in caught if issubclass(w.category, gl.DecayWarning)]
    assert len(messages) == 3 and all(" f)" in m or " f " in m for m in messages)


def _counted(name, routine, calls):
    def spy(*args):
        calls.append(name)
        return routine(*args)

    return spy


@pytest.mark.parametrize("case", CASES)
def test_spectral_bracket_transforms_each_operand_once_and_inverts_once(case, monkeypatch):
    chart, grid, f, g = CASES[case]()
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, _counted(name, getattr(np.fft, name), calls))
    gl.poisson_bracket(f, g, chart, grid)
    monkeypatch.undo()
    terms = _bracket_terms(f, g, chart, grid)
    operands = set()  # (label, weighted): a first factor carries the quadrature weights
    for _, (a, b), (c, d) in terms:
        operands |= {(a[0], True), (b[0], False), (c[0], True), (d[0], False)}
    forward, inverse = ("rfftn", "irfftn") if case in REAL_CASES else ("fftn", "ifftn")
    assert calls == [forward] * len(operands) + [inverse]
    if case == "weighted_pair":  # the anchor and the coupling term share xi f and xi g
        assert (len(terms), len(operands)) == (2, 6)


def _complex_transform(values, src, dst, sign):
    """The fiber transform with a complex GEMM on every axis."""
    vals = values.astype(complex)
    for k in range(src.fiber_dim):
        kernel = poisson._axis_kernel(src.fiber[k], dst.fiber[k], sign)
        axis = src.base_dim + k
        vals = np.moveaxis(np.moveaxis(vals, axis, -1) @ kernel.T, -1, axis)
    return vals


@pytest.mark.parametrize("case", ["pair", "pair2", "heisenberg", "ax_plus_b"])
def test_real_gemm_transform_matches_the_complex_one(case):
    _, grid, f, _ = CASES[case]()
    dual = grid.dual()
    samples = gl.eval_symbol(f, grid).values
    assert samples.dtype == np.float64
    real = poisson._fiber_transform(samples, grid, dual, -1.0)
    reference = _complex_transform(samples, grid, dual, -1.0)
    assert np.max(np.abs(real - reference)) <= 1e-15 * np.max(np.abs(reference))
    # complex input, and so every inverse transform, keeps the complex GEMM bit for bit
    assert np.array_equal(poisson._fiber_transform(real, dual, grid, 1.0), _complex_transform(real, dual, grid, 1.0))
    complex_samples = samples * (1 - 0.5j)
    assert np.array_equal(
        poisson._fiber_transform(complex_samples, grid, dual, -1.0),
        _complex_transform(complex_samples, grid, dual, -1.0),
    )


def test_samples_keep_the_symbol_dtype():
    _, grid, f, _ = _weighted_pair()
    real = gl.eval_symbol(f, grid)
    assert real.values.dtype == np.float64
    as_complex = gl.SampledSymbol.wrap(real.values.astype(complex), grid)
    for kind in ("x", "xi"):  # a real stencil is the real part of the complex one, bit for bit
        derivative = real.derivative(kind, 0).values
        assert derivative.dtype == np.float64
        assert np.array_equal(derivative, as_complex.derivative(kind, 0).values.real)
    assert gl.SampledSymbol.wrap(real.values.tolist(), grid).values.dtype == np.float64
    complex_samples = gl.eval_symbol(f.scaled(1j), grid)
    assert complex_samples.values.dtype == np.complex128
    assert np.array_equal(complex_samples.values.imag, real.values)
    assert gl.fiber_convolve(real, real).values.dtype == np.float64
    assert gl.fiber_convolve(real, complex_samples).values.dtype == np.complex128

"""Independent oracle computations the tests compare against.

Everything here is deliberately written from scratch against the math, not
by calling package internals: plain trapezoid loops, hand-coded derivatives,
closed-form Gaussian integrals.  A few frozen constants computed from these
oracles are asserted verbatim in the tests.
"""

import numpy as np


def trapezoid_axis(lo: float, hi: float, count: int):
    xs = np.linspace(lo, hi, count)
    w = np.full(count, xs[1] - xs[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return xs, w


def gaussian_self_convolution(xi):
    """exp(-.^2) * exp(-.^2) evaluated at xi (closed form)."""
    return np.sqrt(np.pi / 2.0) * np.exp(-np.asarray(xi) ** 2 / 2.0)


def direct_fiber_convolution(f, g, fiber_axes, mu):
    """``mu(x) sum_eta w(eta) f(x, eta) g(x, xi - eta)`` by a plain loop over nodes.

    ``f`` and ``g`` hold node values of shape ``(K, n_1, ..., n_m)`` on the
    symmetric fiber axes ``fiber_axes = [(half_width, count), ...]``, with
    trapezoid weights per axis; ``g`` is zero off the grid and ``mu`` has
    one entry per base point.
    """
    axes = [trapezoid_axis(-half, half, count) for half, count in fiber_axes]
    shape = tuple(count for _, count in fiber_axes)
    out = np.zeros(f.shape, dtype=complex)
    for k in range(f.shape[0]):
        for i in np.ndindex(*shape):
            total = 0j
            for j in np.ndindex(*shape):
                weight = 1.0
                shifted = []
                for a, (xs, w) in enumerate(axes):
                    weight *= w[j[a]]
                    offset = (xs[i[a]] - xs[j[a]]) / (xs[1] - xs[0])
                    shifted.append(int(round(offset)) + (shape[a] - 1) // 2)
                if all(0 <= s < n for s, n in zip(shifted, shape)):
                    total += weight * f[(k,) + j] * g[(k,) + tuple(shifted)]
            out[(k,) + i] = mu[k] * total
    return out


def bracket_point_additive_chart(x: float, xi: float) -> complex:
    """Single-point bracket for the additive 1-d chart with unit weight.

    f = exp(-x^2 - xi^2), g = x exp(-x^2 - xi^2); evaluates
    2 pi i (xi f * dg/dx - xi g * df/dx) by direct quadrature with
    hand-written derivatives on the oracle's own grid.
    """
    eta, w = trapezoid_axis(-9.0, 9.0, 1441)
    f = lambda a, b: np.exp(-(a**2) - b**2)
    g = lambda a, b: a * np.exp(-(a**2) - b**2)
    df_dx = lambda a, b: -2.0 * a * np.exp(-(a**2) - b**2)
    dg_dx = lambda a, b: (1.0 - 2.0 * a**2) * np.exp(-(a**2) - b**2)
    total = np.sum(
        w * (eta * f(x, eta) * dg_dx(x, xi - eta) - eta * g(x, eta) * df_dx(x, xi - eta))
    )
    return 2j * np.pi * total


def bracket_closed_additive_chart(x: float, xi: float) -> complex:
    """Closed form of the same bracket: 2 pi i sqrt(pi/2) (xi/2) e^{-xi^2/2 - 2x^2}."""
    return 2j * np.pi * np.sqrt(np.pi / 2.0) * (xi / 2.0) * np.exp(-(xi**2) / 2.0 - 2.0 * x**2)


# frozen values of the two oracles above (they agree to ~4e-14)
BRACKET_POINT_VALUES = {
    (0.0, 0.0): 0.0 + 0.0j,
    (0.75, 1.5): 0.6224987532866134j,
    (-1.125, -0.5): -0.13822452239092142j,
}


def kernel_composition_additive(f0, g0, xs, xis, z_span=12.0, z_count=961):
    """Integral-kernel composition oracle for the additive base chart at t = 1.

    Returns the matrix ``K[a, b] = int f0(x_a, z - x_a) g0(z, x_a + xi_b - z) dz``
    by trapezoid quadrature on an independent fine z grid.
    """
    zs, wz = trapezoid_axis(-z_span, z_span, z_count)
    out = np.zeros((len(xs), len(xis)))
    for a, x in enumerate(xs):
        for b, xi in enumerate(xis):
            y = x + xi
            out[a, b] = np.sum(f0(x, zs - x) * g0(zs, y - zs) * wz)
    return out


def corrupted_associativity_defect(v: float, w: float, z: float) -> float:
    """Associativity defect of p(v, w) = v + w + 0.01 v^2 w at one triple."""
    p = lambda a, b: a + b + 0.01 * a * a * b
    return abs(p(v, p(w, z)) - p(p(v, w), z))


def dense_transform_sup(values, nodes, step_weights, zeta_span=4.0, zeta_count=4001):
    """sup over a dense frequency grid of |sum f(xi) e^{-2 pi i z xi} w(xi)|."""
    zetas = np.linspace(-zeta_span, zeta_span, zeta_count)
    phases = np.exp(-2j * np.pi * np.outer(zetas, nodes))
    transform = phases @ (np.asarray(values) * step_weights)
    return float(np.max(np.abs(transform)))

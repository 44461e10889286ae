"""Independent oracle computations the tests compare against.

Everything here is deliberately written from scratch against the math, not
by calling package internals: plain trapezoid loops, hand-coded derivatives,
closed-form Gaussian integrals.  A few frozen constants computed from these
oracles are asserted verbatim in the tests.
"""

import itertools

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


def structure_constants_exact(name: str):
    """``c[i, j, k]`` with ``[e_i, e_j] = sum_k c[i, j, k] e_k`` of the built-in group ``name``.

    Heisenberg: ``[e1, e2] = e3``; ax+b: ``[e1, e2] = e2``.
    """
    m, (i, j, k) = {"heisenberg": (3, (0, 1, 2)), "ax_plus_b": (2, (0, 1, 1))}[name]
    c = np.zeros((m, m, m))
    c[i, j, k], c[j, i, k] = 1.0, -1.0
    return c


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


def gaussian_integral(A, b, c):
    """``int_{R^m} exp(-eta^T A eta + b^T eta + c) d eta`` for symmetric positive definite A.

    Completing the square gives ``sqrt(pi^m / det A) exp(b^T A^{-1} b / 4 + c)``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m = A.shape[0]
    return np.sqrt(np.pi**m / np.linalg.det(A)) * np.exp(b @ np.linalg.solve(A, b) / 4.0 + c)


def integral_of_gaussian_forms(forms, m):
    """``int_{R^m} exp(-sum_k a_k (L_k . eta + l_k)^2) d eta`` for affine forms ``(a_k, L_k, l_k)``.

    Expanding each square gives the quadratic ``A``, linear ``b`` and constant
    ``c`` of :func:`gaussian_integral`.
    """
    A = np.zeros((m, m))
    b = np.zeros(m)
    c = 0.0
    for a, L, l in forms:
        L = np.asarray(L, dtype=float)
        A += a * np.outer(L, L)
        b -= 2.0 * a * l * L
        c -= a * l * l
    return gaussian_integral(A, b, c)


def pair_deformed_gaussians(x, xi, t, f, g):
    """``(f *_t g)(x, xi)`` on the pair groupoid of R with unit weight, in closed form.

    ``f`` and ``g`` are ``(x_width, x_center, xi_width, xi_center)`` of the
    Gaussians ``exp(-a (x - c)^2 - b (xi - d)^2)``.  Arrows compose additively,
    the source of ``(x, t eta)`` is ``x + t eta`` and the fiber density is 1,
    so ``(f *_t g)(x, xi) = int f(x, eta) g(x + t eta, xi - eta) d eta``: the
    exponent is a sum of squares of forms affine in eta.
    """
    (a1, c1, b1, d1), (a2, c2, b2, d2) = f, g
    forms = [
        (a1, [0.0], x - c1),
        (b1, [1.0], -d1),
        (a2, [t], x - c2),
        (b2, [-1.0], xi - d2),
    ]
    return integral_of_gaussian_forms(forms, 1)


def heisenberg_deformed_gaussians(xi, t, f, g):
    """``(f *_t g)(xi)`` on the Heisenberg group in exponential coordinates, in closed form.

    ``f`` and ``g`` are ``(widths, centers)`` of ``exp(-sum_k b_k (xi_k - d_k)^2)``.
    The group law ``v w = v + w + (0, 0, (v_1 w_2 - v_2 w_1) / 2)`` has unit
    Haar density, and ``(t eta) w = t xi`` gives ``w / t = xi - eta - (0, 0,
    t (eta_1 xi_2 - eta_2 xi_1) / 2)``, affine in eta; so
    ``(f *_t g)(xi) = int f(eta) g(w / t) d eta`` is a Gaussian integral.
    """
    (bf, df), (bg, dg) = f, g
    eye = np.eye(3)
    forms = [(bf[k], eye[k], -df[k]) for k in range(3)]
    forms += [(bg[k], -eye[k], xi[k] - dg[k]) for k in range(2)]
    forms.append((bg[2], [-0.5 * t * xi[1], 0.5 * t * xi[0], -1.0], xi[2] - dg[2]))
    return integral_of_gaussian_forms(forms, 3)


def regular_action_norm(f, transport, density, axes, t):
    """Norm of the regular action of ``f`` at scale ``t``, one integration node at a time.

    ``axes`` lists ``(half_width, count)`` of symmetric trapezoid axes whose
    nodes serve both as integration and as output nodes; ``f(nodes)`` gives
    the symbol's values, ``density(v)`` the Haar density and
    ``transport(v, target)`` the ``w`` with ``product(v, w) = target``.
    Integration node ``eta_b`` adds ``f(eta_b) density(t eta_b)
    weight(eta_b)`` to row ``a`` at the multilinear interpolation corners of
    ``w / t``, ``w = transport(t eta_b, t eta_a)``; corners off the grid drop
    out.  The matrix is conjugated by the square roots of the quadrature
    weights, and the norm is its largest singular value from numpy's SVD.
    """
    lines = [trapezoid_axis(-half, half, count) for half, count in axes]
    m = len(lines)
    counts = [count for _, count in axes]
    nodes = np.stack(np.meshgrid(*[xs for xs, _ in lines], indexing="ij"), axis=-1).reshape(-1, m)
    weights = np.ones(counts)
    for k, (_, w) in enumerate(lines):
        weights = weights * w.reshape([-1 if j == k else 1 for j in range(m)])
    weights = weights.reshape(-1)
    H = nodes.shape[0]
    coeff = f(nodes) * density(t * nodes) * weights
    rows = np.arange(H)
    matrix = np.zeros((H, H), dtype=complex)
    for b in range(H):
        point = transport(np.tile(t * nodes[b], (H, 1)), t * nodes) / t
        low, frac = [], []
        for k, (xs, _) in enumerate(lines):
            position = (point[:, k] - xs[0]) / (xs[1] - xs[0])
            low.append(np.floor(position).astype(int))
            frac.append(position - low[-1])
        for corner in itertools.product((0, 1), repeat=m):
            index = [low[k] + corner[k] for k in range(m)]
            share = np.ones(H)
            inside = np.ones(H, dtype=bool)
            for k in range(m):
                share = share * (frac[k] if corner[k] else 1.0 - frac[k])
                inside &= (index[k] >= 0) & (index[k] < counts[k])
            column = np.ravel_multi_index([i[inside] for i in index], counts)
            np.add.at(matrix, (rows[inside], column), coeff[b] * share[inside])
    root = np.sqrt(weights)
    return np.linalg.svd(root[:, None] * matrix / root[None, :], compute_uv=False)[0]


def ax_plus_b_transport(v, target):
    """``w`` with ``(v_1 + w_1, v_2 + e^{v_1} w_2) = target``."""
    return np.stack([target[:, 0] - v[:, 0], (target[:, 1] - v[:, 1]) * np.exp(-v[:, 0])], axis=-1)


def ax_plus_b_density(v):
    """Haar density ``1 / |det d_w (v w)|_{w=0}| = e^{-v_1}`` of the affine group."""
    return np.exp(-v[:, 0])


def heisenberg_transport(v, target):
    """``w`` with ``v + w + (0, 0, (v_1 w_2 - v_2 w_1) / 2) = target``."""
    w = target - v
    w[:, 2] -= 0.5 * (v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0])
    return w


def gaussian_polynomial_values(terms, x, xi):
    """``sum coeff * poly * exp(exponent)`` over real-coefficient config terms, plainly.

    ``terms`` are config entries (dicts with ``coeff`` and every power, width
    and centre list); ``x`` is (..., n) and ``xi`` is (..., m).  The exponent
    ``-sum w (y - c)^2`` runs over the base coordinates and then the fiber
    coordinates, from 0; ``poly`` multiplies the powers in the same order from 1.
    """
    coords = [x[..., k] for k in range(x.shape[-1])] + [xi[..., l] for l in range(xi.shape[-1])]
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], xi.shape[:-1]))
    for term in terms:
        widths = term["x_widths"] + term["xi_widths"]
        centers = term["x_centers"] + term["xi_centers"]
        powers = term["x_powers"] + term["xi_powers"]
        exponent = 0.0
        poly = 1.0
        for y, w, c, p in zip(coords, widths, centers, powers):
            exponent = exponent - w * (y - c) ** 2
            if p:
                poly = poly * y ** p
        out = out + term["coeff"] * poly * np.exp(exponent)
    return out

import numpy as np
import pytest

import groupoidlab as gl
from groupoidlab import algebroid
from groupoidlab.errors import DomainError, GroupoidLabError

from oracles import structure_constants_exact


def test_anchor_pair2_is_identity():
    chart = gl.builtin_chart("pair", n=2)
    a = gl.anchor_matrix(chart, np.array([0.4, -0.7]))
    np.testing.assert_allclose(a, np.eye(2), atol=1e-8)


def test_anchor_bundle_is_zero():
    chart = gl.builtin_chart("abelian_bundle", n=1, m=2)
    a = gl.anchor_matrix(chart, np.array([0.3]))
    assert a.shape == (2, 1)
    np.testing.assert_array_equal(a, 0.0)


def test_anchor_heisenberg_empty(heisenberg):
    a = gl.anchor_matrix(heisenberg, np.zeros(0))
    assert a.shape == (3, 0)


def test_bilinear_examples(pair1, heisenberg):
    np.testing.assert_allclose(gl.product_bilinear(pair1, np.array([0.2]))[0, 0], [0.0], atol=1e-12)
    b = gl.product_bilinear(heisenberg, np.zeros(0))
    assert b.shape == (3, 3, 3)
    np.testing.assert_allclose(b[0, 1], [0.0, 0.0, 0.5], atol=1e-11)
    axb = gl.builtin_chart("ax_plus_b")
    np.testing.assert_allclose(gl.product_bilinear(axb, np.zeros(0))[0, 1], [0.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("name", ["heisenberg", "ax_plus_b"])
def test_structure_constants_vs_analytic_oracle(name):
    chart = gl.builtin_chart(name)
    c = gl.structure_constants(chart, np.zeros(0))
    np.testing.assert_allclose(c, structure_constants_exact(name), atol=1e-5)


def test_structure_constants_pair_all_zero():
    chart = gl.builtin_chart("pair", n=2)
    c = gl.structure_constants(chart, np.array([0.1, 0.3]))
    np.testing.assert_allclose(c, 0.0, atol=1e-5)


def test_antisymmetry_is_bitwise(heisenberg):
    c = gl.structure_constants(heisenberg, np.zeros(0))
    assert np.array_equal(c, -np.transpose(c, (1, 0, 2)))


def test_log_weight_gradient_examples():
    flat = gl.builtin_chart("pair", n=1)
    np.testing.assert_array_equal(gl.log_weight_gradient(flat, np.array([0.4])), [0.0])
    growth = gl.builtin_chart("pair", n=1, mu_e=["exp", "u1"])
    np.testing.assert_allclose(gl.log_weight_gradient(growth, np.array([0.7])), [1.0], atol=1e-9)
    bump = gl.builtin_chart("pair", n=1, mu_e=["exp", ["-", ["*", "u1", "u1"]]])
    np.testing.assert_allclose(gl.log_weight_gradient(bump, np.array([0.5])), [-1.0], atol=1e-9)


def test_log_weight_gradient_requires_margin():
    chart = gl.builtin_chart("pair", n=1)
    with pytest.raises(DomainError):
        gl.log_weight_gradient(chart, np.array([10.0]))


def test_nonpositive_weight_raises():
    chart = gl.builtin_chart("pair", n=1, mu_e=["-", "u1", 0.0])
    with pytest.raises(GroupoidLabError):
        gl.log_weight_gradient(chart, np.array([0.0]))


def _curved_chart():
    # source map cubic in v, product with a quartic term: nonzero truncation error
    return gl.chart_from_spec(
        {
            "name": "curved",
            "base_dim": 1,
            "fiber_dim": 1,
            "source_map": [["+", "u1", "v1", ["*", 0.2, "v1", "v1", "v1"]]],
            "product": [
                ["+", "v1", "w1", ["*", 0.5, "v1", "w1"], ["*", 0.2, "v1", "v1", "v1", "w1"]]
            ],
            "unit_weight": 1.0,
            "base_box": [[-4.0, 4.0]],
            "fiber_box": [[-4.0, 4.0]],
        }
    )


def test_anchor_convergence_is_second_order(monkeypatch):
    chart = _curved_chart()
    u = np.array([0.5])
    exact = 1.0  # d(source)/dv at v=0
    errors = []
    for step in (2e-3, 1e-3):  # the step is a module constant, set here for the test only
        monkeypatch.setattr(algebroid, "FD_STEP", step)
        errors.append(abs(float(gl.anchor_matrix(chart, u)[0, 0]) - exact))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_bilinear_convergence_is_second_order(monkeypatch):
    chart = _curved_chart()
    u = np.array([0.0])
    exact = 0.5
    errors = []
    for step in (4e-3, 2e-3):
        monkeypatch.setattr(algebroid, "FD_STEP", step)
        errors.append(abs(float(gl.product_bilinear(chart, u)[0, 0, 0]) - exact))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("name", ["heisenberg", "ax_plus_b"])
def test_jacobi_identity_small(name):
    chart = gl.builtin_chart(name)
    data = gl.extract_algebroid(chart, np.zeros((1, 0)))
    assert data.jacobi_residual() <= 1e-8


def test_extract_tabulates_exact_nodes(pair1, pair1_grid64):
    data = gl.extract_algebroid(pair1, pair1_grid64.base_points_flat())
    assert np.array_equal(data.base_points, pair1_grid64.base_points_flat())
    assert data.anchor.shape == (65, 1, 1)
    assert data.structure.shape == (65, 1, 1, 1)
    assert data.log_weight_grad.shape == (65, 1)
    np.testing.assert_allclose(data.anchor[:, 0, 0], 1.0, atol=1e-9)


def test_extract_base_dim_zero(heisenberg):
    data = gl.extract_algebroid(heisenberg, np.zeros((1, 0)))
    assert data.base_points.shape == (1, 0)
    assert data.anchor.shape == (1, 3, 0)
    assert data.log_weight_grad.shape == (1, 0)


def _base_chart():
    # a custom chart whose anchor, structure constants and weight all vary over the base
    return gl.chart_from_spec(
        {
            "name": "curved_base",
            "base_dim": 2,
            "fiber_dim": 2,
            "source_map": [
                ["+", "u1", "v1", ["*", 0.1, "v2", "v1"]],
                ["+", "u2", ["*", "v2", ["exp", ["*", 0.2, "u1"]]]],
            ],
            "product": [
                ["+", "v1", "w1", ["*", 0.3, "v2", "w1"], ["*", 0.1, "u1", "v1", "w2"]],
                ["+", "v2", "w2", ["*", ["sin", "u2"], "v1", "w2"]],
            ],
            "unit_weight": ["exp", ["*", -0.05, ["+", ["*", "u1", "u1"], ["*", "u2", "u2"]]]],
            "base_box": [[-3.0, 3.0], [-3.0, 3.0]],
            "fiber_box": [[-3.0, 3.0], [-3.0, 3.0]],
        }
    )


def _loop_reference(chart, u, step):
    """Anchor, structure constants and log-weight gradient at one point, one stencil at a time."""
    m, n = chart.fiber_dim, chart.base_dim
    e = np.eye(m) * step
    anchor = np.zeros((m, n))
    for i in range(m):
        anchor[i] = (chart.source_map(u, e[i]) - chart.source_map(u, -e[i])) / (2.0 * step)
    p = lambda a, b: chart.product(u, a, b)
    bilinear = lambda i, j: (p(e[i], e[j]) - p(e[i], -e[j]) - p(-e[i], e[j]) + p(-e[i], -e[j])) / (4.0 * step * step)
    c = np.zeros((m, m, m))
    for i in range(m):
        for j in range(i + 1, m):
            c[i, j] = bilinear(i, j) - bilinear(j, i)
            c[j, i] = -c[i, j]
    grad = np.zeros(n)
    for j in range(n):
        du = np.eye(n)[j] * step
        grad[j] = (np.log(float(chart.unit_weight(u + du))) - np.log(float(chart.unit_weight(u - du)))) / (2.0 * step)
    return anchor, c, grad


def _axis(count):
    return gl.Axis.centered(2.0, count)


@pytest.mark.parametrize(
    "chart, base",
    [
        (gl.builtin_chart("pair", n=1), (_axis(16),)),
        (gl.builtin_chart("pair", n=2, mu_e=["exp", ["-", ["*", 0.05, "u1", "u2"]]]), (_axis(4), _axis(6))),
        (gl.builtin_chart("abelian_bundle", n=2, m=2), (_axis(4), _axis(4))),
        (gl.builtin_chart("heisenberg"), ()),
        (gl.builtin_chart("ax_plus_b"), ()),
        (_base_chart(), (_axis(4), _axis(6))),
    ],
    ids=["pair1", "weighted_pair2", "abelian_bundle22", "heisenberg", "ax_plus_b", "custom_base"],
)
def test_batched_extraction_equals_single_points_bytewise(chart, base):
    # tobytes() also compares the sign of zero: the CSV writes -0 as "-0"
    pts = gl.GridSpec(base=base, fiber=tuple(_axis(4) for _ in range(chart.fiber_dim))).base_points_flat()
    data = gl.extract_algebroid(chart, pts)
    for p, u in enumerate(pts):
        single = (gl.anchor_matrix(chart, u), gl.structure_constants(chart, u), gl.log_weight_gradient(chart, u))
        for batched, one, loop in zip(
            (data.anchor[p], data.structure[p], data.log_weight_grad[p]), single, _loop_reference(chart, u, 1e-3)
        ):
            assert batched.tobytes() == one.tobytes() == loop.tobytes()

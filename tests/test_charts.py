import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import groupoidlab as gl
from groupoidlab.errors import DomainError, SamplingError
from groupoidlab.expressions import Planes, split, stack

from oracles import corrupted_associativity_defect

ALL_BUILTINS = [
    ("pair", {"n": 1}),
    ("pair", {"n": 2}),
    ("abelian_bundle", {"n": 1, "m": 2}),
    ("abelian_bundle", {"n": 0, "m": 1}),
    ("heisenberg", {}),
    ("ax_plus_b", {}),
]


def corrupted_chart():
    """Additive 1-d chart with an asymmetric cubic term breaking associativity."""
    return gl.chart_from_spec(
        {
            "name": "corrupted_pair",
            "base_dim": 1,
            "fiber_dim": 1,
            "source_map": [["+", "u1", "v1"]],
            "product": [["+", "v1", "w1", ["*", 0.01, "v1", "v1", "w1"]]],
            "unit_weight": 1.0,
            "base_box": [[-10.0, 10.0]],
            "fiber_box": [[-10.0, 10.0]],
        }
    )


# -- compose / source / invert ------------------------------------------------

def test_compose_additive(pair1):
    assert gl.compose(pair1, np.array([0.3]), np.array([0.2]), np.array([-0.1])) == pytest.approx(0.1)


def test_compose_heisenberg(heisenberg):
    out = gl.compose(heisenberg, np.zeros(0), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, [1.0, 1.0, 0.5])


@pytest.mark.parametrize("name, params", ALL_BUILTINS)
def test_unit_laws(name, params):
    chart = gl.builtin_chart(name, **params)
    rng = np.random.default_rng(11)
    u = 0.25 * rng.normal(size=(20, chart.base_dim))
    v = 0.25 * rng.normal(size=(20, chart.fiber_dim))
    zeros = np.zeros_like(v)
    np.testing.assert_array_equal(gl.compose(chart, u, zeros, v), v)
    np.testing.assert_array_equal(gl.compose(chart, u, v, zeros), v)
    np.testing.assert_array_equal(gl.source_coords(chart, u, zeros), u)


def test_source_coords_pair2():
    chart = gl.builtin_chart("pair", n=2)
    out = gl.source_coords(chart, np.array([0.1, 0.2]), np.array([0.3, -0.1]))
    np.testing.assert_allclose(out, [0.4, 0.1])


def test_source_coords_bundle_ignores_fiber():
    chart = gl.builtin_chart("abelian_bundle", n=1, m=2)
    u = np.array([0.7])
    for v in ([0.0, 0.0], [1.0, -2.0], [3.0, 3.0]):
        np.testing.assert_array_equal(gl.source_coords(chart, u, np.array(v)), u)


def test_invert_closed_forms(heisenberg):
    np.testing.assert_allclose(
        gl.invert_element(heisenberg, np.zeros(0), np.array([1.0, 2.0, 3.0])), [-1.0, -2.0, -3.0]
    )
    axb = gl.builtin_chart("ax_plus_b")
    np.testing.assert_allclose(
        gl.invert_element(axb, np.zeros(0), np.array([1.0, 1.0])),
        [-1.0, -np.exp(-1.0)],
        atol=1e-15,
    )
    bundle = gl.builtin_chart("abelian_bundle", n=1, m=1)
    np.testing.assert_array_equal(
        gl.invert_element(bundle, np.array([0.2]), np.array([0.9])), [-0.9]
    )


@pytest.mark.parametrize("name, params", ALL_BUILTINS)
def test_invert_then_compose_is_unit(name, params):
    chart = gl.builtin_chart(name, **params)
    rng = np.random.default_rng(3)
    u = 0.3 * rng.normal(size=(50, chart.base_dim))
    v = 0.3 * rng.normal(size=(50, chart.fiber_dim))
    w = gl.invert_element(chart, u, v)
    residual = np.max(np.abs(chart.product(u, v, w)))
    assert residual <= 1e-10


@pytest.mark.parametrize("name, params", ALL_BUILTINS + [("cubic", {})])
def test_array_maps_equal_their_stacked_planes(name, params):
    # the maps evaluate (..., dim) arrays per component, as they do Planes, and
    # stack the components once; "cubic" is solved by Newton.  The unit weight
    # (1 on every built-in) is a constant tree, and where the base dimension
    # is 0 no tree reads the u given: both results still span the batch shape.
    chart = _one_chart(CUBIC, fiber_dim=1) if name == "cubic" else gl.builtin_chart(name, **params)
    n, m = chart.base_dim, chart.fiber_dim
    rng = np.random.default_rng(6)
    planes = lambda shapes: Planes(rng.uniform(-0.5, 0.5, shape) for shape in shapes)
    u = planes([(5, 1, 1), (1, 4, 1)][:n])
    v = planes([(1, 1, 7), (5, 1, 1), (1, 4, 7)][:m])
    target = planes([(1, 4, 1), (5, 1, 7), (1, 1, 1)][:m])
    arrays = [stack(p, np.broadcast_shapes((5, 1, 1), p.shape[:-1])) for p in (u, v, target)]
    w = gl.solve_product(chart, *arrays)
    pairs = [
        (chart.source_map(*arrays[:2]), chart.source_map(u, v), arrays[:2]),
        (w, gl.solve_product(chart, u, v, target), arrays),
        (chart.product(*arrays[:2], w), chart.product(u, v, split(w)), arrays[:2] + [w]),
    ]
    for want, got, inputs in pairs:
        batch = np.broadcast_shapes(*(a.shape[:-1] for a in inputs))
        assert isinstance(got, Planes) and want.shape == batch + (len(got),)
        assert want.flags.c_contiguous and want.tobytes() == stack(got, batch).tobytes()
    weight = chart.unit_weight(arrays[0])
    assert weight.shape == (5, 1 + 3 * (n > 1), 1)
    assert weight.tobytes() == np.broadcast_to(chart.unit_weight(u), weight.shape).tobytes()


CUBIC = [["+", "v1", "w1", ["*", 0.4, "w1", "w1", "w1"]]]  # not affine in w1: Newton


def _one_chart(product, fiber_dim=2):
    return gl.chart_from_spec(
        {
            "name": "probe",
            "base_dim": 0,
            "fiber_dim": fiber_dim,
            "source_map": [],
            "product": product,
            "base_box": [],
            "fiber_box": [[-4.0, 4.0]] * fiber_dim,
        }
    )


def test_the_solver_is_derived_only_for_affine_lower_triangular_products():
    for name, params in ALL_BUILTINS:
        assert gl.builtin_chart(name, **params).product_solver is not None
    assert corrupted_chart().product_solver is not None  # 1 + 0.01 v1^2 on the diagonal
    assert _one_chart(CUBIC, fiber_dim=1).product_solver is None  # not affine: Newton
    upper = [["+", "v1", "w1", "w2"], ["+", "v2", "w2"]]
    assert _one_chart(upper).product_solver is None  # upper triangular: Newton
    lower = [["+", "v1", "w1"], ["+", "v2", "w2", ["*", 3.0, "v1", "w1"]]]
    assert _one_chart(lower).product_solver is not None


def test_the_derived_solver_multiplies_by_the_reciprocal_diagonal():
    # ax+b: J_22 = exp(v1), so w2 = (t2 - v2) * exp(-v1), the closed form bit for bit
    chart = gl.builtin_chart("ax_plus_b")
    rng = np.random.default_rng(4)
    v, target = rng.uniform(-1.5, 1.5, (2, 50, 2))
    w = chart.product_solver(np.zeros((50, 0)), v, target)
    assert w[:, 0].tobytes() == (target[:, 0] - v[:, 0]).tobytes()
    assert w[:, 1].tobytes() == ((target[:, 1] - v[:, 1]) * np.exp(-v[:, 0])).tobytes()


def test_the_derived_solver_reads_no_unsolved_coordinate():
    # 0 * w2 has the constant 0.0 as its derivative but still reads w2: a
    # NaN-filled, reused out must not leak into w1
    chart = _one_chart([["+", "v1", "w1", ["*", 0.0, "w2"]], ["+", "v2", ["*", ["exp", "v1"], "w2"]]])
    rng = np.random.default_rng(9)
    u, v, target = Planes(), split(rng.uniform(-1, 1, (6, 2))), split(rng.uniform(-1, 1, (6, 2)))
    out = [np.full(6, np.nan), np.full(6, np.nan)]
    kept = list(out)
    for _ in range(2):
        w = gl.solve_product(chart, u, v, target, out=out)
        assert all(a is b for a, b in zip(w, kept)) and np.all(np.isfinite(w))
        np.testing.assert_allclose(w[0], target[0] - v[0], rtol=1e-15)


def test_compose_deterministic(pair1):
    args = (np.array([0.11]), np.array([0.23]), np.array([-0.37]))
    first = gl.compose(pair1, *args)
    for _ in range(5):
        assert np.array_equal(gl.compose(pair1, *args), first)


def test_domain_violations_raise(pair1, heisenberg):
    with pytest.raises(DomainError):
        gl.compose(pair1, np.array([99.0]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(DomainError):
        gl.source_coords(pair1, np.array([9.9]), np.array([9.9]))  # u + v leaves the box
    with pytest.raises(DomainError):
        gl.compose(heisenberg, np.zeros(0), np.array([5.9, 5.9, 5.9]), np.array([5.9, -5.9, 5.9]))


# -- axiom validation ---------------------------------------------------------

@pytest.mark.parametrize("name, params", ALL_BUILTINS)
def test_builtins_pass_axioms(name, params):
    chart = gl.builtin_chart(name, **params)
    report = gl.validate_axioms(chart, sample_count=100, seed=2024)
    assert report.max_residual <= 1e-10
    assert report.min_unit_weight > 0
    assert report.inverse_checked > 0


def test_validate_axioms_deterministic(heisenberg):
    a = gl.validate_axioms(heisenberg, 50, seed=9).as_dict()
    b = gl.validate_axioms(heisenberg, 50, seed=9).as_dict()
    assert a == b


def test_corrupted_chart_fails_associativity():
    report = gl.validate_axioms(corrupted_chart(), sample_count=100, seed=2024)
    assert report.associativity > 1e-4
    # unit laws are untouched by the corruption
    assert report.left_unit <= 1e-12
    assert report.right_unit <= 1e-12


def test_corrupted_defect_matches_bruteforce_oracle():
    chart = corrupted_chart()
    v, w, z = 0.3, 0.25, -0.4
    u = np.array([0.0])
    left = chart.product(u, np.array([v]), chart.product(np.array([v]), np.array([w]), np.array([z])))
    right = chart.product(u, chart.product(u, np.array([v]), np.array([w])), np.array([z]))
    defect = abs(float(left[0] - right[0]))
    assert defect == pytest.approx(corrupted_associativity_defect(v, w, z), rel=1e-12)
    assert defect > 1e-5


def test_sampling_failure_raises():
    bad = gl.chart_from_spec(
        {
            "name": "always_out",
            "base_dim": 0,
            "fiber_dim": 1,
            "source_map": [],
            "product": [["+", "v1", "w1", 50.0]],
            "unit_weight": 1.0,
            "base_box": [],
            "fiber_box": [[-1.0, 1.0]],
        }
    )
    with pytest.raises(SamplingError):
        gl.validate_axioms(bad, sample_count=10, seed=0)


def test_expression_chart_matches_builtin(pair1):
    custom = gl.chart_from_spec(
        {
            "name": "pair1_expr",
            "base_dim": 1,
            "fiber_dim": 1,
            "source_map": [["+", "u1", "v1"]],
            "product": [["+", "v1", "w1"]],
            "inverse": [["neg", "v1"]],
            "unit_weight": 1.0,
            "base_box": [[-10.0, 10.0]],
            "fiber_box": [[-10.0, 10.0]],
        }
    )
    rng = np.random.default_rng(1)
    u = rng.uniform(-2, 2, (30, 1))
    v = rng.uniform(-2, 2, (30, 1))
    w = rng.uniform(-2, 2, (30, 1))
    np.testing.assert_allclose(custom.product(u, v, w), pair1.product(u, v, w))
    np.testing.assert_allclose(custom.source_map(u, v), pair1.source_map(u, v))
    report = gl.validate_axioms(custom, 50, seed=4)
    assert report.max_residual <= 1e-12


@given(
    v=st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
    w=st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
)
@settings(max_examples=50, deadline=None)
def test_heisenberg_product_solver_property(v, w):
    chart = gl.builtin_chart("heisenberg")
    v = np.array(v)
    target = np.array(w)
    solved = gl.solve_product(chart, np.zeros(0), v, target)
    np.testing.assert_allclose(chart.product(np.zeros(0), v, solved), target, atol=1e-12)

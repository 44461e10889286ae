import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import groupoidlab as gl
from groupoidlab import charts
from groupoidlab.errors import ConfigError
from groupoidlab.expressions import _fold, _neg, compile_expression, compile_vector, derivative

from conftest import CUSTOM_AX_PLUS_B
from test_deformation import CUSTOM_HEISENBERG, SINGULAR_AT_V1_ONE

CONFIGS = Path(__file__).parent.parent / "configs"


def test_constants_and_variables():
    f = compile_expression(["+", "u1", 2.5], 1, 1)
    assert f(u=np.array([0.5]), v=np.array([0.0])) == pytest.approx(3.0)
    g = compile_expression("v2", 0, 3)
    assert g(v=np.array([1.0, 7.0, -2.0])) == pytest.approx(7.0)


def test_vector_broadcasts_over_batches():
    f = compile_vector([["+", "v1", "w1"], ["*", "v2", ["exp", "w1"]]], 0, 2)
    v = np.random.default_rng(0).normal(size=(5, 4, 2))
    w = np.random.default_rng(1).normal(size=(5, 4, 2))
    out = f(v=v, w=w)
    assert out.shape == (5, 4, 2)
    np.testing.assert_allclose(out[..., 0], v[..., 0] + w[..., 0])
    np.testing.assert_allclose(out[..., 1], v[..., 1] * np.exp(w[..., 0]))


def test_vector_writes_coordinate_major_planes():
    trees = [["+", "v1", "w1"], ["*", "v2", ["exp", "w1"]], 2.0]
    f = compile_vector(trees, 0, 2)
    rng = np.random.default_rng(2)
    v, w = rng.normal(size=(5, 1, 2)), rng.normal(size=(1, 4, 2))
    got = f(v=v, w=w)
    assert got.shape == (5, 4, 3) and np.moveaxis(got, -1, 0).flags.c_contiguous
    for k, tree in enumerate(trees):
        assert got[..., k].tobytes() == compile_expression(tree, 0, 2)(v=v, w=w).tobytes()
    out = np.moveaxis(np.full((3, 5, 4), np.nan), 0, -1)
    assert f(v=v, w=w, out=out) is out and out.tobytes() == got.tobytes()


def test_unary_minus_and_division():
    f = compile_expression(["-", ["/", "u1", 4.0]], 1, 1)
    assert f(u=np.array([2.0])) == pytest.approx(-0.5)


@pytest.mark.parametrize(
    "tree, message",
    [
        ("q1", "unknown variable"),
        ("u3", "out of range"),
        (["pow", "u1", 2], "unknown operator"),
        (["exp"], "takes one argument"),
        (["+", "u1"], "at least two"),
        (True, "not valid"),
    ],
)
def test_malformed_trees_raise(tree, message):
    with pytest.raises(ConfigError, match=message):
        compile_expression(tree, 1, 1)


def test_missing_coordinate_group_raises():
    f = compile_expression("w1", 0, 1)
    with pytest.raises(ConfigError, match="needs coordinate group"):
        f(v=np.array([1.0]))


@st.composite
def trees(draw, depth=0, ops=("+", "*", "-", "neg", "exp", "sin", "cos"), constants=st.floats(-2, 2)):
    if depth >= 3 or draw(st.booleans()):
        return draw(
            st.one_of(
                constants.map(float),
                st.sampled_from(["u1", "v1", "w1"]),
            )
        )
    op = draw(st.sampled_from(ops))
    if op in ("neg", "exp", "sin", "cos"):
        return [op, draw(trees(depth + 1, ops, constants))]
    return [op, draw(trees(depth + 1, ops, constants)), draw(trees(depth + 1, ops, constants))]


def _reference_eval(tree, u, v, w):
    if isinstance(tree, float):
        return tree
    if isinstance(tree, str):
        return {"u": u, "v": v, "w": w}[tree[0]][int(tree[1:]) - 1]
    op, *args = tree
    vals = [_reference_eval(a, u, v, w) for a in args]
    table = {
        "+": lambda a, b: a + b,
        "*": lambda a, b: a * b,
        "-": lambda a, b=None: -a if b is None else a - b,
        "/": lambda a, b: a / b,
        "neg": lambda a: -a,
        "exp": np.exp,
        "sin": np.sin,
        "cos": np.cos,
    }
    return table[op](*vals)


@given(tree=trees(), point=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)))
@settings(max_examples=60, deadline=None)
def test_matches_reference_interpreter(tree, point):
    u, v, w = (np.array([c]) for c in point)
    compiled = compile_expression(tree, 1, 1)
    expected = _reference_eval(tree, u, v, w)
    got = compiled(u=u, v=v, w=w)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)


@given(
    tree=trees(
        ops=("+", "-", "*", "/", "neg", "exp", "sin", "cos"),
        constants=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0)),
    )
)
@settings(max_examples=200, deadline=None)
def test_compiles_to_a_config_error_or_a_batch_shaped_evaluator(tree):
    # any exception but ConfigError fails the test; overflow and 0/0 on arrays
    # are numbers (inf, nan), not exceptions
    u, v, w = (np.linspace(-1.0, 1.0, 6).reshape(2, 3, 1) + shift for shift in (0.0, 0.1, 0.2))
    with np.errstate(all="ignore"):
        try:
            compiled = compile_expression(tree, 1, 1)
        except ConfigError as exc:
            assert "division by a constant zero" in str(exc)
            return
        assert compiled(u=u, v=v, w=w).shape == (2, 3)


def test_derivative_rules():
    assert derivative(["+", "v1", ["*", ["exp", "v1"], "w2"]], "w2") == ["exp", "v1"]
    assert derivative(["*", "u1", "v1"], "w1") == 0.0
    assert derivative(["-", "w02"], "w2") == ["neg", 1.0]
    # the quotient's derivative divides by the original denominator, never its square
    assert derivative(["/", 1.0, "w1"], "w1") == ["/", ["neg", ["/", 1.0, "w1"]], "w1"]


def _rescanning_derivative(tree, name):
    """The derivative rules with a scan of each subtree for ``name`` at every level."""

    def uses(t):
        if isinstance(t, str):
            return t[:1] == name[:1] and int(t[1:]) == int(name[1:])
        return isinstance(t, (list, tuple)) and any(uses(a) for a in t[1:])

    if not uses(tree):
        return 0.0
    if isinstance(tree, str):
        return 1.0
    op, args = tree[0], list(tree[1:])
    d = [_rescanning_derivative(a, name) for a in args]
    if op == "neg" or (op == "-" and len(d) == 1):
        return _neg(d[0])
    if op in ("+", "-"):
        return _fold("+", d if op == "+" else [d[0], _neg(d[1])])
    if op == "*":
        return _fold("+", [_fold("*", args[:k] + [dk] + args[k + 1 :]) for k, dk in enumerate(d)])
    if op == "/":
        return ["/", _fold("+", [d[0], _neg(_fold("*", [tree, d[1]]))]), args[1]]
    outer = {"exp": tree, "sin": ["cos", args[0]], "cos": ["neg", ["sin", args[0]]]}[op]
    return _fold("*", [outer, d[0]])


CHART_BUILDS = {
    "pair(1)": lambda: gl.builtin_chart("pair", n=1),
    "pair(2)": lambda: gl.builtin_chart("pair", n=2),
    "abelian_bundle(1,2)": lambda: gl.builtin_chart("abelian_bundle", n=1, m=2),
    "heisenberg": lambda: gl.builtin_chart("heisenberg"),
    "ax_plus_b": lambda: gl.builtin_chart("ax_plus_b"),
    "custom_ax_plus_b": lambda: gl.chart_from_spec(CUSTOM_AX_PLUS_B),
    "custom_heisenberg": lambda: gl.chart_from_spec(CUSTOM_HEISENBERG),
    "singular_at_v1_one": lambda: gl.chart_from_spec(SINGULAR_AT_V1_ONE),
    "corrupted_pair": lambda: gl.chart_from_spec(
        json.loads((CONFIGS / "corrupted_validate.json").read_text())["chart"]["custom"]
    ),
    "cubic": lambda: gl.chart_from_spec(
        dict(SINGULAR_AT_V1_ONE, product=[["+", "v1", "w1", ["*", 0.4, "w1", "w1", "w1"]]])
    ),
}


@pytest.mark.parametrize("build", CHART_BUILDS.values(), ids=CHART_BUILDS)
def test_chart_derivative_trees_match_the_rescanning_rules(build, monkeypatch):
    # every w-Jacobian tree a chart build takes, built-in or spec, is the tree
    # of the rules applied with a rescan of each subtree
    taken = []
    def spy(tree, name):
        taken.append((tree, name))
        return derivative(tree, name)

    monkeypatch.setattr(charts, "derivative", spy)
    build()
    assert taken
    for tree, name in taken:
        assert derivative(tree, name) == _rescanning_derivative(tree, name)


@given(
    tree=trees(ops=("+", "-", "*", "/", "neg", "exp", "sin", "cos"), constants=st.sampled_from([0.0, 1.0, 2.5]))
)
@settings(max_examples=200, deadline=None)
def test_derivative_trees_match_the_rescanning_rules(tree):
    for name in ("u1", "v1", "w1"):
        assert derivative(tree, name) == _rescanning_derivative(tree, name)


def _complex_step(tree, point, name, h=2.0**-100):
    """``d tree / d name`` at ``point`` (u1, v1, w1) from ``Im tree(x + ih) / h``."""
    z = [complex(c) for c in point]
    z["uvw".index(name[0])] += h * 1j
    return float(np.imag(_reference_eval(tree, *(np.array([c]) for c in z)))) / h


def _term_scale(tree, point, name, factor=1.0):
    """Largest term summed into the derivative of any subtree, times the ``*`` and ``/``
    factors that multiply that subtree's derivative on the way up to ``tree``: the
    scale of its rounding error in the derivative of ``tree``."""
    if not isinstance(tree, list):
        return 0.0
    op, *args = tree
    d = [_complex_step(a, point, name) for a in args]
    value = lambda t: np.squeeze(_reference_eval(t, *(np.array([c]) for c in point)).real)
    factors = [1.0] * len(args)
    if op == "*":
        terms = [d[0] * value(args[1]), d[1] * value(args[0])]
        factors = [abs(value(args[1])), abs(value(args[0]))]
    elif op == "/":
        terms = [d[0] / value(args[1]), value(tree) * d[1] / value(args[1])]
        factors = [1.0 / abs(value(args[1])), abs(value(tree) / value(args[1]))]
    elif op in ("+", "-", "neg"):
        terms = d
    else:
        terms = [_complex_step(tree, point, name)]
    return np.max(
        [factor * abs(t) for t in terms]
        + [_term_scale(a, point, name, factor * f) for a, f in zip(args, factors)]
    )


def _not_tiny(x):
    # the complex step scales every derivative by h = 2^-100; below 1e-30 the
    # products of a few such magnitudes with h underflow, outside the reference's domain
    return x == 0.0 or abs(x) >= 1e-30


@given(
    tree=trees(
        ops=("+", "-", "*", "/", "neg", "exp", "sin", "cos"),
        constants=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0).filter(_not_tiny)),
    ),
    point=st.tuples(*[st.floats(-1, 1).filter(_not_tiny)] * 3),
)
@example(  # the reference's roundoff in d(v1 / v1), divided by 2.8e-9
    tree=["+", ["/", ["/", "v1", "v1"], 2.8196662876484784e-09], 0.0], point=(0.0, 0.41796875, 0.0)
)
@settings(max_examples=200, deadline=None)
def test_derivative_trees_compile_and_match_the_complex_step(tree, point):
    # the derivative of every tree that compiles compiles.  Where the tree, its
    # terms and the complex step of the independent interpreter are finite and
    # the step is settled, the two agree to 1e-10 of the largest term the
    # derivative sums (times the factors above it, see _term_scale), or to
    # 1e-250 where h * d underflows in both steps.
    # Settled: a step of 2^-40 gives the same value (steps are powers of two,
    # so in the linear regime they scale exactly); it does not when a
    # singularity lies within the step or an intermediate h * d underflows.
    try:
        compile_expression(tree, 1, 1)
    except ConfigError:
        return
    u, v, w = (np.array([c]) for c in point)
    with np.errstate(all="ignore"):
        finite_tree = np.all(np.isfinite(_reference_eval(tree, u, v, w)))
    for name in ("u1", "v1", "w1"):
        compiled = compile_expression(derivative(tree, name), 1, 1)
        with np.errstate(all="ignore"):
            got = float(compiled(u=u, v=v, w=w))
            expected = _complex_step(tree, point, name)
            scale = np.max([abs(expected), _term_scale(tree, point, name)])
            settled = abs(_complex_step(tree, point, name, 2.0**-40) - expected) <= 1e-12 * abs(expected)
        if finite_tree and np.isfinite(scale) and settled:
            assert abs(got - expected) <= 1e-10 * scale + 1e-250

"""Tiny expression-tree language used to define charts in JSON configs.

A tree is one of

* a number  -> constant,
* a string  -> coordinate variable ``"u1".."un"``, ``"v1".."vm"``, ``"w1".."wm"``
  (1-based component index),
* a list    -> ``[op, arg, ...]`` with op in ``+ - * / neg exp sin cos``.

``+`` and ``*`` accept two or more arguments, ``-`` is binary (or unary as
negation), ``/`` is binary, ``neg exp sin cos`` are unary.  Trees are compiled
to closures that evaluate vectorized over the coordinate groups: each group is
a numpy array whose last axis holds the components, or :class:`Planes`, one
array per component, which broadcast against each other.  Every node is
evaluated at the broadcast shape of the components it reads, so a subtree
that reads few grid axes costs only their size.  An operation writes into its
caller's array where that has the node's shape, else into a new array.
:func:`derivative` differentiates a tree exactly into another tree, and
:func:`compile_solver` solves a product that is affine and triangular in w.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, SingularJacobianError

_UNARY = {"neg": np.negative, "exp": np.exp, "sin": np.sin, "cos": np.cos}
# n-ary operators, applied left to right
_CHAINED = {"+": np.add, "*": np.multiply, "-": np.subtract, "/": np.divide}


def _parse_variable(name: str, dims: dict[str, int]):
    prefix, index = name[:1], name[1:]
    if prefix not in dims or not index.isdigit():
        raise ConfigError([f"unknown variable {name!r} in expression"])
    component = int(index) - 1
    if not 0 <= component < dims[prefix]:
        raise ConfigError(
            [f"variable {name!r} out of range: {prefix} has {dims[prefix]} component(s)"]
        )
    return prefix, component


class Planes(tuple):
    """Coordinate components as separate float64 arrays that broadcast against each other.

    ``shape`` is their broadcast shape followed by the number of components,
    the shape of the ``(..., m)`` array they stand for, so ``np.shape`` reads
    a Planes as it reads that array.
    """

    __slots__ = ()

    @property
    def shape(self) -> tuple:
        return _broadcast(tuple(p.shape for p in self)) + (len(self),)


def split(points) -> Planes:
    """``points`` as :class:`Planes`: as given, or the components ``[..., k]`` of a ``(..., m)`` array."""
    if isinstance(points, Planes):
        return points
    points = np.asarray(points, dtype=float)
    return Planes(points[..., k] for k in range(points.shape[-1]))


def stack(planes, batch: tuple) -> np.ndarray:
    """Arrays ``planes`` broadcast to ``batch`` in a new C-order ``batch + (len(planes),)`` array."""
    full = np.empty(batch + (len(planes),))
    for k, plane in enumerate(planes):
        full[..., k] = plane
    return full


def compile_expression(tree, base_dim: int, fiber_dim: int, slots: str = "uvw"):
    """Compile a tree to ``f(u, v, w)``: the one component of :func:`compile_vector`.

    Given ``(..., dim)`` arrays the value is a ``(...)`` array, given
    :class:`Planes` an array of the shape of the components the tree reads.
    ``slots`` limits which coordinate groups may appear, e.g. ``"u"`` for a
    weight expression that must only depend on the base point.
    """
    vector = compile_vector([tree], base_dim, fiber_dim, slots)
    return lambda u=None, v=None, w=None: split(vector(u, v, w))[0]


class _Node(NamedTuple):
    """A compiled tree: ``run(env)`` of a leaf gives its value, ``run(env, dest)`` of an
    operation writes ``dest``, an array of the broadcast shape of the components ``uses``
    (sorted ``(group, index)`` pairs)."""

    uses: tuple
    leaf: bool
    run: Callable


@functools.lru_cache(maxsize=64)
def _broadcast(shapes: tuple) -> tuple:
    return np.broadcast_shapes(*shapes)


def _shape(node: _Node, env: dict) -> tuple:
    """The broadcast shape of the components ``node`` reads, kept in ``env``."""
    shape = env.get(node.uses)
    if shape is None:
        shape = env[node.uses] = _broadcast(tuple(env[s][k].shape for s, k in node.uses))
    return shape


def _run(node: _Node, env: dict, dest=None):
    """Value of ``node``: a leaf's own (a float or a coordinate plane), else written into
    ``dest`` when that has the node's shape, else into a new array."""
    if node.leaf:
        return node.run(env)
    shape = _shape(node, env)
    return node.run(env, dest if dest is not None and dest.shape == shape else np.empty(shape))


def _chain(ufunc, args: list) -> Callable:
    """``run`` of ``((a0 op a1) op a2) ...``: a0 or a1 goes into ``dest``, the others into new arrays."""

    def run(env, dest):
        acc = None
        for arg in args:
            value = _run(arg, env, None if acc is dest else dest)
            acc = value if acc is None else ufunc(acc, value, out=dest)
        return acc

    return run


def _compile_body(tree, base_dim: int, fiber_dim: int, slots: str) -> _Node:
    """The :class:`_Node` of a tree; it evaluates to an array that broadcasts to the batch shape."""
    dims = {slot: base_dim if slot == "u" else fiber_dim for slot in slots}

    def build(node) -> _Node:
        if isinstance(node, bool):
            raise ConfigError(["booleans are not valid expression constants"])
        if isinstance(node, (int, float)):
            value = float(node)
            return _Node((), True, lambda env: value)
        if isinstance(node, str):
            variable = _parse_variable(node, dims)
            prefix, component = variable
            return _Node((variable,), True, lambda env: env[prefix][component])
        if not isinstance(node, (list, tuple)) or not node or not isinstance(node[0], str):
            raise ConfigError([f"malformed expression node {node!r}"])
        op, args = node[0], [build(a) for a in node[1:]]
        uses = tuple(sorted({v for a in args for v in a.uses}))
        if op in _UNARY or (op == "-" and len(args) == 1):
            if len(args) != 1:
                raise ConfigError([f"operator {op!r} takes one argument"])
            fn, (arg,) = _UNARY.get(op, np.negative), args
            return _Node(uses, False, lambda env, dest: fn(_run(arg, env, dest), out=dest))
        if op not in _CHAINED:
            raise ConfigError([f"unknown operator {op!r}"])
        if op in "+*" and len(args) < 2:
            raise ConfigError([f"operator {op!r} takes at least two arguments"])
        if op in "-/" and len(args) != 2:
            raise ConfigError([f"operator {op!r} takes {'one or two' if op == '-' else 'two'} arguments"])
        # a constant denominator is evaluated here, where it would give inf/nan later
        if op == "/" and not args[1].uses and _run(args[1], {}) == 0.0:
            raise ConfigError([f"division by a constant zero in expression {node!r}"])
        # a sum runs (a1 + a2 + ...) + a0
        return _Node(uses, False, _chain(_CHAINED[op], args[1:] + args[:1] if op == "+" else args))

    return build(tree)


def _environment(trees, slots: str, u, v, w) -> dict:
    """The coordinate groups by slot, as :class:`Planes`; ConfigError where a tree reads an absent one."""
    env = {"u": u, "v": v, "w": w}
    missing = [s for s in slots if env[s] is None and any(_tree_uses(t, s) for t in trees)]
    if missing:
        raise ConfigError([f"expression needs coordinate group(s) {missing}"])
    return {s: None if a is None else split(a) for s, a in env.items()}


def _tree_uses(tree, name: str) -> bool:
    if isinstance(tree, str):
        return tree[:1] == name[:1] and (len(name) == 1 or int(tree[1:]) == int(name[1:]))
    if isinstance(tree, (list, tuple)):
        return any(_tree_uses(a, name) for a in tree[1:])
    return False


def derivative(tree, name: str):
    """Tree of the partial derivative of a compilable ``tree`` in variable ``name``, e.g. ``"w2"``.

    A subtree free of ``name`` differentiates to ``0.0``; zero terms and unit
    factors are left out.  ``n / m`` differentiates to
    ``(n' - (n / m) * m') / m``, so every denominator of a derivative tree is
    one of ``tree``'s: the derivative of every tree that compiles compiles.
    """
    result = _derivative(tree, name)
    return 0.0 if result is None else result


def _derivative(tree, name: str):
    """:func:`derivative`, or None where ``tree`` is free of ``name``: each subtree is visited once."""
    if isinstance(tree, str):
        return 1.0 if _tree_uses(tree, name) else None
    if not isinstance(tree, (list, tuple)):
        return None
    op, args = tree[0], list(tree[1:])
    d = [_derivative(a, name) for a in args]
    if all(dk is None for dk in d):
        return None
    d = [0.0 if dk is None else dk for dk in d]
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


def _fold(op: str, args: list):
    """``[op, *args]`` for ``op`` in ``+ *`` without neutral elements; a zero factor gives 0."""
    if op == "*" and any(a == 0.0 for a in args):
        return 0.0
    neutral = 0.0 if op == "+" else 1.0
    args = [a for a in args if a != neutral]
    return [op, *args] if len(args) > 1 else (args or [neutral])[0]


def _neg(tree):
    return 0.0 if tree == 0.0 else ["neg", tree]


def _reused(out, k: int, shape: tuple) -> np.ndarray:
    """``out[k]`` where it has ``shape``, else a new array that replaces it in the list ``out`` (or None)."""
    if out is None:
        return np.empty(shape)
    if out[k] is None or out[k].shape != shape:
        out[k] = np.empty(shape)
    return out[k]


def _result(values: list, groups: tuple):
    """The components ``values`` as :class:`Planes` where a group is, else stacked to the
    broadcast batch shape (all axes but the last) of the groups given."""
    if any(isinstance(a, Planes) for a in groups):
        return Planes(values)
    return stack(values, np.broadcast_shapes(*(np.shape(a)[:-1] for a in groups if a is not None)))


def compile_vector(trees, base_dim: int, fiber_dim: int, slots: str = "uvw"):
    """Compile a list of trees into ``f(u, v, w, *, out=None)``.

    Each tree is evaluated per component, at the broadcast shape of the
    components it reads.  Where a group is :class:`Planes`, the result is
    Planes, component ``k`` an array of that shape.  ``out`` is a list of
    arrays (or Nones), one per component: component ``k`` is written into
    ``out[k]`` where that has its shape, else into a new array that replaces
    ``out[k]``, so a caller that passes one list for many batches of one
    shape allocates once.  ``out`` must not overlap ``u``, ``v`` or ``w``.
    Where every group given is a ``(..., dim)`` array, the result is a new
    C-order ``(..., len(trees))`` array that spans the batch shape of them
    all, also where a tree reads none of them.  Temporaries are new arrays.
    """
    bodies = [_compile_body(t, base_dim, fiber_dim, slots) for t in trees]

    def evaluate(u=None, v=None, w=None, *, out=None):
        env = _environment(trees, slots, u, v, w)
        values = []
        for k, body in enumerate(bodies):
            dest = _reused(out, k, _shape(body, env))
            value = _run(body, env, dest)
            if value is not dest:
                dest[...] = value
            values.append(dest)
        return _result(values, (u, v, w))

    return evaluate


def compile_solver(trees, jacobian, base_dim: int, fiber_dim: int):
    """``solve(u, v, target, *, out=None)`` of ``product(u, v, w) = target`` by forward substitution, or None.

    ``trees`` are the product's, one per fiber coordinate, and
    ``jacobian[i][l]`` is the :func:`derivative` of ``trees[i]`` in w_(l+1).
    The solver exists when these show the product affine in w with a lower
    triangular w-Jacobian ``J``: no derivative tree reads w, those above the
    diagonal are the constant 0.0 and none on it is.  Then, in order of i,
    ``w_i = (target_i - p_i|_{w_j = 0, j >= i}) / J_ii``, without the division
    where ``J_ii`` is the constant 1.  The division multiplies by ``1 / J_ii``,
    evaluated at its own shape (``J`` reads no w) with ``1 / exp(x)`` as
    ``exp(-x)``; where that is not finite, ``J_ii`` vanishes and the solve
    raises SingularJacobianError.  ``w_i`` is solved at the broadcast shape
    of ``target_i`` and of the components the two trees read.  The result
    and ``out`` are as in :func:`compile_vector`.
    """
    m = fiber_dim
    if any(_tree_uses(d, "w") for row in jacobian for d in row) or any(
        jacobian[i][l] == 0.0 if l == i else jacobian[i][l] != 0.0 for i in range(m) for l in range(i, m)
    ):
        return None
    rests = [_compile_body(_without_w(p, i), base_dim, m, "uvw") for i, p in enumerate(trees)]
    diagonal = [row[i] for i, row in enumerate(jacobian)]
    recips = [None if d == 1.0 else _compile_body(_reciprocal(d), base_dim, m, "uvw") for d in diagonal]

    def solve(u, v, target, *, out=None):
        targets, ws = split(target), []
        env = {"u": split(u), "v": split(v), "w": ws}  # w_j, j < i, are solved when row i reads them
        for i, (rest, recip) in enumerate(zip(rests, recips)):
            shapes = [targets[i].shape, _shape(rest, env)] + ([] if recip is None else [_shape(recip, env)])
            w = _reused(out, i, _broadcast(tuple(shapes)))
            np.subtract(targets[i], _run(rest, env, w), out=w)
            if recip is not None:
                with np.errstate(divide="ignore"):  # 1 / 0 is inf: a vanishing J_ii, raised below
                    r = _run(recip, env)
                if not np.all(np.isfinite(r)):
                    raise SingularJacobianError(f"product solve: d p{i + 1} / d w{i + 1} vanishes")
                np.multiply(w, r, out=w)
            ws.append(w)
        return _result(ws, (u, v, target))

    return solve


def _reciprocal(tree):
    return ["exp", _neg(tree[1])] if isinstance(tree, list) and tree[0] == "exp" else ["/", 1.0, tree]


def _without_w(tree, first: int):
    """``tree`` with ``w_j = 0`` for every 0-based ``j >= first``; zero terms and products fold away."""
    if isinstance(tree, str):
        return 0.0 if tree[0] == "w" and int(tree[1:]) > first else tree
    if not isinstance(tree, (list, tuple)):
        return tree
    args = [_without_w(a, first) for a in tree[1:]]
    return _fold(tree[0], args) if tree[0] in ("+", "*") else [tree[0], *args]

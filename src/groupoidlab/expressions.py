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
caller's array or into scratch that each thread reuses as a stack.
:func:`derivative` differentiates a tree exactly into another tree, and
:func:`compile_solver` solves a product that is affine and triangular in w.
"""

from __future__ import annotations

import functools
import math
import threading
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


def compile_expression(tree, base_dim: int, fiber_dim: int, slots: str = "uvw"):
    """Compile a tree to ``f(u, v, w)`` acting on (..., dim) arrays.

    ``slots`` limits which coordinate groups may appear, e.g. ``"u"`` for a
    weight expression that must only depend on the base point.
    """
    body = _compile_body(tree, base_dim, fiber_dim, slots)

    def evaluate(u=None, v=None, w=None):
        value = _run(body, _environment([tree], slots, u, v, w))
        # The result spans the batch shape of every array present, also where
        # the tree reads only some of them (or none: a constant).
        batch = _batch_shape(u, v, w)
        return np.array(value, dtype=float) if batch is None else np.broadcast_to(value, batch).copy()

    return evaluate


class _Node(NamedTuple):
    """A compiled tree: ``run(env)`` of a leaf gives its value, ``run(env, dest, top)`` of an
    operation writes ``dest``, an array of the broadcast shape of the components ``uses``
    (sorted ``(group, index)`` pairs)."""

    uses: tuple
    leaf: bool
    run: Callable


_SCRATCH = threading.local()


def _scratch(top: int, shape: tuple) -> np.ndarray:
    """``shape`` float64 array at offset ``top`` of this thread's scratch: a stack that only
    grows, so it keeps what one tree evaluation held live at once."""
    size, buffer = math.prod(shape), getattr(_SCRATCH, "buffer", None)
    if buffer is None or buffer.size < top + size:
        buffer = _SCRATCH.buffer = np.empty(top + size)
    return buffer[top : top + size].reshape(shape)


@functools.lru_cache(maxsize=64)
def _broadcast(shapes: tuple) -> tuple:
    return np.broadcast_shapes(*shapes)


def _shape(node: _Node, env: dict) -> tuple:
    """The broadcast shape of the components ``node`` reads, kept in ``env``."""
    shape = env.get(node.uses)
    if shape is None:
        shape = env[node.uses] = _broadcast(tuple(env[s][k].shape for s, k in node.uses))
    return shape


def _run(node: _Node, env: dict, dest=None, top: int = 0):
    """Value of ``node``: a leaf's own (a float or a coordinate plane), else written into
    ``dest`` when that has the node's shape, else into scratch from ``top``."""
    if node.leaf:
        return node.run(env)
    shape = _shape(node, env)
    if dest is None or dest.shape != shape:
        dest = _scratch(top, shape)
        top += dest.size
    return node.run(env, dest, top)


def _chain(ufunc, args: list) -> Callable:
    """``run`` of ``((a0 op a1) op a2) ...``: a0 or a1 goes into ``dest``, the others into scratch."""

    def run(env, dest, top):
        acc, held = None, 0
        for arg in args:
            value = _run(arg, env, None if acc is dest else dest, top + held)
            if acc is None:
                acc, held = value, 0 if arg.leaf or value is dest else value.size
            else:
                acc, held = ufunc(acc, value, out=dest), 0
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
            return _Node(uses, False, lambda env, dest, top: fn(_run(arg, env, dest, top), out=dest))
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


def _batch_shape(*arrays):
    """Broadcast batch shape (all axes but the last) of the arrays given, or None."""
    present = [np.shape(a)[:-1] for a in arrays if a is not None]
    return np.broadcast_shapes(*present) if present else None


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


def _planes(count: int, batch: tuple) -> np.ndarray:
    """A ``batch + (count,)`` float64 array whose last axis is outermost in memory."""
    return np.moveaxis(np.empty((count,) + batch), 0, -1)


def _reused(out, k: int, shape: tuple) -> np.ndarray:
    """``out[k]`` where it has ``shape``, else a new array that replaces it in the list ``out`` (or None)."""
    if out is None:
        return np.empty(shape)
    if out[k] is None or out[k].shape != shape:
        out[k] = np.empty(shape)
    return out[k]


def compile_vector(trees, base_dim: int, fiber_dim: int, slots: str = "uvw"):
    """Compile a list of trees into ``f(u, v, w, *, out=None)``.

    Where every group given is an array, the result is ``(..., len(trees))``:
    component ``k`` is written into plane ``k`` of one ``(len(trees),) +
    batch`` float64 array, so the result is a view whose coordinate axis is
    outermost in memory; a caller that evaluates many batches of one shape
    passes such a view (or any float64 array of the result's shape) as
    ``out`` and gets it back.  Where a group is :class:`Planes`, the result is
    Planes, component ``k`` an array of the broadcast shape of the components
    its tree reads; ``out`` is then a list of arrays (or Nones), one per
    component: component ``k`` is written into ``out[k]`` where that has its
    shape, else into a new array that replaces ``out[k]``, so a caller that
    passes one list for many batches of one shape allocates once.  ``out``
    must not overlap ``u``, ``v`` or ``w``.  Each tree is evaluated into its
    component; its temporaries come from scratch that this thread keeps and
    reuses, so a call with ``out`` allocates no array of the batch shape.
    """
    bodies = [_compile_body(t, base_dim, fiber_dim, slots) for t in trees]

    def evaluate(u=None, v=None, w=None, *, out=None):
        env = _environment(trees, slots, u, v, w)
        planes = any(isinstance(a, Planes) for a in (u, v, w))
        if not planes and out is None:
            batch = _batch_shape(u, v, w)
            out = _planes(len(trees), () if batch is None else batch)
        values = []
        for k, body in enumerate(bodies):
            dest = _reused(out, k, _shape(body, env)) if planes else out[..., k]
            value = _run(body, env, dest)
            if value is not dest:
                dest[...] = value
            values.append(dest)
        return Planes(values) if planes else out

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
    raises SingularJacobianError.  Given :class:`Planes`, ``w_i`` has the
    broadcast shape of ``target_i`` and of the components the two trees
    read.  The result and ``out`` are as in :func:`compile_vector`.
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
        planes = any(isinstance(a, Planes) for a in (u, v, target))
        if not planes and out is None:
            out = _planes(m, np.broadcast_shapes(*(np.shape(a)[:-1] for a in (u, v, target))))
        target, ws = split(target), []
        env = {"u": split(u), "v": split(v), "w": ws}  # w_j, j < i, are solved when row i reads them
        for i, (rest, recip) in enumerate(zip(rests, recips)):
            if planes:
                shapes = [target[i].shape, _shape(rest, env)] + ([] if recip is None else [_shape(recip, env)])
                w = _reused(out, i, _broadcast(tuple(shapes)))
            else:
                w = out[..., i]
            np.subtract(target[i], _run(rest, env, w), out=w)
            if recip is not None:
                with np.errstate(divide="ignore"):  # 1 / 0 is inf: a vanishing J_ii, raised below
                    r = _run(recip, env)
                if not np.all(np.isfinite(r)):
                    raise SingularJacobianError(f"product solve: d p{i + 1} / d w{i + 1} vanishes")
                np.multiply(w, r, out=w)
            ws.append(w)
        return Planes(ws) if planes else out

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

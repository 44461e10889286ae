"""Tiny expression-tree language used to define charts in JSON configs.

A tree is one of

* a number  -> constant,
* a string  -> coordinate variable ``"u1".."un"``, ``"v1".."vm"``, ``"w1".."wm"``
  (1-based component index),
* a list    -> ``[op, arg, ...]`` with op in ``+ - * / neg exp sin cos``.

``+`` and ``*`` accept two or more arguments, ``-`` is binary (or unary as
negation), ``/`` is binary, ``neg exp sin cos`` are unary.  Trees are compiled
to closures that evaluate vectorized over numpy arrays whose last axis holds
the coordinate components.  :func:`derivative` differentiates a tree exactly
into another tree.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_UNARY = {
    "neg": np.negative,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
}


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


def compile_expression(tree, base_dim: int, fiber_dim: int, slots: str = "uvw"):
    """Compile a tree to ``f(u, v, w)`` acting on (..., dim) arrays.

    ``slots`` limits which coordinate groups may appear, e.g. ``"u"`` for a
    weight expression that must only depend on the base point.
    """
    body = _compile_body(tree, base_dim, fiber_dim, slots)

    def evaluate(u=None, v=None, w=None):
        env = _environment([tree], slots, u, v, w)
        out = np.asarray(body(env), dtype=float)
        # The result spans the batch shape of every array present, also where
        # the tree reads only some of them (or none: a constant).
        batch = _batch_shape(u, v, w)
        return out if batch is None else np.broadcast_to(out, batch).copy()

    return evaluate


def _compile_body(tree, base_dim: int, fiber_dim: int, slots: str):
    """Closure ``body(env)`` of a tree: a float or an array that broadcasts to the batch shape."""
    dims = {}
    for slot in slots:
        dims[slot] = base_dim if slot == "u" else fiber_dim

    def build(node):
        if isinstance(node, bool):
            raise ConfigError(["booleans are not valid expression constants"])
        if isinstance(node, (int, float)):
            value = float(node)
            return lambda env: value
        if isinstance(node, str):
            prefix, component = _parse_variable(node, dims)
            return lambda env: env[prefix][..., component]
        if isinstance(node, (list, tuple)):
            if not node or not isinstance(node[0], str):
                raise ConfigError([f"malformed expression node {node!r}"])
            op, args = node[0], [build(a) for a in node[1:]]
            if op in _UNARY:
                if len(args) != 1:
                    raise ConfigError([f"operator {op!r} takes one argument"])
                fn, (arg,) = _UNARY[op], args
                return lambda env: fn(arg(env))
            if op == "+":
                if len(args) < 2:
                    raise ConfigError(["operator '+' takes at least two arguments"])
                return lambda env: sum(a(env) for a in args[1:]) + args[0](env)
            if op == "*":
                if len(args) < 2:
                    raise ConfigError(["operator '*' takes at least two arguments"])

                def product(env, args=args):
                    out = args[0](env)
                    for a in args[1:]:
                        out = out * a(env)
                    return out

                return product
            if op == "-":
                if len(args) == 1:
                    (arg,) = args
                    return lambda env: -arg(env)
                if len(args) == 2:
                    left, right = args
                    return lambda env: left(env) - right(env)
                raise ConfigError(["operator '-' takes one or two arguments"])
            if op == "/":
                if len(args) != 2:
                    raise ConfigError(["operator '/' takes two arguments"])
                num, den = args
                # a constant denominator is evaluated here: Python floats
                # raise on division by zero where numpy arrays give inf/nan
                if not any(_tree_uses(node[2], slot) for slot in "uvw") and den(None) == 0.0:
                    raise ConfigError([f"division by a constant zero in expression {node!r}"])
                return lambda env: num(env) / den(env)
            raise ConfigError([f"unknown operator {op!r}"])
        raise ConfigError([f"malformed expression node {node!r}"])

    return build(tree)


def _environment(trees, slots: str, u, v, w) -> dict:
    """The coordinate groups by slot, raising ConfigError when a tree reads one that is absent."""
    env = {"u": u, "v": v, "w": w}
    missing = [s for s in slots if env[s] is None and any(_tree_uses(t, s) for t in trees)]
    if missing:
        raise ConfigError([f"expression needs coordinate group(s) {missing}"])
    return env


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
    if not _tree_uses(tree, name):
        return 0.0
    if isinstance(tree, str):
        return 1.0
    op, args = tree[0], list(tree[1:])
    d = [derivative(a, name) for a in args]
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


def compile_vector(trees, base_dim: int, fiber_dim: int, slots: str = "uvw"):
    """Compile a list of trees into ``f(u, v, w, *, out=None) -> (..., len(trees))``.

    Component ``k`` is written into plane ``k`` of one ``(len(trees),) +
    batch`` float64 array, so the result is a view whose coordinate axis is
    outermost in memory; a caller that evaluates many batches of one shape
    passes such a view (or any float64 array of the result's shape) as
    ``out``, which must not overlap ``u``, ``v`` or ``w``, and gets it back.
    """
    bodies = [_compile_body(t, base_dim, fiber_dim, slots) for t in trees]

    def evaluate(u=None, v=None, w=None, *, out=None):
        env = _environment(trees, slots, u, v, w)
        if out is None:
            batch = _batch_shape(u, v, w)
            planes = np.empty((len(trees),) + (() if batch is None else batch))
            out = np.moveaxis(planes, 0, -1)
        for k, body in enumerate(bodies):
            out[..., k] = body(env)
        return out

    return evaluate

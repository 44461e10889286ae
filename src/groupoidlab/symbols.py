"""Analytic test symbols: finite sums of Gaussian-weighted monomials.

A term is ``coeff * x^p * xi^q * exp(-sum a_k (x_k - xc_k)^2
- sum b_l (xi_l - xic_l)^2)`` with all widths positive.  The class is closed
under partial derivatives in every coordinate and under multiplication by a
fiber coordinate, which is exactly what the bracket evaluation needs; those
operations are exact, only convolutions are ever numerical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DecayWarning, json_number
from .expressions import _broadcast, split
from .grids import GridSpec, SampledSymbol, _validated_make, boundary_fraction

DECAY_THRESHOLD = 1e-12


class _TermFields(NamedTuple):
    coeff: complex
    x_powers: tuple[int, ...]
    xi_powers: tuple[int, ...]
    x_widths: tuple[float, ...]
    x_centers: tuple[float, ...]
    xi_widths: tuple[float, ...]
    xi_centers: tuple[float, ...]


class SymbolTerm(_TermFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(w <= 0 for w in self.x_widths) or any(w <= 0 for w in self.xi_widths):
            raise ValueError("Gaussian widths must be positive")
        if any(p < 0 for p in self.x_powers) or any(p < 0 for p in self.xi_powers):
            raise ValueError("monomial powers must be nonnegative")
        return self

    _make = classmethod(_validated_make)


@dataclass(frozen=True)
class SymbolSpec:
    """Finite sum of Gaussian-polynomial terms on base dim n, fiber dim m."""

    base_dim: int
    fiber_dim: int
    terms: tuple[SymbolTerm, ...]

    # -- construction --------------------------------------------------------
    @staticmethod
    def zero(base_dim: int, fiber_dim: int) -> "SymbolSpec":
        return SymbolSpec(base_dim, fiber_dim, ())

    @staticmethod
    def gaussian(
        base_dim: int,
        fiber_dim: int,
        coeff: complex = 1.0,
        x_powers: Sequence[int] | None = None,
        xi_powers: Sequence[int] | None = None,
        x_widths: Sequence[float] | float = 1.0,
        xi_widths: Sequence[float] | float = 1.0,
        x_centers: Sequence[float] | float = 0.0,
        xi_centers: Sequence[float] | float = 0.0,
    ) -> "SymbolSpec":
        """Single-term symbol with broadcastable scalar arguments."""

        def tup(value, dim, cast):
            if np.isscalar(value):
                return tuple(cast(value) for _ in range(dim))
            out = tuple(cast(v) for v in value)
            if len(out) != dim:
                raise ValueError(f"expected {dim} entries, got {len(out)}")
            return out

        term = SymbolTerm(
            coeff=complex(coeff),
            x_powers=tup(x_powers if x_powers is not None else 0, base_dim, int),
            xi_powers=tup(xi_powers if xi_powers is not None else 0, fiber_dim, int),
            x_widths=tup(x_widths, base_dim, float),
            x_centers=tup(x_centers, base_dim, float),
            xi_widths=tup(xi_widths, fiber_dim, float),
            xi_centers=tup(xi_centers, fiber_dim, float),
        )
        return SymbolSpec(base_dim, fiber_dim, (term,))

    # -- algebra --------------------------------------------------------------
    def __add__(self, other: "SymbolSpec") -> "SymbolSpec":
        if (other.base_dim, other.fiber_dim) != (self.base_dim, self.fiber_dim):
            raise ValueError("symbol dimensions differ")
        return SymbolSpec(self.base_dim, self.fiber_dim, self.terms + other.terms).merged()

    def __sub__(self, other: "SymbolSpec") -> "SymbolSpec":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex) -> "SymbolSpec":
        factor = complex(factor)
        return replace(self, terms=tuple(t._replace(coeff=t.coeff * factor) for t in self.terms))

    def merged(self) -> "SymbolSpec":
        """Combine terms with identical monomial and Gaussian data."""
        acc: dict = {}
        order: list = []
        for t in self.terms:
            key = t[1:]  # the monomial and Gaussian data
            if key in acc:
                acc[key] += t.coeff
            else:
                acc[key] = t.coeff
                order.append(key)
        terms = tuple(
            SymbolTerm(acc[key], *key) for key in order if acc[key] != 0
        )
        return SymbolSpec(self.base_dim, self.fiber_dim, terms)

    # -- calculus ---------------------------------------------------------------
    def fiber_multiply(self, index: int) -> "SymbolSpec":
        """Multiply by the fiber coordinate ``xi_index`` (exact)."""
        if not 0 <= index < self.fiber_dim:
            raise IndexError("fiber index out of range")
        terms = []
        for t in self.terms:
            q = list(t.xi_powers)
            q[index] += 1
            terms.append(t._replace(xi_powers=tuple(q)))
        return replace(self, terms=tuple(terms))

    def derivative(self, kind: str, index: int) -> "SymbolSpec":
        """Exact partial derivative; ``kind`` is ``"x"`` or ``"xi"``."""
        if kind not in ("x", "xi"):
            raise ValueError("kind must be 'x' or 'xi'")
        dim = self.base_dim if kind == "x" else self.fiber_dim
        if not 0 <= index < dim:
            raise IndexError(f"{kind} index out of range")
        out: list[SymbolTerm] = []
        for t in self.terms:
            powers = getattr(t, f"{kind}_powers")
            p = powers[index]
            a = getattr(t, f"{kind}_widths")[index]
            c0 = getattr(t, f"{kind}_centers")[index]

            def rebuild(coeff, new_power):
                new_powers = powers[:index] + (new_power,) + powers[index + 1 :]
                return t._replace(coeff=coeff, **{f"{kind}_powers": new_powers})

            if p > 0:
                out.append(rebuild(t.coeff * p, p - 1))
            out.append(rebuild(t.coeff * (-2.0 * a), p + 1))
            if c0 != 0.0:
                out.append(rebuild(t.coeff * (2.0 * a * c0), p))
        return replace(self, terms=tuple(out)).merged()

    # -- evaluation ---------------------------------------------------------------
    @property
    def dtype(self) -> type:
        """``np.float64`` when every coefficient is real, else ``np.complex128``."""
        return np.float64 if all(t.coeff.imag == 0.0 for t in self.terms) else np.complex128

    def evaluate(
        self, base_points: np.ndarray, fiber_points: np.ndarray, *, out=None, scratch=None
    ) -> np.ndarray:
        """Pointwise values; arguments are (..., n) and (..., m) arrays or
        :class:`~groupoidlab.expressions.Planes` of n and m components.

        The result has :attr:`dtype`.  Each term is ``(coeff * poly) *
        exp(exponent)``, its exponent ``-sum w (y - c)^2`` summed in coordinate
        order from 0, and the terms are added in order to zeros; so a float64
        result equals the real part of the complex evaluation bit for bit.
        Steps that change no bit are skipped: ``y - 0.0``, products with 1.0
        and both zero fills (the first square is written negated, whose
        zero's sign ``exp`` ignores, and the first term as ``value + 0.0``).
        The exponent and its squares live in two float64 arrays of the batch
        shape.  A caller that evaluates many batches of one shape passes its
        own arrays: ``out`` (of the batch shape and :attr:`dtype`) receives
        the values and is returned, ``scratch`` is the pair of exponent
        arrays.  Neither may overlap the points; the values do not depend on
        their contents.  Each coordinate's square and powers are taken at the
        coordinate's own shape.
        """
        batch = np.broadcast_shapes(np.shape(base_points)[:-1], np.shape(fiber_points)[:-1])
        real = self.dtype is np.float64
        out = np.empty(batch, dtype=self.dtype) if out is None else out
        if not self.terms:
            out.fill(0.0)
        coords = [*split(base_points)[: self.base_dim], *split(fiber_points)[: self.fiber_dim]]
        gauss, buffer = (np.empty(batch), np.empty(batch)) if scratch is None else scratch
        # a partial sum or product spans the coordinates it has read: it goes
        # to a scratch array once it spans the batch, to a new small one before
        into = lambda array, *shapes: array if _broadcast(shapes) == batch else None
        for term_index, t in enumerate(self.terms):
            exponent = None
            for x, w, c in zip(coords, t.x_widths + t.xi_widths, t.x_centers + t.xi_centers):
                target = into(buffer, x.shape)
                square = np.square(x if c == 0.0 else np.subtract(x, c, out=target), out=target)
                if exponent is None:
                    exponent = np.multiply(square, -w, out=into(gauss, square.shape))
                else:
                    square *= w
                    exponent = np.subtract(exponent, square, out=into(gauss, exponent.shape, square.shape))
            if exponent is not gauss:
                # a term on no coordinates is its coefficient
                gauss[...] = 0.0 if exponent is None else exponent
            np.exp(gauss, out=gauss)
            # poly is the product of the powers from 1.0, kept in the freed
            # squares buffer; x ** 1 is x and 1.0 * y is y bit for bit, so
            # neither is computed
            poly = None
            for x, p in zip(coords, t.x_powers + t.xi_powers):
                if p:
                    factor = x if p == 1 else x ** p
                    if poly is not None:
                        factor = np.multiply(poly, factor, out=into(buffer, poly.shape, factor.shape))
                    poly = factor
            value = gauss
            if not real:
                value = t.coeff * (1.0 if poly is None else poly) * gauss
            elif poly is not None:
                if t.coeff.real != 1.0:
                    poly = np.multiply(poly, t.coeff.real, out=into(buffer, poly.shape))
                gauss *= poly
            elif t.coeff.real != 1.0:
                gauss *= t.coeff.real
            if term_index:
                out += value
            else:
                np.add(value, 0.0, out=out)
        return out


# ---------------------------------------------------------------------------
# grid interaction
# ---------------------------------------------------------------------------

def _node_points(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Base and fiber node arrays shaped to broadcast over ``grid.shape``."""
    base_b = grid.base_mesh().reshape(grid.base_shape + (1,) * grid.fiber_dim + (grid.base_dim,))
    fiber_b = grid.fiber_mesh().reshape(
        (1,) * grid.base_dim + grid.fiber_shape + (grid.fiber_dim,)
    )
    return base_b, fiber_b


def _sampled_terms(spec: SymbolSpec, grid: GridSpec, name: str):
    """Yield each term's node samples with its box-decay violation (None when it decays)."""
    if grid.base_dim != spec.base_dim or grid.fiber_dim != spec.fiber_dim:
        raise ValueError("symbol and grid dimensions differ")
    base_b, fiber_b = _node_points(grid)
    for idx, term in enumerate(spec.terms):
        values = SymbolSpec(spec.base_dim, spec.fiber_dim, (term,)).evaluate(base_b, fiber_b)
        ratio = boundary_fraction(values)
        problem = None
        if ratio >= DECAY_THRESHOLD:
            problem = (
                f"{name} term {idx} only decays to {ratio:.3e} of its peak at the grid "
                f"boundary (threshold {DECAY_THRESHOLD:.0e})"
            )
        yield values, problem


def decay_problems(spec: SymbolSpec, grid: GridSpec, name: str = "symbol") -> list[str]:
    """One message per term that fails the box-decay contract on the grid."""
    return [problem for _, problem in _sampled_terms(spec, grid, name) if problem]


def eval_symbol(spec: SymbolSpec, grid: GridSpec, name: str = "symbol") -> SampledSymbol:
    """Sample the symbol at every grid node, warning for each term that fails to decay.

    Each term is evaluated once; the terms are summed in order in
    ``spec.dtype``, so the values equal ``spec.evaluate`` at the nodes bitwise.
    """
    values = np.zeros(grid.shape, dtype=spec.dtype)
    for term_values, problem in _sampled_terms(spec, grid, name):
        if problem:
            warnings.warn(problem, DecayWarning, stacklevel=2)
        values += term_values
    return SampledSymbol.wrap(values, grid)


def parse_symbol(entries: Iterable[dict], base_dim: int, fiber_dim: int) -> SymbolSpec:
    """Build a SymbolSpec from the JSON term list used in config files.

    Each entry may carry ``coeff`` (number or [re, im], default 1),
    ``x_powers``, ``xi_powers`` (default all 0), ``x_widths``/``xi_widths``
    (default all 1), ``x_centers``/``xi_centers`` (default all 0).  Numbers
    are read by :func:`groupoidlab.errors.json_number`: a JSON boolean or
    string anywhere a number is read raises TypeError, a fractional power
    ValueError.
    """

    def vector(entry, key, dim, default, cast):
        raw = entry.get(key, default)
        items = raw if isinstance(raw, (list, tuple)) else [raw] * dim
        if len(items) != dim:
            raise ValueError(f"{key} needs {dim} entries, got {len(items)}")
        out = tuple(cast(json_number(r, f"{key} must hold numbers", integer=cast is int)) for r in items)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"{key} must be finite")
        return out

    terms = []
    for entry in entries:
        raw_coeff = entry.get("coeff", 1.0)
        re, im = raw_coeff if isinstance(raw_coeff, (list, tuple)) else (raw_coeff, 0.0)
        coeff = complex(*(float(json_number(part, "coeff must hold numbers")) for part in (re, im)))
        if not np.isfinite(coeff):
            raise ValueError("coeff must be finite")
        terms.append(
            SymbolTerm(
                coeff=coeff,
                x_powers=vector(entry, "x_powers", base_dim, 0, int),
                xi_powers=vector(entry, "xi_powers", fiber_dim, 0, int),
                x_widths=vector(entry, "x_widths", base_dim, 1.0, float),
                x_centers=vector(entry, "x_centers", base_dim, 0.0, float),
                xi_widths=vector(entry, "xi_widths", fiber_dim, 1.0, float),
                xi_centers=vector(entry, "xi_centers", fiber_dim, 0.0, float),
            )
        )
    return SymbolSpec(base_dim, fiber_dim, tuple(terms))

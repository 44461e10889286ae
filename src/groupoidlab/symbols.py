"""Analytic test symbols: finite sums of Gaussian-weighted monomials.

A term is ``coeff * x^p * xi^q * exp(-sum a_k (x_k - xc_k)^2
- sum b_l (xi_l - xic_l)^2)`` with all widths positive.  The class is closed
under partial derivatives in every coordinate and under multiplication by a
fiber coordinate, which is exactly what the bracket evaluation needs; those
operations are exact, only convolutions are ever numerical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DecayWarning
from .grids import GridSpec, SampledSymbol, boundary_fraction

DECAY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class SymbolTerm:
    coeff: complex
    x_powers: tuple[int, ...]
    xi_powers: tuple[int, ...]
    x_widths: tuple[float, ...]
    x_centers: tuple[float, ...]
    xi_widths: tuple[float, ...]
    xi_centers: tuple[float, ...]

    def __post_init__(self):
        if any(w <= 0 for w in self.x_widths) or any(w <= 0 for w in self.xi_widths):
            raise ValueError("Gaussian widths must be positive")
        if any(p < 0 for p in self.x_powers) or any(p < 0 for p in self.xi_powers):
            raise ValueError("monomial powers must be nonnegative")

    def _key(self):
        return (
            self.x_powers,
            self.xi_powers,
            self.x_widths,
            self.x_centers,
            self.xi_widths,
            self.xi_centers,
        )


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
        return SymbolSpec(
            self.base_dim,
            self.fiber_dim,
            tuple(
                SymbolTerm(t.coeff * factor, *t._key()) for t in self.terms
            ),
        )

    def merged(self) -> "SymbolSpec":
        """Combine terms with identical monomial and Gaussian data."""
        acc: dict = {}
        order: list = []
        for t in self.terms:
            key = t._key()
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
            terms.append(
                SymbolTerm(
                    t.coeff,
                    t.x_powers,
                    tuple(q),
                    t.x_widths,
                    t.x_centers,
                    t.xi_widths,
                    t.xi_centers,
                )
            )
        return SymbolSpec(self.base_dim, self.fiber_dim, tuple(terms))

    def derivative(self, kind: str, index: int) -> "SymbolSpec":
        """Exact partial derivative; ``kind`` is ``"x"`` or ``"xi"``."""
        if kind not in ("x", "xi"):
            raise ValueError("kind must be 'x' or 'xi'")
        dim = self.base_dim if kind == "x" else self.fiber_dim
        if not 0 <= index < dim:
            raise IndexError(f"{kind} index out of range")
        out: list[SymbolTerm] = []
        for t in self.terms:
            powers = t.x_powers if kind == "x" else t.xi_powers
            widths = t.x_widths if kind == "x" else t.xi_widths
            centers = t.x_centers if kind == "x" else t.xi_centers
            p, a, c0 = powers[index], widths[index], centers[index]

            def rebuild(coeff, new_power):
                new_powers = list(powers)
                new_powers[index] = new_power
                if kind == "x":
                    return SymbolTerm(
                        coeff, tuple(new_powers), t.xi_powers,
                        t.x_widths, t.x_centers, t.xi_widths, t.xi_centers,
                    )
                return SymbolTerm(
                    coeff, t.x_powers, tuple(new_powers),
                    t.x_widths, t.x_centers, t.xi_widths, t.xi_centers,
                )

            if p > 0:
                out.append(rebuild(t.coeff * p, p - 1))
            out.append(rebuild(t.coeff * (-2.0 * a), p + 1))
            if c0 != 0.0:
                out.append(rebuild(t.coeff * (2.0 * a * c0), p))
        return SymbolSpec(self.base_dim, self.fiber_dim, tuple(out)).merged()

    # -- evaluation ---------------------------------------------------------------
    def evaluate(self, base_points: np.ndarray, fiber_points: np.ndarray) -> np.ndarray:
        """Pointwise values; arguments are (..., n) and (..., m) arrays.

        The result is float64 when every coefficient is real and complex128
        otherwise.  Each term is ``(coeff * poly) * exp(exponent)``, its
        exponent summed in coordinate order, and the terms are added in order
        to zeros; so a float64 result equals the real part of the complex
        evaluation bit for bit.  The exponent and its squares live in two
        reused float64 buffers of the batch shape.
        """
        base_points = np.asarray(base_points, dtype=float)
        fiber_points = np.asarray(fiber_points, dtype=float)
        batch = np.broadcast_shapes(base_points.shape[:-1], fiber_points.shape[:-1])
        real = all(t.coeff.imag == 0.0 for t in self.terms)
        out = np.zeros(batch, dtype=float if real else complex)
        coords = [base_points[..., k] for k in range(self.base_dim)]
        coords += [fiber_points[..., l] for l in range(self.fiber_dim)]
        gauss, buffer = np.empty(batch), np.empty(batch)
        for t in self.terms:
            gauss.fill(0.0)
            for x, w, c in zip(coords, t.x_widths + t.xi_widths, t.x_centers + t.xi_centers):
                # a coordinate that broadcasts (base points over fiber points) keeps its own shape
                square = np.subtract(x, c, out=buffer if x.shape == batch else None)
                np.square(square, out=square)
                square *= w
                gauss -= square
            np.exp(gauss, out=gauss)
            poly = 1.0
            for x, p in zip(coords, t.x_powers + t.xi_powers):
                if p:
                    poly = poly * x ** p
            if real:
                gauss *= t.coeff.real * poly
                out += gauss
            else:
                out += t.coeff * poly * gauss
        return out


# ---------------------------------------------------------------------------
# grid interaction
# ---------------------------------------------------------------------------

def _node_points(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Base and fiber node arrays shaped to broadcast over ``grid.shape``."""
    if grid.base_dim:
        base_b = grid.base_mesh().reshape(
            grid.base_shape + (1,) * grid.fiber_dim + (grid.base_dim,)
        )
    else:
        base_b = np.zeros((1,) * grid.fiber_dim + (0,))
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

    Each term is evaluated once; the terms are summed in order, so the values
    equal ``spec.evaluate`` at the nodes bitwise.
    """
    values = np.zeros(grid.shape, dtype=complex)
    for term_values, problem in _sampled_terms(spec, grid, name):
        if problem:
            warnings.warn(problem, DecayWarning, stacklevel=2)
        values += term_values
    return SampledSymbol.wrap(values, grid)


def parse_symbol(entries: Iterable[dict], base_dim: int, fiber_dim: int) -> SymbolSpec:
    """Build a SymbolSpec from the JSON term list used in config files.

    Each entry may carry ``coeff`` (number or [re, im], default 1),
    ``x_powers``, ``xi_powers`` (default all 0), ``x_widths``/``xi_widths``
    (default all 1), ``x_centers``/``xi_centers`` (default all 0).
    """

    def vector(entry, key, dim, default, cast):
        raw = entry.get(key, default)
        if np.isscalar(raw):
            out = tuple(cast(raw) for _ in range(dim))
        elif len(raw) != dim:
            raise ValueError(f"{key} needs {dim} entries, got {len(raw)}")
        else:
            out = tuple(cast(r) for r in raw)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"{key} must be finite")
        return out

    terms = []
    for entry in entries:
        raw_coeff = entry.get("coeff", 1.0)
        if isinstance(raw_coeff, (list, tuple)):
            coeff = complex(float(raw_coeff[0]), float(raw_coeff[1]))
        else:
            coeff = complex(float(raw_coeff), 0.0)
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

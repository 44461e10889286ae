"""Numerical laboratory for chart-level Lie groupoid structure.

Extracts algebroid structure functions from chart data, evaluates the
Poisson bracket of the fiberwise convolution algebra, deforms the
convolution through the scale parameter of the blow-up coordinates, and
tracks operator norms along the deformation.

Importing the package imports none of its submodules.  A public name
(``groupoidlab.load_config``) or a submodule (``groupoidlab.normfield``) is
imported on first access, through a module ``__getattr__`` (PEP 562), so a
CLI process loads only the layer its command runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it exports at package level
_EXPORTS = {
    "algebroid": (
        "AlgebroidData",
        "anchor_matrix",
        "extract_algebroid",
        "log_weight_gradient",
        "product_bilinear",
        "structure_constants",
    ),
    "charts": (
        "AxiomReport",
        "BUILTIN_CHARTS",
        "GroupoidChart",
        "builtin_chart",
        "chart_from_spec",
        "compose",
        "invert_element",
        "solve_product",
        "source_coords",
        "validate_axioms",
    ),
    "config": ("RunConfig", "Tolerances", "build_config", "load_config"),
    "deformation": (
        "LimitTable",
        "classical_limit_error_table",
        "deformed_product",
        "haar_density",
        "left_invariance_residual",
        "scaled_commutator",
    ),
    "errors": (
        "ConfigError",
        "ConvergenceError",
        "DecayWarning",
        "DomainError",
        "GridMismatchError",
        "GroupoidLabError",
        "SamplingError",
        "SingularJacobianError",
    ),
    "grids": ("Axis", "GridSpec", "SampledSymbol", "scale_of"),
    "normfield": (
        "NormCurve",
        "NormRow",
        "group_regular_norm",
        "norm_curve",
        "pair_cstar_identity_residual",
        "pair_kernel_norm",
        "power_iteration_sigma",
        "zero_fiber_norm",
    ),
    "poisson": (
        "FourierCheck",
        "dual_poisson_bracket",
        "fiber_convolve",
        "fourier_check",
        "fourier_transform",
        "inverse_fourier",
        "poisson_bracket",
        "select_dual_grid",
        "unit_weight_on_grid",
    ),
    "symbols": ("SymbolSpec", "SymbolTerm", "eval_symbol", "parse_symbol"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "expressions", "floattext", "plots", "reports"}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)

"""Numerical laboratory for chart-level Lie groupoid structure.

Extracts algebroid structure functions from chart data, evaluates the
Poisson bracket of the fiberwise convolution algebra, deforms the
convolution through the scale parameter of the blow-up coordinates, and
tracks operator norms along the deformation.
"""

__version__ = "0.1.0"

from .algebroid import AlgebroidData, anchor_matrix, extract_algebroid, log_weight_gradient, product_bilinear, structure_constants
from .charts import (
    AxiomReport,
    BUILTIN_CHARTS,
    GroupoidChart,
    builtin_chart,
    chart_from_spec,
    compose,
    invert_element,
    source_coords,
    validate_axioms,
)
from .config import RunConfig, Tolerances, build_config, load_config
from .deformation import (
    DeformationField,
    LimitTable,
    classical_limit_error_table,
    deformed_convolution,
    deformed_product,
    haar_density,
    left_invariance_residual,
    scaled_commutator,
    solve_product,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DecayWarning,
    DomainError,
    GridMismatchError,
    GroupoidLabError,
    SamplingError,
    SingularJacobianError,
)
from .grids import Axis, GridSpec, SampledSymbol, scale_of
from .normfield import (
    NormCurve,
    NormRow,
    group_regular_norm,
    norm_curve,
    pair_cstar_identity_residual,
    pair_kernel_norm,
    power_iteration_sigma,
    zero_fiber_norm,
)
from .poisson import (
    IntertwiningResult,
    convolution_theorem_residual,
    dual_poisson_bracket,
    fiber_convolve,
    fourier_transform,
    intertwining_residual,
    inverse_fourier,
    poisson_bracket,
    roundtrip_residual,
    select_dual_grid,
    unit_weight_on_grid,
)
from .symbols import SymbolSpec, SymbolTerm, eval_symbol, parse_symbol

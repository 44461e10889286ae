"""Run configuration: JSON ingestion and up-front validation.

A config names a chart (built-in with parameters, or a custom expression
chart), a grid, the symbols, the parameter sweep and the sampling seed.
Validation happens before any computation and collects every violation it
can find rather than stopping at the first; a key that its object does not
read (its ``*_KEYS`` tuple) is one.  A run's inputs are all checked here, in
one pass: the file, the ``--seed`` override and the rules of the command
that reads them (:data:`COMMAND_RULES`).  The t-sweep rules live here too;
the deformation and norm layers import them from this module.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Container, NamedTuple, Sequence

from .charts import BUILTIN_CHARTS, FD_STEP, GroupoidChart, builtin_chart, chart_from_spec
from .errors import ConfigError, json_number
from .grids import Axis, GridSpec
from .symbols import SymbolSpec, decay_problems, parse_symbol

MIN_AXIS_INTERVALS = 8
MAX_GRID_NODES = 1 << 24  # one complex sample on this many nodes takes 256 MiB
# past about 2^60 validate's candidate arrays exceed numpy's size limit, a ValueError, not a MemoryError
MAX_SAMPLE_COUNT = 1 << 40
KEYS = ("chart", "grid", "symbols", "t_values", "seed", "sample_count", "tolerances")
BUILTIN_CHART_KEYS = ("builtin", "params")
CUSTOM_CHART_KEYS = ("custom",)
CUSTOM_SPEC_KEYS = ("name", "base_dim", "fiber_dim", "source_map", "product", "inverse", "unit_weight",
                    "base_box", "fiber_box")
GRID_KEYS = ("base", "fiber")
AXIS_KEYS = ("half_width", "intervals")
TERM_KEYS = ("coeff", "x_powers", "xi_powers", "x_widths", "x_centers", "xi_widths", "xi_centers")
# the one threshold the shipped configs set to another value (heisenberg_fourier: 0.01)
TOLERANCE_KEYS = ("intertwining",)


class Tolerances(NamedTuple):
    """Pass thresholds used by the CLI commands; a config overrides only :data:`TOLERANCE_KEYS`."""

    axiom: float = 1e-10
    jacobi: float = 1e-8
    antisymmetry: float = 1e-12
    roundtrip: float = 1e-8
    convolution_theorem: float = 1e-6
    intertwining: float = 1e-3
    ratio_low: float = 0.35
    ratio_high: float = 0.65
    degenerate: float = 1e-10
    norm_delta_fraction: float = 0.05
    cstar_identity: float = 1e-5


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    chart: GroupoidChart
    grid: GridSpec
    symbols: dict[str, SymbolSpec]
    t_values: tuple[float, ...]
    seed: int
    sample_count: int
    strict: bool
    tolerances: Tolerances


def _unknown_keys(cfg: dict, allowed: tuple, what: str, problems: list[str]) -> list[str]:
    """Report the keys of ``cfg`` outside ``allowed`` as one violation; returns them."""
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        problems.append(f"unknown {what} {unknown}; have {list(allowed)}")
    return unknown


def _build_chart(raw: dict, problems: list[str]) -> GroupoidChart | None:
    chart_cfg = raw.get("chart")
    if not isinstance(chart_cfg, dict):
        problems.append("config needs a 'chart' object")
        return None
    if "builtin" in chart_cfg:
        _unknown_keys(chart_cfg, BUILTIN_CHART_KEYS, "chart key(s)", problems)
        name = chart_cfg["builtin"]
        if not isinstance(name, str) or name not in BUILTIN_CHARTS:
            problems.append(f"unknown built-in chart {name!r}; have {sorted(BUILTIN_CHARTS)}")
            return None
        try:
            params = dict(chart_cfg.get("params", {}))
            for key, value in params.items():
                if key != "mu_e":  # the unit weight is an expression tree
                    json_number(value, f"parameter {key} must be a number")
            return builtin_chart(name, **params)
        except (TypeError, ValueError, OverflowError, ConfigError) as exc:
            problems.append(f"chart {name!r}: {exc}")
            return None
    if "custom" in chart_cfg:
        _unknown_keys(chart_cfg, CUSTOM_CHART_KEYS, "chart key(s)", problems)
        if isinstance(chart_cfg["custom"], dict):
            _unknown_keys(chart_cfg["custom"], CUSTOM_SPEC_KEYS, "custom chart key(s)", problems)
        try:
            return chart_from_spec(chart_cfg["custom"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            problems.append(f"custom chart: {exc}")
            return None
        except ConfigError as exc:
            problems.extend(f"custom chart: {v}" for v in exc.violations)
            return None
    problems.append("chart must specify 'builtin' or 'custom'")
    return None


def _build_axis(axis_cfg: dict, where: str, fiber: bool, center: float, problems: list[str]) -> Axis | None:
    """The axis of ``half_width`` and ``intervals`` about ``center`` (0 on a fiber axis)."""
    try:
        half_width = float(json_number(axis_cfg["half_width"], "half_width must be a number"))
        intervals = json_number(axis_cfg["intervals"], "intervals must be an integer", integer=True)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        problems.append(f"{where}: malformed axis ({exc})")
        return None
    _unknown_keys(axis_cfg, AXIS_KEYS, f"{where} key(s)", problems)
    if not math.isfinite(half_width):
        problems.append(f"{where}: half_width must be finite")
        return None
    if half_width <= 0:
        problems.append(f"{where}: half_width must be positive")
        return None
    if intervals < MIN_AXIS_INTERVALS:
        problems.append(f"{where}: needs at least {MIN_AXIS_INTERVALS} intervals")
        return None
    if fiber and intervals % 2 != 0:
        problems.append(f"{where}: fiber axes need an even interval count (symmetric nodes with center 0)")
        return None
    return Axis.centered(half_width, intervals, center)


def _build_grid(raw: dict, chart: GroupoidChart | None, problems: list[str]) -> GridSpec | None:
    grid_cfg = raw.get("grid")
    if not isinstance(grid_cfg, dict):
        problems.append("config needs a 'grid' object")
        return None
    _unknown_keys(grid_cfg, GRID_KEYS, "grid key(s)", problems)
    base_cfg = grid_cfg.get("base", [])
    fiber_cfg = grid_cfg.get("fiber")
    if not isinstance(base_cfg, list) or not isinstance(fiber_cfg, list) or not fiber_cfg:
        problems.append("grid needs a nonempty 'fiber' axis list and a 'base' axis list")
        return None
    # a base axis is centred on the chart's base box (0 on every built-in chart); an extra one on 0
    box = [] if chart is None else chart.base_box
    centers = [float(0.5 * (lo + hi)) for lo, hi in box] + [0.0] * len(base_cfg)
    base_axes = [_build_axis(a, f"grid.base[{i}]", False, centers[i], problems) for i, a in enumerate(base_cfg)]
    fiber_axes = [_build_axis(a, f"grid.fiber[{i}]", True, 0.0, problems) for i, a in enumerate(fiber_cfg)]
    if any(a is None for a in base_axes + fiber_axes):
        return None
    if math.prod(a.count for a in base_axes + fiber_axes) > MAX_GRID_NODES:
        problems.append(f"grid has more than {MAX_GRID_NODES} nodes")
        return None
    if chart is not None:
        # only these stop the grid: a violation found earlier hides none of its own
        mismatched = [
            f"grid has {len(axes)} {what} axes but the chart has {what} dim {dim}"
            for what, axes, dim in (("base", base_axes, chart.base_dim), ("fiber", fiber_axes, chart.fiber_dim))
            if len(axes) != dim
        ]
        if mismatched:
            problems.extend(mismatched)
            return None
    try:
        return GridSpec(base=tuple(base_axes), fiber=tuple(fiber_axes))
    except ValueError as exc:
        problems.append(f"grid: {exc}")
        return None


def sweep_problems(t_values: Sequence[float]) -> list[str]:
    """Violations of the sweep rule: every t nonzero, |t| strictly decreasing."""
    problems = []
    if any(t == 0.0 for t in t_values):
        problems.append("t must be nonzero in sweep")
    mags = [abs(t) for t in t_values]
    if any(b >= a for a, b in zip(mags, mags[1:])):
        problems.append("t values must decrease strictly in magnitude toward 0")
    return problems


def limit_sweep_problems(t_values: Sequence[float]) -> list[str]:
    """Violations of the limit-study rule: at least three t values, geometric within 1e-2.

    A sweep with a zero t has no ratios to compare; :func:`sweep_problems` reports the zero.
    """
    if len(t_values) < 3:
        return ["the limit sweep needs at least three t values"]
    if 0.0 in t_values:
        return []
    ratios = [b / a for a, b in zip(t_values, t_values[1:])]
    if max(ratios) - min(ratios) > 1e-2 * abs(ratios[0]):
        return ["t values must form a geometric progression"]
    return []


def norm_sweep_problems(t_values: Sequence[float]) -> list[str]:
    """Violations of the norm-curve rule: at least one t value."""
    return [] if len(t_values) else ["the norm sweep needs at least one t value"]


# command -> the symbols it reads and the rule its t sweep keeps beyond sweep_problems
COMMAND_RULES = {
    "validate": ((), None),
    "algebroid": ((), None),
    "bracket": (("f", "g"), None),
    "fourier-check": (("f", "g"), None),
    "deform": (("f", "g"), limit_sweep_problems),
    "normfield": (("f",), norm_sweep_problems),
}


def command_problems(command: str, symbols: Container[str], t_values: Sequence[float]) -> list[str]:
    """Violations of ``command``'s rules by a config of the named ``symbols`` and sweep ``t_values``."""
    if command not in COMMAND_RULES:
        return [f"unknown command {command!r}; have {sorted(COMMAND_RULES)}"]
    names, sweep_rule = COMMAND_RULES[command]
    missing = [name for name in names if name not in symbols]
    problems = [f"config is missing symbol(s) {missing} for this command"] if missing else []
    return problems + (sweep_rule(t_values) if sweep_rule else [])


def deformation_domain_problems(
    chart: GroupoidChart, grid: GridSpec, t_values: Sequence[float]
) -> list[str]:
    """All violations of the sweep preconditions (empty list when admissible)."""
    if grid.fiber_dim != chart.fiber_dim or grid.base_dim != chart.base_dim:
        return [
            f"grid dims ({grid.base_dim},{grid.fiber_dim}) do not match chart "
            f"dims ({chart.base_dim},{chart.fiber_dim})"
        ]
    problems = sweep_problems(t_values)
    for k, ax in enumerate(grid.fiber):
        lo, hi = chart.fiber_box[k]
        for t in t_values:
            reach = abs(t) * ax.half_width
            if reach > hi or -reach < lo:
                problems.append(
                    f"t={t} pushes fiber axis {k} to {reach:.3g}, outside its box "
                    f"[{lo:.3g}, {hi:.3g}]"
                )
                break
    for j, ax in enumerate(grid.base):
        lo, hi = chart.base_box[j]
        if ax.start < lo or ax.start + ax.step * (ax.count - 1) > hi:
            problems.append(f"base axis {j} leaves the chart base box")
    return problems


def build_config(raw: dict, strict: bool = False, seed: int | None = None, command: str | None = None) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig; raises one ConfigError listing every violation.

    Under ``strict`` (``--strict``) a named symbol that does not decay at the
    grid edge is a violation.  A ``seed`` (``--seed``) replaces the document's
    and is checked by the same rule; ``raw`` keeps the document's.  With a
    ``command`` its rules (:func:`command_problems`) are checked too.
    """
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    _unknown_keys(raw, KEYS, "config key(s)", problems)

    chart = _build_chart(raw, problems)
    grid = _build_grid(raw, chart, problems)

    seed = _count(raw if seed is None else {"seed": seed}, "seed", 2024, 0, "seed must be a nonnegative integer", problems)
    sample_count = _count(raw, "sample_count", 100, 1, "sample_count must be a positive integer of at most 2^40",
                          problems, MAX_SAMPLE_COUNT)

    tol_cfg = raw.get("tolerances", {})
    tolerances = Tolerances()
    if isinstance(tol_cfg, dict):
        unknown = _unknown_keys(tol_cfg, TOLERANCE_KEYS, "tolerance name(s)", problems)
        non_finite = sorted(k for k, v in tol_cfg.items() if not _finite_number(v))
        if non_finite:
            problems.append(f"tolerance(s) {non_finite} must be finite numbers")
        if not unknown and not non_finite:
            tolerances = tolerances._replace(**{k: float(v) for k, v in tol_cfg.items()})
    elif tol_cfg is not None:
        problems.append("tolerances must be an object")

    t_values = raw.get("t_values", [])
    if isinstance(t_values, list) and all(_finite_number(t) for t in t_values):
        t_values = tuple(float(t) for t in t_values)
    else:
        problems.append("t_values must be a list of finite numbers")
        t_values = ()

    symbols: dict[str, SymbolSpec] = {}
    sym_cfg = raw.get("symbols", {})
    if not isinstance(sym_cfg, dict):
        problems.append("symbols must be an object of term lists")
        sym_cfg = {}
    for name, terms in sym_cfg.items():
        if not isinstance(terms, list) or not all(isinstance(e, dict) for e in terms):
            problems.append(f"symbol {name!r}: terms must be a list of objects")
            continue
        for k, entry in enumerate(terms):
            _unknown_keys(entry, TERM_KEYS, f"symbol {name!r} term {k} key(s)", problems)
        if chart is None:  # a term's vector lengths need the chart's dimensions
            continue
        try:
            symbols[name] = parse_symbol(terms, chart.base_dim, chart.fiber_dim)
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            problems.append(f"symbol {name!r}: {exc}")

    if chart is None or grid is None:
        problems.extend(sweep_problems(t_values))
    else:
        problems.extend(deformation_domain_problems(chart, grid, t_values))
        for j, ax in enumerate(grid.base):
            lo, hi = chart.base_box[j]
            first, last = ax.start, ax.start + ax.step * (ax.count - 1)
            # an axis outside the box is reported above, as leaving it
            if lo <= first and last <= hi and (first < lo + FD_STEP or last > hi - FD_STEP):
                problems.append(
                    f"base axis {j} leaves no {FD_STEP:g} finite-difference margin inside the chart base box"
                )
        if strict:
            for name, spec in symbols.items():
                problems.extend(decay_problems(spec, grid, f"symbol {name!r}"))
    if command is not None:
        problems.extend(command_problems(command, sym_cfg, t_values))

    if problems:
        raise ConfigError(problems)

    return RunConfig(
        raw=raw,
        chart=chart,
        grid=grid,
        symbols=symbols,
        t_values=t_values,
        seed=seed,
        sample_count=sample_count,
        strict=strict,
        tolerances=tolerances,
    )


def _count(raw: dict, key: str, default: int, least: int, requirement: str, problems: list[str], most=math.inf) -> int:
    """``raw[key]`` (``default`` if absent), an integer from ``least`` to ``most``; a violation reads as ``default``."""
    try:
        value = json_number(raw.get(key, default), requirement, integer=True)
        if least <= value <= most:
            return value
        problems.append(requirement)
    except (TypeError, ValueError) as exc:
        problems.append(str(exc))
    return default


def _finite_number(value) -> bool:
    """A JSON number that is finite as a float; an integer beyond the float range is not."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def load_config(path, strict: bool = False, seed: int | None = None, command: str | None = None) -> RunConfig:
    """Read and validate a JSON config file; ``strict``, ``seed`` and ``command`` as in :func:`build_config`."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError([f"config file {path} does not exist"]) from None
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc.strerror or exc}"]) from None
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config file {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"]) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        )
    return build_config(raw, strict, seed, command)

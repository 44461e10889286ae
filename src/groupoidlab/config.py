"""Run configuration: JSON ingestion and up-front validation.

A config names a chart (built-in with parameters, or a custom expression
chart), a grid, the symbols, the parameter sweep and the numeric knobs.
Validation happens before any computation and collects every violation it
can find rather than stopping at the first.  The t-sweep rules live here
too; the deformation layers import them from this module.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

from .charts import BUILTIN_CHARTS, GroupoidChart, builtin_chart, chart_from_spec
from .errors import ConfigError
from .grids import Axis, GridSpec
from .symbols import SymbolSpec, decay_problems, parse_symbol

MIN_AXIS_INTERVALS = 8
MAX_GRID_NODES = 1 << 24  # one complex sample on this many nodes takes 256 MiB


@dataclass(frozen=True)
class Tolerances:
    """Pass thresholds used by the CLI commands; all overridable per config."""

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
    fd_step: float
    seed: int
    sample_count: int
    strict: bool
    workers: int
    tolerances: Tolerances

    def require_symbols(self, *names: str):
        missing = [n for n in names if n not in self.symbols]
        if missing:
            raise ConfigError([f"config is missing symbol(s) {missing} for this command"])


def _build_chart(raw: dict, problems: list[str]) -> GroupoidChart | None:
    chart_cfg = raw.get("chart")
    if not isinstance(chart_cfg, dict):
        problems.append("config needs a 'chart' object")
        return None
    if "builtin" in chart_cfg:
        name = chart_cfg["builtin"]
        if not isinstance(name, str) or name not in BUILTIN_CHARTS:
            problems.append(f"unknown built-in chart {name!r}; have {sorted(BUILTIN_CHARTS)}")
            return None
        try:
            return builtin_chart(name, **dict(chart_cfg.get("params", {})))
        except (TypeError, ValueError, OverflowError, ConfigError) as exc:
            problems.append(f"chart {name!r}: {exc}")
            return None
    if "custom" in chart_cfg:
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


def _build_axis(axis_cfg: dict, where: str, fiber: bool, problems: list[str]) -> Axis | None:
    try:
        half_width = float(axis_cfg["half_width"])
        intervals = axis_cfg["intervals"]
        center = float(axis_cfg.get("center", 0.0))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        problems.append(f"{where}: malformed axis ({exc})")
        return None
    if isinstance(intervals, float) and intervals.is_integer():
        intervals = int(intervals)
    if not _integer(intervals):
        problems.append(f"{where}: intervals must be an integer")
        return None
    if not (math.isfinite(half_width) and math.isfinite(center)):
        problems.append(f"{where}: half_width and center must be finite")
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
    if fiber and center != 0.0:
        problems.append(f"{where}: fiber axes must be centered at 0")
        return None
    return Axis.centered(half_width, intervals, center)


def _build_grid(raw: dict, chart: GroupoidChart | None, problems: list[str]) -> GridSpec | None:
    grid_cfg = raw.get("grid")
    if not isinstance(grid_cfg, dict):
        problems.append("config needs a 'grid' object")
        return None
    base_cfg = grid_cfg.get("base", [])
    fiber_cfg = grid_cfg.get("fiber")
    if not isinstance(base_cfg, list) or not isinstance(fiber_cfg, list) or not fiber_cfg:
        problems.append("grid needs a nonempty 'fiber' axis list and a 'base' axis list")
        return None
    base_axes = [
        _build_axis(a, f"grid.base[{i}]", fiber=False, problems=problems)
        for i, a in enumerate(base_cfg)
    ]
    fiber_axes = [
        _build_axis(a, f"grid.fiber[{i}]", fiber=True, problems=problems)
        for i, a in enumerate(fiber_cfg)
    ]
    if any(a is None for a in base_axes + fiber_axes):
        return None
    if math.prod(a.count for a in base_axes + fiber_axes) > MAX_GRID_NODES:
        problems.append(f"grid has more than {MAX_GRID_NODES} nodes")
        return None
    if chart is not None:
        if len(base_axes) != chart.base_dim:
            problems.append(
                f"grid has {len(base_axes)} base axes but the chart has base dim {chart.base_dim}"
            )
        if len(fiber_axes) != chart.fiber_dim:
            problems.append(
                f"grid has {len(fiber_axes)} fiber axes but the chart has fiber dim {chart.fiber_dim}"
            )
        if problems:
            return None
    quadrature = grid_cfg.get("quadrature", "trapezoidal")
    if quadrature != "trapezoidal":
        problems.append(f"grid: unsupported quadrature {quadrature!r}")
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


def build_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig; raises ConfigError."""
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])

    chart = _build_chart(raw, problems)
    grid = _build_grid(raw, chart, problems)

    fd_step = raw.get("fd_step", 1e-3)
    if not _finite_number(fd_step) or fd_step <= 0:
        problems.append("fd_step must be a positive finite number")
        fd_step = 1e-3
    seed = raw.get("seed", 2024)
    if not _integer(seed) or seed < 0:
        problems.append("seed must be a nonnegative integer")
        seed = 2024
    sample_count = raw.get("sample_count", 100)
    if not _integer(sample_count) or sample_count < 1:
        problems.append("sample_count must be a positive integer")
        sample_count = 100
    workers = raw.get("workers", 1)
    if not _integer(workers) or workers < 1:
        problems.append("workers must be a positive integer")
        workers = 1
    strict = raw.get("strict", False)
    if not isinstance(strict, bool):
        problems.append("strict must be true or false")
        strict = False

    tol_cfg = raw.get("tolerances", {})
    tolerances = Tolerances()
    if isinstance(tol_cfg, dict):
        known = {f.name for f in fields(Tolerances)}
        unknown = sorted(set(tol_cfg) - known)
        if unknown:
            problems.append(f"unknown tolerance name(s) {unknown}")
        non_finite = sorted(k for k, v in tol_cfg.items() if not _finite_number(v))
        if non_finite:
            problems.append(f"tolerance(s) {non_finite} must be finite numbers")
        if not unknown and not non_finite:
            tolerances = replace(tolerances, **{k: float(v) for k, v in tol_cfg.items()})
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
    if chart is not None:
        for name, terms in sym_cfg.items():
            if not isinstance(terms, list) or not all(isinstance(e, dict) for e in terms):
                problems.append(f"symbol {name!r}: terms must be a list of objects")
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
            if ax.start < lo + fd_step or ax.start + ax.step * (ax.count - 1) > hi - fd_step:
                problems.append(
                    f"base axis {j} leaves no fd_step margin inside the chart base box"
                )
        if strict:
            for name, spec in symbols.items():
                problems.extend(decay_problems(spec, grid, f"symbol {name!r}"))

    if problems:
        raise ConfigError(problems)

    return RunConfig(
        raw=raw,
        chart=chart,
        grid=grid,
        symbols=symbols,
        t_values=t_values,
        fd_step=float(fd_step),
        seed=seed,
        sample_count=sample_count,
        strict=strict,
        workers=workers,
        tolerances=tolerances,
    )


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_number(value) -> bool:
    """A JSON number that is finite as a float; an integer beyond the float range is not."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
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
    return build_config(raw)

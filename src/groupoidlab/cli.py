"""Command-line surface: config ingestion, dispatch, deterministic reports.

Commands map one-to-one onto the package operations:

* ``validate``      groupoid axiom residuals by seeded sampling,
* ``algebroid``     structure functions tabulated over the base grid,
* ``bracket``       the convolution-side Poisson bracket of f and g,
* ``fourier-check`` transform conventions: round trip, convolution theorem,
  intertwining with the dual-side bracket,
* ``deform``        the classical-limit error table over the t sweep,
* ``normfield``     the operator-norm curve with its t = 0 value.

One parser reads ``<command>`` and the five options every command takes,
in any order.  ``cli`` keeps no rule of its own: :func:`load_config` checks
the file, the ``--seed`` override and the command's rules in one pass, so a
bad run lists every violation at once.

Exit codes: 0 all configured thresholds pass, 1 computation failure (an
allocation that does not fit in memory too) or a failed threshold, 2 config
or usage error.  Output files are byte-identical
across reruns; timing goes to stderr only.

Each ``_cmd_*`` imports its own layer when it runs (``charts`` for
``validate``, ``algebroid``, ``poisson`` for ``bracket`` and
``fourier-check``, ``deformation``, ``normfield``) and ``plots`` is imported
only under ``--plot``, so a process loads only the modules its command
calls.  Keep layer imports out of module level.  ``main`` prints the
``[groupoidlab]`` timing and check lines to stderr; ``run_command`` prints
nothing.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .config import RunConfig, command_problems, load_config
from .errors import ConfigError, DecayWarning, GroupoidLabError
from .grids import boundary_fraction
from .reports import Check, ReportBundle, write_csv, write_json


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_validate(config: RunConfig) -> ReportBundle:
    from .charts import AXIOMS, validate_axioms

    tol = config.tolerances
    report = validate_axioms(config.chart, config.sample_count, config.seed)
    d = report.as_dict()
    bundle = ReportBundle(command="validate", summary=d)
    axioms = [(name, getattr(report, name)) for name in AXIOMS]
    bundle.checks = [Check(name, value <= tol.axiom, value, tol.axiom) for name, value in axioms]
    bundle.checks.append(
        Check("unit_weight_positive", report.min_unit_weight > 0.0, report.min_unit_weight, 0.0, ">")
    )
    bundle.table = (["axiom", "residual"], [list(row) for row in axioms])
    return bundle


def _cmd_algebroid(config: RunConfig) -> ReportBundle:
    from .algebroid import FD_STEP, extract_algebroid

    chart, grid, tol = config.chart, config.grid, config.tolerances
    data = extract_algebroid(chart, grid.base_points_flat())
    n, m = chart.base_dim, chart.fiber_dim
    header = [f"x_{j + 1}" for j in range(n)]
    header += [f"anchor_{i + 1}_{j + 1}" for i in range(m) for j in range(n)]
    header += [
        f"c_{i + 1}_{j + 1}_{k + 1}" for i in range(m) for j in range(m) for k in range(m)
    ]
    header += [f"dlog_weight_{j + 1}" for j in range(n)]
    k = data.base_points.shape[0]
    columns = (data.base_points, data.anchor, data.structure, data.log_weight_grad)
    rows = np.column_stack([a.reshape(k, -1) for a in columns])
    jacobi = data.jacobi_residual()
    bundle = ReportBundle(
        command="algebroid",
        summary={
            "base_points": int(data.base_points.shape[0]),
            "fd_step": FD_STEP,
            "jacobi_residual": jacobi,
        },
    )
    bundle.checks = [Check("jacobi_identity", jacobi <= tol.jacobi, jacobi, tol.jacobi)]
    bundle.table = (header, rows)
    return bundle


def _cmd_bracket(config: RunConfig) -> ReportBundle:
    from .poisson import DUAL_DECAY_THRESHOLD, poisson_bracket

    chart, grid, tol = config.chart, config.grid, config.tolerances
    forward = poisson_bracket(config.symbols["f"], config.symbols["g"], chart, grid)
    # the (g, f) bracket is -forward bit for bit, so the two cancel wherever the values are finite
    antisym = 0.0 if np.isfinite(forward.values).all() else float("nan")

    header = [f"x_{j + 1}" for j in range(grid.base_dim)]
    header += [f"xi_{i + 1}" for i in range(grid.fiber_dim)]
    header += ["real", "imag"]
    bundle = ReportBundle(
        command="bracket",
        summary={
            "antisymmetry_residual": antisym,
            "sup_bracket": forward.sup,
            "decay_ok": boundary_fraction(forward.values) < DUAL_DECAY_THRESHOLD,
        },
    )
    bundle.checks = [
        Check("antisymmetry", antisym <= tol.antisymmetry, antisym, tol.antisymmetry)
    ]
    values = forward.values.reshape(-1)
    nodes = [ax.nodes for ax in grid.base + grid.fiber]
    bundle.table = (header, np.column_stack((values.real, values.imag)), nodes)
    return bundle


def _cmd_fourier_check(config: RunConfig) -> ReportBundle:
    from .poisson import fourier_check

    chart, grid, tol = config.chart, config.grid, config.tolerances
    result = fourier_check(config.symbols["f"], config.symbols["g"], chart, grid)
    roundtrip, convtheo = result.roundtrip, result.convolution_theorem
    checks = [
        Check("roundtrip", roundtrip <= tol.roundtrip, roundtrip, tol.roundtrip),
        Check(
            "convolution_theorem",
            convtheo <= tol.convolution_theorem,
            convtheo,
            tol.convolution_theorem,
        ),
    ]
    summary = {"roundtrip_residual": roundtrip, "convolution_theorem_residual": convtheo}
    rows = [["roundtrip", roundtrip], ["convolution_theorem", convtheo]]

    intertwining = result.intertwining
    if intertwining is not None:
        summary["intertwining_residual"] = intertwining
        summary["selected_signs"] = [-1.0, -1.0]  # the dual bracket's fixed orientation
        checks.append(
            Check("intertwining", intertwining <= tol.intertwining, intertwining, tol.intertwining)
        )
        rows.append(["intertwining", intertwining])
    else:
        summary["intertwining_residual"] = None
        summary["selected_signs"] = None
        summary["intertwining_skipped"] = "unit weight is not constant 1"

    bundle = ReportBundle(command="fourier-check", summary=summary)
    bundle.checks = checks
    bundle.table = (["check", "residual"], rows)
    return bundle


def _cmd_deform(config: RunConfig) -> ReportBundle:
    from .deformation import classical_limit_error_table

    tol = config.tolerances
    table = classical_limit_error_table(
        config.chart, config.grid, config.symbols["f"], config.symbols["g"], config.t_values
    )
    errors = [r[1] for r in table.rows]
    ratios = table.ratios()
    degenerate = all(e <= tol.degenerate for e in errors)
    if degenerate:
        converges = True
    else:
        converges = table.errors_decreasing() and all(
            tol.ratio_low <= r <= tol.ratio_high for r in ratios
        )
    bundle = ReportBundle(
        command="deform",
        summary={
            "rows": [[t, e, _nan_none(r)] for t, e, r in table.rows],
            "bracket_sup": table.bracket_sup,
            "observed_limit_constant": table.observed_constant,
            "expected_limit_constant": 1.0 / (2.0 * np.pi),
            "degenerate": degenerate,
        },
    )
    worst_ratio = max((abs(r - 0.5) for r in ratios), default=0.0)
    bundle.checks = [
        Check(
            "classical_limit",
            converges,
            max(errors) if degenerate else worst_ratio,
            tol.degenerate if degenerate else tol.ratio_high - 0.5,
        )
    ]
    bundle.table = (
        ["t", "error", "ratio"],
        [[t, e, r] for t, e, r in table.rows],
    )
    bundle.plot = (
        [("E(t)", [r[0] for r in table.rows], [r[1] for r in table.rows])],
        "classical-limit error vs t",
        "t",
        "E(t)",
        True,
    )
    return bundle


def _cmd_normfield(config: RunConfig) -> ReportBundle:
    from .normfield import norm_curve

    tol = config.tolerances
    curve = norm_curve(config.symbols["f"], config.chart, config.t_values, config.grid)
    deltas = curve.deltas()
    checks = [
        Check("deltas_decreasing", curve.deltas_decreasing(), float(len(deltas)), 0.0, "monotone"),
        Check(
            "final_delta_fraction",
            curve.final_delta_fraction() <= tol.norm_delta_fraction,
            curve.final_delta_fraction(),
            tol.norm_delta_fraction,
        ),
    ]
    summary = {
        "zero_norm": curve.zero.value,
        "deltas": deltas,
        "reduced_equals_full": True,
        "note": "regular (reduced) picture only; equals the full norm on amenable charts",
    }
    cstar = curve.cstar_identity
    if cstar is not None:
        summary["cstar_identity_residual"] = cstar
        checks.append(
            Check("cstar_identity", cstar <= tol.cstar_identity, cstar, tol.cstar_identity)
        )
    rows = [[r.t, r.value, r.residual, r.size] for r in curve.rows]
    rows.append([curve.zero.t, curve.zero.value, curve.zero.residual, curve.zero.size])
    bundle = ReportBundle(command="normfield", summary=summary)
    bundle.checks = checks
    bundle.table = (["t", "norm", "residual", "size"], rows)
    bundle.plot = (
        [("norm(t)", [r.t for r in curve.rows], [r.value for r in curve.rows])],
        "operator norm vs t",
        "t",
        "norm",
        False,
    )
    return bundle


def _nan_none(x: float):
    return None if isinstance(x, float) and np.isnan(x) else x


_IMPLEMENTATIONS = {
    "validate": _cmd_validate,
    "algebroid": _cmd_algebroid,
    "bracket": _cmd_bracket,
    "fourier-check": _cmd_fourier_check,
    "deform": _cmd_deform,
    "normfield": _cmd_normfield,
}


def run_command(
    name: str, config: RunConfig, output_dir=None, plot: bool = False
) -> ReportBundle:
    """Execute one command and write its report files; prints nothing.

    Returns the bundle; ``bundle.passed`` drives the exit status and
    ``bundle.seconds`` is the command's wall time.  Under ``config.strict``
    every DecayWarning the command raises is an error.  A config that breaks
    the command's rules (:func:`groupoidlab.config.command_problems`) raises
    one ConfigError listing them.
    """
    problems = command_problems(name, config.symbols, config.t_values)
    if problems:
        raise ConfigError(problems)
    start = time.perf_counter()
    with warnings.catch_warnings():
        if config.strict:
            warnings.simplefilter("error", DecayWarning)
        bundle = _IMPLEMENTATIONS[name](config)
    bundle.seconds = time.perf_counter() - start

    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = name.replace("-", "_")
        summary_path = out / f"{stem}_summary.json"
        write_json(summary_path, bundle.finalize(config.raw, config.strict))
        bundle.files.append(str(summary_path))
        if bundle.table is not None:
            csv_path = out / f"{stem}.csv"
            write_csv(csv_path, *bundle.table)
            bundle.files.append(str(csv_path))
        if plot and bundle.plot is not None:
            from .plots import write_svg_plot

            svg_path = out / f"{stem}.svg"
            write_svg_plot(svg_path, *bundle.plot)
            bundle.files.append(str(svg_path))
    return bundle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="groupoidlab",
        description="chart-level groupoid laws, brackets, deformation and norm curves",
    )
    parser.add_argument("command", choices=tuple(_IMPLEMENTATIONS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--output", default=None, help="directory for report files")
    parser.add_argument("--plot", action="store_true", help="emit SVG plots")
    parser.add_argument("--strict", action="store_true", help="promote decay warnings to errors")
    parser.add_argument("--seed", type=int, default=None, help="sampling seed override")
    args = parser.parse_args(argv)
    if args.output is not None and Path(args.output).exists() and not Path(args.output).is_dir():
        parser.error(f"--output {args.output} exists and is not a directory")

    try:
        config = load_config(args.config, strict=args.strict, seed=args.seed, command=args.command)
        bundle = run_command(args.command, config, args.output, args.plot)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except (GroupoidLabError, OSError, MemoryError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        if args.output is not None:
            try:
                out = Path(args.output)
                out.mkdir(parents=True, exist_ok=True)
                write_json(
                    out / f"{args.command.replace('-', '_')}_error.json",
                    {"command": args.command, "error": str(exc)},
                )
            except OSError as write_exc:
                print(f"error report not written: {write_exc}", file=sys.stderr)
        return 1

    print(
        f"[groupoidlab] {args.command} finished in {bundle.seconds:.3f} s"
        " (timing is not part of the report files)",
        file=sys.stderr,
    )
    for check in bundle.checks:
        status = "PASS" if check.passed else "FAIL"
        line = "%s: %s (value %.6g, threshold %.6g)" % (check.name, status, check.value, check.threshold)
        print(f"[groupoidlab] {line}", file=sys.stderr)
    return 0 if bundle.passed else 1


if __name__ == "__main__":
    sys.exit(main())

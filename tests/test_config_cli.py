import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import groupoidlab as gl
from groupoidlab.cli import main, run_command
from groupoidlab.errors import ConfigError
from groupoidlab.reports import _CSV_BLOCK_ROWS, config_hash, format_number, write_csv

from conftest import CUSTOM_AX_PLUS_B

CONFIGS = Path(__file__).parent.parent / "configs"


def minimal_config(**overrides):
    raw = {
        "chart": {"builtin": "pair", "params": {"n": 1}},
        "grid": {
            "base": [{"half_width": 4.0, "intervals": 16}],
            "fiber": [{"half_width": 8.0, "intervals": 16}],
        },
    }
    raw.update(overrides)
    return raw


def test_minimal_config_fills_defaults():
    config = gl.build_config(minimal_config())
    assert config.fd_step == 1e-3
    assert config.workers == 1
    assert config.seed == 2024
    assert config.sample_count == 100
    assert config.strict is False
    assert config.tolerances.axiom == 1e-10


def test_t_zero_rejected():
    with pytest.raises(ConfigError, match="t must be nonzero in sweep"):
        gl.build_config(minimal_config(t_values=[0.2, 0.0, 0.1]))


def test_strict_decay_violation_names_symbol():
    raw = minimal_config(
        symbols={"f": [{"x_widths": [1.0], "xi_widths": [0.05]}]}, strict=True
    )
    with pytest.raises(ConfigError, match="symbol 'f' term 0 only decays to"):
        gl.build_config(raw)


def test_all_violations_reported_not_just_first():
    raw = minimal_config(t_values=[0.0, 0.2], fd_step=-1.0, workers=0)
    with pytest.raises(ConfigError) as excinfo:
        gl.build_config(raw)
    text = "; ".join(excinfo.value.violations)
    assert "t must be nonzero" in text
    assert "fd_step" in text
    assert "workers" in text
    assert len(excinfo.value.violations) >= 3


def test_unknown_tolerance_rejected():
    with pytest.raises(ConfigError, match="unknown tolerance"):
        gl.build_config(minimal_config(tolerances={"no_such": 1.0}))


def test_grid_chart_dimension_mismatch():
    raw = minimal_config()
    raw["grid"]["fiber"].append({"half_width": 4.0, "intervals": 16})
    with pytest.raises(ConfigError, match="fiber axes but the chart"):
        gl.build_config(raw)


def test_fiber_axis_must_have_even_intervals():
    raw = minimal_config()
    raw["grid"]["fiber"][0]["intervals"] = 15
    with pytest.raises(ConfigError, match="even interval count"):
        gl.build_config(raw)


def test_parse_error_reports_line_and_column(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "chart": [,]\n}\n')
    with pytest.raises(ConfigError, match=r"line 2, column"):
        gl.load_config(bad)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        gl.load_config(tmp_path / "nope.json")


def test_custom_chart_config_loads():
    config = gl.load_config(CONFIGS / "corrupted_validate.json")
    assert config.chart.name == "corrupted_pair"
    assert config.chart.base_dim == 1


# -- command dispatch ------------------------------------------------------------

def test_run_command_unknown_name():
    config = gl.build_config(minimal_config())
    with pytest.raises(ConfigError, match="unknown command"):
        run_command("frobnicate", config)


def test_bracket_requires_symbols():
    config = gl.build_config(minimal_config())
    with pytest.raises(ConfigError, match="missing symbol"):
        run_command("bracket", config)


def test_exit_codes(tmp_path):
    ok = main(
        [
            "validate",
            "--config",
            str(CONFIGS / "heisenberg_validate.json"),
            "--output",
            str(tmp_path / "ok"),
        ]
    )
    assert ok == 0
    fail = main(
        [
            "validate",
            "--config",
            str(CONFIGS / "corrupted_validate.json"),
            "--output",
            str(tmp_path / "fail"),
        ]
    )
    assert fail == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(minimal_config(t_values=[0.0])))
    assert main(["deform", "--config", str(bad_cfg)]) == 2
    assert main(["validate", "--config", str(CONFIGS / "heisenberg_validate.json"), "--seed", "-1"]) == 2

    summary = json.loads((tmp_path / "fail" / "validate_summary.json").read_text())
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    assert "associativity" in failed


def test_summary_embeds_hash_and_version(tmp_path):
    code = main(
        [
            "validate",
            "--config",
            str(CONFIGS / "heisenberg_validate.json"),
            "--output",
            str(tmp_path),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "validate_summary.json").read_text())
    raw = json.loads((CONFIGS / "heisenberg_validate.json").read_text())
    assert summary["config_sha256"] == config_hash(raw)
    assert summary["version"] == gl.__version__
    assert summary["passed"] is True


# -- bad paths and the stderr contract ------------------------------------------------

VALIDATE = str(CONFIGS / "heisenberg_validate.json")


def _unreadable_config(tmp_path, kind: str) -> Path:
    if kind == "directory":
        path = tmp_path / "config_dir"
        path.mkdir()
    elif kind == "not_utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "\u00e9"}'.encode("latin-1"))
    else:  # a path through a regular file: NotADirectoryError, an OSError
        (tmp_path / "plain").write_text("{}")
        path = tmp_path / "plain" / "config.json"
    return path


@pytest.mark.parametrize("kind", ["directory", "not_utf8", "under_a_file"])
def test_unreadable_config_is_a_config_error(kind, tmp_path, capsys):
    path = _unreadable_config(tmp_path, kind)
    with pytest.raises(ConfigError, match="config file"):
        gl.load_config(path)
    assert main(["validate", "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:") and str(path) in lines[0], lines


def test_output_naming_a_file_is_a_usage_error_before_computing(tmp_path, capsys, monkeypatch):
    import groupoidlab.cli as cli

    monkeypatch.setattr(cli, "run_command", lambda *args: pytest.fail("the command ran"))
    existing = tmp_path / "report.txt"
    existing.write_text("keep me\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", "--config", VALIDATE, "--output", str(existing)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "is not a directory" in err and "Traceback" not in err
    assert existing.read_text() == "keep me\n"


@pytest.mark.parametrize("blocked", [("validate_summary.json",), ("validate_summary.json", "validate_error.json")])
def test_report_write_failure_exits_1_without_traceback(blocked, tmp_path, capsys):
    # a directory where a report file goes makes its write raise IsADirectoryError
    out = tmp_path / "out"
    for name in blocked:
        (out / name).mkdir(parents=True)
    assert main(["validate", "--config", VALIDATE, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("computation failed:") and "validate_summary.json" in err, err
    assert "Traceback" not in err
    assert (out / "validate_error.json").is_file() == (len(blocked) == 1)


def test_main_prints_the_timing_and_one_line_per_check(tmp_path, capsys):
    path = str(CONFIGS / "corrupted_validate.json")
    assert main(["validate", "--config", path, "--output", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert re.fullmatch(
        r"\[groupoidlab\] validate finished in \d+\.\d{3} s \(timing is not part of the report files\)",
        lines[0],
    )
    checks = json.loads((tmp_path / "validate_summary.json").read_text())["checks"]
    assert len(lines) == 1 + len(checks)
    for line, check in zip(lines[1:], checks):
        status = "PASS" if check["passed"] else "FAIL"
        value, threshold = float(check["value"]), float(check["threshold"])
        assert line == f"[groupoidlab] {check['name']}: {status} (value {value:.6g}, threshold {threshold:.6g})"
    assert any(line.endswith(")") and ": FAIL (" in line for line in lines[1:])


def test_run_command_writes_nothing_to_stderr(tmp_path, capsys):
    bundle = run_command("validate", gl.load_config(VALIDATE), tmp_path)
    assert bundle.passed and bundle.seconds > 0.0
    assert capsys.readouterr() == ("", "")


# -- strict runs and the decay contract ------------------------------------------------

def _config_errors(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("config error:")]


def test_strict_flag_and_strict_key_reject_the_same_symbol(tmp_path, capsys):
    raw = json.loads((CONFIGS / "heisenberg_fourier.json").read_text())
    raw["symbols"]["f"][0]["xi_widths"] = [0.1, 0.1, 0.1]
    flag_cfg, key_cfg = tmp_path / "flag.json", tmp_path / "key.json"
    flag_cfg.write_text(json.dumps(raw))
    key_cfg.write_text(json.dumps(dict(raw, strict=True)))
    assert main(["bracket", "--config", str(flag_cfg), "--strict"]) == 2
    flag_errors = _config_errors(capsys)
    assert main(["bracket", "--config", str(key_cfg)]) == 2
    assert _config_errors(capsys) == flag_errors
    assert len(flag_errors) == 1 and "symbol 'f' term 0 only decays to" in flag_errors[0]


def test_strict_flag_keeps_the_file_hash(tmp_path):
    path = CONFIGS / "heisenberg_validate.json"
    assert main(["validate", "--config", str(path), "--output", str(tmp_path), "--strict"]) == 0
    summary = json.loads((tmp_path / "validate_summary.json").read_text())
    assert summary["strict"] is True
    assert summary["config_sha256"] == config_hash(json.loads(path.read_text()))


def test_deform_strict_fails_on_the_decay_of_a_derived_symbol(tmp_path, capsys):
    # the bracket target samples derivatives of f and g; one term of them only
    # decays to 4.2e-12 at the grid edge, above the 1e-12 per-term threshold,
    # and the message names that derived symbol
    path = str(CONFIGS / "ax_plus_b_deform.json")
    assert main(["deform", "--config", path]) == 0
    assert main(["deform", "--config", path, "--strict", "--output", str(tmp_path)]) == 1
    assert "computation failed: d/dxi_2 (xi_2 f) term 1 only decays to" in capsys.readouterr().err
    assert "only decays to" in json.loads((tmp_path / "deform_error.json").read_text())["error"]


@pytest.mark.parametrize("name, decay_ok", [("heisenberg_fourier", False), ("pair1_fourier", True)])
def test_bracket_decay_ok_describes_the_written_bracket(name, decay_ok, tmp_path):
    # heisenberg_fourier's bracket is still 2.3e-6 of its peak at the grid edge
    assert main(["bracket", "--config", str(CONFIGS / f"{name}.json"), "--output", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "bracket_summary.json").read_text())
    assert summary["results"]["decay_ok"] is decay_ok


def test_reruns_are_byte_identical(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert (
            main(
                [
                    "bracket",
                    "--config",
                    str(CONFIGS / "pair1_fourier.json"),
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        outs.append(out)
    for name in ("bracket_summary.json", "bracket.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    outs = []
    for run, workers in (("w1", "1"), ("w4", "4")):
        out = tmp_path / run
        assert (
            main(
                [
                    "deform",
                    "--config",
                    str(CONFIGS / "pair1_deform.json"),
                    "--output",
                    str(out),
                    "--plot",
                    "--workers",
                    workers,
                ]
            )
            == 0
        )
        outs.append(out)
    for name in ("deform_summary.json", "deform.csv", "deform.svg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_csv_numbers_roundtrip(tmp_path):
    out = tmp_path / "roundtrip"
    main(["deform", "--config", str(CONFIGS / "pair1_deform.json"), "--output", str(out)])
    lines = (out / "deform.csv").read_text().strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header == "t,error,ratio"
    for row in rows:
        t, err, ratio = row.split(",")
        assert format_number(float(t)) == t
        assert format_number(float(err)) == err


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(max_examples=200, deadline=None)
def test_format_number_roundtrips_floats(x):
    assert float(format_number(x)) == x


SPECIAL_FLOATS = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1 / 3]


@pytest.mark.parametrize("ncol", [1, 5])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_float_table_blocks_write_the_bytes_of_format_number(edge, ncol, tmp_path):
    # a float array goes through the row-block path, the same rows as lists
    # through format_number; rows around the block edge cover a short last block
    rows = _CSV_BLOCK_ROWS + edge
    rng = np.random.default_rng(rows * ncol)
    table = rng.standard_normal((rows, ncol)) * 10.0 ** rng.integers(-300, 300, (rows, ncol))
    flat = table.reshape(-1)
    flat[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    flat[-len(SPECIAL_FLOATS) :] = SPECIAL_FLOATS
    header = [f"c{i}" for i in range(ncol)]
    write_csv(tmp_path / "blocks.csv", header, table)
    write_csv(tmp_path / "cells.csv", header, table.tolist())
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "cells.csv").read_bytes()
    assert written.count(b"\n") == rows + 1


def test_seed_flag_changes_sampling(tmp_path):
    # the corrupted chart's associativity residual varies continuously with the
    # sample set, so distinct seeds must produce distinct residuals
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out, seed in ((out1, "7"), (out2, "8")):
        main(
            [
                "validate",
                "--config",
                str(CONFIGS / "corrupted_validate.json"),
                "--output",
                str(out),
                "--seed",
                seed,
            ]
        )
    a = json.loads((out1 / "validate_summary.json").read_text())
    b = json.loads((out2 / "validate_summary.json").read_text())
    assert a["results"]["associativity"] != b["results"]["associativity"]


# -- malformed configs and the shared sweep rule -------------------------------------

def _custom_chart_with_one_product_expression():
    raw = json.loads((CONFIGS / "ax_plus_b_deform.json").read_text())
    chart = dict(CUSTOM_AX_PLUS_B, product=CUSTOM_AX_PLUS_B["product"][:1])
    raw["chart"] = {"custom": chart}
    return raw


def _nan_half_width():
    raw = minimal_config()
    raw["grid"]["base"][0]["half_width"] = float("nan")
    return raw


def _grid_override(**grid) -> dict:
    raw = minimal_config()
    raw["grid"].update(grid)
    return raw


def _custom_pair_dims(base_dim) -> dict:
    raw = _custom_pair_chart(1.0)
    raw["chart"]["custom"]["base_dim"] = base_dim
    return raw


def _pair1_deform(**overrides) -> dict:
    """The shipped ``pair1_deform`` config with top-level keys replaced."""
    return dict(json.loads((CONFIGS / "pair1_deform.json").read_text()), **overrides)


def _custom_pair_chart(unit_weight) -> dict:
    """``minimal_config`` with the pair chart written as a custom chart of the given unit weight."""
    return minimal_config(
        chart={
            "custom": {
                "name": "custom_pair",
                "base_dim": 1,
                "fiber_dim": 1,
                "source_map": [["+", "u1", "v1"]],
                "product": [["+", "v1", "w1"]],
                "unit_weight": unit_weight,
                "base_box": [[-10.0, 10.0]],
                "fiber_box": [[-10.0, 10.0]],
            }
        }
    )


MALFORMED = [
    ("custom_expression_count", _custom_chart_with_one_product_expression(), "product needs 2"),
    ("string_tolerance", minimal_config(tolerances={"axiom": "tight"}), "tolerance"),
    ("string_t_value", minimal_config(t_values=[0.2, "0.1"]), "t_values"),
    ("symbol_terms_object", minimal_config(symbols={"f": {"xi_widths": [1.0]}}), "symbol 'f'"),
    ("nan_t_value", minimal_config(t_values=[0.2, float("nan")]), "t_values"),
    ("nan_half_width", _nan_half_width(), "grid.base[0]"),
    ("nan_fd_step", minimal_config(fd_step=float("nan")), "fd_step"),
    ("integer_fd_step_beyond_float", minimal_config(fd_step=10**400), "fd_step"),
    ("infinite_tolerance", minimal_config(tolerances={"axiom": float("inf")}), "tolerance"),
    ("chart_params_not_object", minimal_config(chart={"builtin": "pair", "params": 5}), "chart 'pair'"),
    ("nan_symbol_width", minimal_config(symbols={"f": [{"xi_widths": [float("nan")]}]}), "xi_widths"),
    ("infinite_symbol_power", minimal_config(symbols={"f": [{"xi_powers": [float("inf")]}]}), "symbol 'f'"),
    ("string_strict", minimal_config(strict="no"), "strict"),
    ("power_iteration_tolerance", minimal_config(tolerances={"power_iteration": 1e-8}), "unknown tolerance"),
    ("constant_zero_division", _custom_pair_chart(["/", 1.0, 0.0]), "division by a constant zero"),
    ("non_geometric_sweep", _pair1_deform(t_values=[0.2, 0.1, 0.02]), "geometric progression"),
    # found by test_config_fuzz.py; each ended in a traceback
    ("builtin_name_not_a_string", minimal_config(chart={"builtin": [[1.0, -1.0]]}), "unknown built-in"),
    (
        "chart_param_overflow",
        minimal_config(chart={"builtin": "abelian_bundle", "params": {"n": 1e308, "m": 1}}),
        "chart 'abelian_bundle'",
    ),
    ("custom_dim_infinite", _custom_pair_dims(float("inf")), "custom chart"),
    ("base_axes_not_a_list", _grid_override(base=None), "'base' axis list"),
    ("grid_too_large", _grid_override(fiber=[{"half_width": 8.0, "intervals": 1e308}]), "nodes"),
    ("negative_seed", minimal_config(seed=-1), "seed must be a nonnegative integer"),
    ("fractional_intervals", _grid_override(fiber=[{"half_width": 8.0, "intervals": 64.9}]), "intervals must be an integer"),
    ("boolean_seed", minimal_config(seed=True), "seed must be a nonnegative integer"),
    ("boolean_workers", minimal_config(workers=True), "workers must be a positive integer"),
    ("boolean_sample_count", minimal_config(sample_count=True), "sample_count must be a positive integer"),
    ("unsupported_quadrature", _grid_override(quadrature="simpson"), "unsupported quadrature 'simpson'"),
]


@pytest.mark.parametrize("raw, violation", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_config_exits_2(raw, violation, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))  # Python's json writes and reads NaN / Infinity
    assert main(["deform", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("config error:")]
    assert any(violation in line for line in lines), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "sweep, accepted",
    [([0.1, 0.2], False), ([0.2, 0.0], False), ([-0.4, -0.2, -0.1], True)],
)
def test_config_field_and_norm_curve_share_the_sweep_rule(sweep, accepted):
    f = gl.SymbolSpec.gaussian(1, 1)
    config = gl.build_config(minimal_config())
    attempts = [
        lambda: gl.build_config(minimal_config(t_values=sweep)),
        lambda: gl.DeformationField(config.chart, config.grid, f, f, tuple(sweep)),
        lambda: gl.norm_curve(f, config.chart, sweep, config.grid),
    ]
    verdicts = []
    for attempt in attempts:
        try:
            attempt()
            verdicts.append(True)
        except gl.GroupoidLabError:
            verdicts.append(False)
    assert verdicts == [accepted] * 3


@pytest.mark.parametrize("fiber_intervals", [16, 15])  # 15: no grid, so no chart-domain check
def test_config_lists_the_decrease_violation_once(fiber_intervals):
    raw = minimal_config(t_values=[0.1, 0.2])
    raw["grid"]["fiber"][0]["intervals"] = fiber_intervals
    with pytest.raises(ConfigError) as excinfo:
        gl.build_config(raw)
    assert sum("decrease" in v for v in excinfo.value.violations) == 1


def test_deform_on_custom_chart_matches_builtin():
    builtin = json.loads((CONFIGS / "ax_plus_b_deform.json").read_text())
    for axis in builtin["grid"]["fiber"]:
        axis["intervals"] = 16
    custom = dict(builtin, chart={"custom": CUSTOM_AX_PLUS_B})
    expected = run_command("deform", gl.build_config(builtin)).summary
    got = run_command("deform", gl.build_config(custom)).summary
    assert [row[0] for row in got["rows"]] == [0.2, 0.1, 0.05]
    for mine, reference in zip(got["rows"], expected["rows"]):
        for value, ref in zip(mine[1:], reference[1:]):
            if ref is not None:
                assert value == pytest.approx(ref, rel=1e-12)
    assert got["observed_limit_constant"] == pytest.approx(
        expected["observed_limit_constant"], rel=1e-12
    )


def test_deform_measures_against_the_bracket_under_the_unit_weight(tmp_path):
    # the deformed product carries the weight through its Haar density, so an
    # unweighted bracket target leaves an O(1) error and ratios near 0.6-0.7
    raw = _pair1_deform(
        chart={"builtin": "pair", "params": {"n": 1, "mu_e": ["exp", ["-", ["*", 0.05, "u1", "u1"]]]}}
    )
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["deform", "--config", str(path), "--output", str(out)]) == 0
    rows = json.loads((out / "deform_summary.json").read_text())["results"]["rows"]
    ratios = [row[2] for row in rows[1:]]
    assert len(ratios) == 2 and all(0.35 <= r <= 0.65 for r in ratios), ratios


def _custom_line_group(product) -> dict:
    """A deform config on the 1-d custom chart with the given product tree; t v1 reaches 1."""
    chart = {"name": "line", "base_dim": 0, "fiber_dim": 1, "source_map": [], "product": [product]}
    chart.update(unit_weight=1.0, base_box=[], fiber_box=[[-4.0, 4.0]])
    return {
        "chart": {"custom": chart},
        "grid": {"base": [], "fiber": [{"half_width": 2.0, "intervals": 8}]},
        "symbols": {"f": [{"xi_widths": [1.0]}], "g": [{"xi_powers": [1], "xi_widths": [1.0]}]},
        "t_values": [0.5, 0.25, 0.125],
    }


@pytest.mark.parametrize(
    "product, message",
    [
        # d p / d w1 = 1 - v1 vanishes at v1 = 1
        (["+", "v1", "w1", ["*", -1.0, "v1", "w1"]], "singular at the unit section"),
        # d p / d w1 = v1 / v1 is 0/0 at v1 = 0: a NaN density
        (["+", "v1", ["*", "w1", ["/", "v1", "v1"]]], "singular at the unit section"),
        # d p / d w1 = 1 + exp(1000 v1) overflows, so the solved w times it is inf * 0
        (["+", "v1", ["*", ["+", 1.0, ["exp", ["*", 1000.0, "v1"]]], "w1"]], "violates its contract: residual nan"),
    ],
)
def test_a_singular_or_non_finite_product_solve_exits_1(product, message, tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(_custom_line_group(product)))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["deform", "--config", str(path), "--output", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "computation failed: " in err and message in err, err
    assert "Traceback" not in err


def test_non_finite_summary_value_fails_without_traceback(tmp_path, capsys):
    # a unit weight of 0/0 puts NaN into min_unit_weight; standard JSON has no NaN
    raw = _custom_pair_chart(["/", ["-", "u1", "u1"], ["-", "u1", "u1"]])
    path = tmp_path / "nan_weight.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):  # numpy's 0/0
        code = main(["validate", "--config", str(path), "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "computation failed" in err and "results.min_unit_weight" in err, err
    assert "Traceback" not in err
    assert not (out / "validate_summary.json").exists()
    reject = lambda name: pytest.fail(f"non-standard JSON constant {name}")
    error = json.loads((out / "validate_error.json").read_text(), parse_constant=reject)
    assert "non-finite" in error["error"]

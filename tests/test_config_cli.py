import json
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import groupoidlab as gl
from groupoidlab.cli import main, run_command
from groupoidlab.errors import ConfigError
from groupoidlab import floattext
from groupoidlab.floattext import _CSV_BLOCK_ROWS, _float_blocks, _formatter_tables
from groupoidlab.reports import config_hash, format_number, write_csv

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
    assert not hasattr(config, "fd_step")
    assert not hasattr(config, "workers")
    assert config.seed == 2024
    assert config.sample_count == 100
    assert config.strict is False
    assert config.tolerances.axiom == 1e-10


def test_t_zero_rejected():
    with pytest.raises(ConfigError, match="t must be nonzero in sweep"):
        gl.build_config(minimal_config(t_values=[0.2, 0.0, 0.1]))


def test_strict_decay_violation_names_symbol():
    raw = minimal_config(symbols={"f": [{"x_widths": [1.0], "xi_widths": [0.05]}]})
    with pytest.raises(ConfigError, match="symbol 'f' term 0 only decays to"):
        gl.build_config(raw, strict=True)


def test_all_violations_reported_not_just_first():
    raw = minimal_config(t_values=[0.0, 0.2], fd_step=1e-3, seed=-1)
    with pytest.raises(ConfigError) as excinfo:
        gl.build_config(raw)
    text = "; ".join(excinfo.value.violations)
    assert "t must be nonzero" in text
    assert "unknown config key(s) ['fd_step']" in text
    assert "seed must be a nonnegative integer" in text
    assert len(excinfo.value.violations) >= 3


@pytest.mark.parametrize("overrides", [{"t_value": [0.1]}, {"seed": -1}])
def test_an_earlier_violation_hides_no_grid_violation(overrides):
    raw = minimal_config(chart={"builtin": "pair", "params": {"n": 1, "half_width": 4.0}}, **overrides)
    raw["grid"]["base"][0]["half_width"] = 5.0
    with pytest.raises(ConfigError) as excinfo:
        gl.build_config(raw)
    assert len(excinfo.value.violations) == 2
    assert excinfo.value.violations[-1] == "base axis 0 leaves the chart base box"


def test_a_chart_violation_hides_no_symbol_violation():
    raw = minimal_config(chart={"builtin": "no_such"}, symbols={"f": [{"xi_width": [0.5]}], "g": {}})
    with pytest.raises(ConfigError) as excinfo:
        gl.build_config(raw)
    text = "; ".join(excinfo.value.violations)
    assert "unknown built-in chart 'no_such'" in text
    assert "unknown symbol 'f' term 0 key(s) ['xi_width']" in text
    assert "symbol 'g': terms must be a list of objects" in text


def test_algebroid_summary_records_the_constant_step(tmp_path):
    # no config sets the finite-difference step; the summary still reports the one used
    assert main(["algebroid", "--config", str(CONFIGS / "pair1_deform.json"), "--output", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "algebroid_summary.json").read_text())
    assert summary["results"]["fd_step"] == gl.charts.FD_STEP == 1e-3


def test_base_axis_outside_the_chart_box_is_reported_once(tmp_path, capsys):
    # leaving the box implies leaving no finite-difference margin: one problem, not both
    raw = minimal_config(chart={"builtin": "pair", "params": {"n": 1, "half_width": 4.0}})
    raw["grid"]["base"][0]["half_width"] = 5.0
    with pytest.raises(ConfigError) as excinfo:
        gl.build_config(raw)
    assert [v for v in excinfo.value.violations if "base axis 0" in v] == ["base axis 0 leaves the chart base box"]
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(raw))
    assert main(["bracket", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("base axis 0") == 1


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


def test_an_allocation_that_does_not_fit_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError (_ArrayMemoryError) for an array larger than the
    # address space allows, e.g. a huge sample_count or grid
    from groupoidlab import charts

    def too_large(*args):
        raise MemoryError("Unable to allocate 8.73 TiB for an array")

    monkeypatch.setattr(charts, "validate_axioms", too_large)
    out = tmp_path / "out"
    assert main(["validate", "--config", VALIDATE, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "computation failed: Unable to allocate 8.73 TiB for an array\n", err
    error = json.loads((out / "validate_error.json").read_text())
    assert error == {"command": "validate", "error": "Unable to allocate 8.73 TiB for an array"}


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


def test_strict_flag_rejects_a_symbol_that_does_not_decay(tmp_path, capsys):
    raw = json.loads((CONFIGS / "heisenberg_fourier.json").read_text())
    raw["symbols"]["f"][0]["xi_widths"] = [0.1, 0.1, 0.1]
    path = tmp_path / "slow_decay.json"
    path.write_text(json.dumps(raw))
    assert main(["bracket", "--config", str(path), "--strict"]) == 2
    errors = _config_errors(capsys)
    assert len(errors) == 1 and "symbol 'f' term 0 only decays to" in errors[0]
    assert main(["bracket", "--config", str(path)]) == 0


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


def test_fourier_check_strict_fails_on_a_grid_too_coarse_for_the_symbols(capsys):
    # heisenberg_fourier's grid does not resolve the decay of its symbols, their
    # bracket samples or their transforms; a strict run fails on the first of these
    path = str(CONFIGS / "heisenberg_fourier.json")
    assert main(["fourier-check", "--config", path]) == 0
    assert main(["fourier-check", "--config", path, "--strict"]) == 1
    assert "computation failed:" in capsys.readouterr().err


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


def test_workers_flag_is_a_usage_error(tmp_path, capsys):
    # deform runs on one thread; there is no worker count to set
    with pytest.raises(SystemExit) as excinfo:
        main(["deform", "--config", str(CONFIGS / "pair1_deform.json"), "--output", str(tmp_path / "out"), "--workers", "2"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --workers 2" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def _percent_17g_table(table: np.ndarray) -> bytes:
    """The CSV lines of a float table, one ``'%.17g' %`` call per cell."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist()).encode()


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=96), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_float_table_matches_percent_17g_on_raw_bit_patterns(bits, ncol):
    # any 64-bit pattern is a float64: normal, subnormal, zero, inf or nan of either sign
    bits += [0] * (-len(bits) % ncol)
    table = np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, ncol)
    assert b"".join(_float_blocks(table, ())) == _percent_17g_table(table)


def _with_neighbours(values, steps=1):
    """``values`` and the ``steps`` floats on either side of each."""
    out = [np.asarray(values, dtype=float)]
    for direction in (np.inf, -np.inf):
        x = out[0]
        for _ in range(steps):
            x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


def test_float_table_matches_percent_17g_on_its_edge_cases():
    exponents = range(-323, 309)
    powers = np.array([float(f"1e{e}") for e in exponents])
    # some powers' nearest doubles lie below them, close enough to round up across them
    assert any(Fraction(x) < Fraction(10) ** e and "%.17g" % x == "1e%+03d" % e for e, x in zip(exponents, powers))
    halves = 2.0 ** -np.arange(1, 1075)  # exact decimals; 2**-25 = 2.98023223876953125e-08 ends in a tie
    # 11 integer digits and 7 decimals, the last a 5: exact ties that round half to even either way
    ties = [whole + odd / 128 for whole in (12345678901, 98765432109) for odd in range(1, 128, 2)]
    cases = np.concatenate([
        _with_neighbours(powers),
        _with_neighbours([1e-5, 1e-4, 1e16, 1e17, 9.99995e-5, 9.9999999999999995e-5, 99999999999999999.0], 8),
        halves,
        ties,
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308],
        _with_neighbours([1e-280, 1e280], 4),
    ])
    cases = np.concatenate([cases, -cases])
    cases = np.concatenate([cases, np.zeros(-len(cases) % 3)]).reshape(-1, 3)
    assert b"".join(_float_blocks(cases, ())) == _percent_17g_table(cases)


def test_float_table_formats_signed_zeros_without_the_fallback(monkeypatch):
    # a real symbol's bracket has an all-zero real column: its zeros of either
    # sign take the fast path, next to ordinary cells, byte for byte
    _formatter_tables()

    def fallback(x):
        raise AssertionError(f"{len(x)} cells took the '%.17g' fallback")

    monkeypatch.setattr(floattext, "_fallback_text", fallback)
    rng = np.random.default_rng(21)
    # below 1e10 a 17-digit rounding is seldom near a tie (which falls back);
    # this seed puts no cell there
    table = rng.standard_normal((3000, 3)) * 10.0 ** rng.integers(-20, 10, (3000, 3))
    zeros = rng.random(table.shape) < 0.6
    table[zeros] = np.where(rng.random(table.shape) < 0.5, 0.0, -0.0)[zeros]
    assert np.signbit(table[zeros]).any() and not np.signbit(table[zeros]).all()
    assert b"".join(_float_blocks(table, ())) == _percent_17g_table(table)


# (base node counts, fiber node counts): base dimension 0, 1 and 2 with 1-3 fiber axes
GRID_TABLE_SHAPES = [
    ((), (5,)), ((), (3, 5)), ((), (3, 5, 3)),
    ((4,), (3,)), ((4,), (5, 3)), ((4,), (3, 3, 5)),
    ((2, 3), (3,)), ((3, 2), (5, 3)), ((3, 2), (3, 3, 5)),
]


@pytest.mark.parametrize("edge", [-1, 0, 1])
@pytest.mark.parametrize("base, fiber", GRID_TABLE_SHAPES)
def test_grid_table_writes_the_bytes_of_format_number(base, fiber, edge, tmp_path, monkeypatch):
    # the bracket's grid table: coordinates written from each axis's nodes
    # against the same table with every point repeated into its columns and
    # written cell by cell; the block size is set one row around the table so
    # that a short last block, an exact fit and one block too many are covered
    grid = gl.GridSpec(
        base=tuple(gl.Axis(-1.25 - k, 0.1 + k / 3, count) for k, count in enumerate(base)),
        fiber=tuple(gl.Axis.centered(0.7 * (k + 1), count - 1) for k, count in enumerate(fiber)),
    )
    rows = int(np.prod(grid.shape))
    monkeypatch.setattr(floattext, "_CSV_BLOCK_ROWS", rows - edge)
    rng = np.random.default_rng(rows)
    values = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-300, 300, (rows, 2))
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 1e-300, -1e300]
    values.reshape(-1)[: len(special)] = special
    values.reshape(-1)[-len(special) :] = special[::-1]
    base_pts, fiber_pts = grid.base_points_flat(), grid.fiber_points_flat()
    points = np.column_stack((np.repeat(base_pts, len(fiber_pts), 0), np.tile(fiber_pts, (len(base_pts), 1))))
    header = [f"c{i}" for i in range(points.shape[1] + 2)]
    write_csv(tmp_path / "grid.csv", header, values, [ax.nodes for ax in grid.base + grid.fiber])
    write_csv(tmp_path / "cells.csv", header, np.column_stack((points, values)).tolist())
    written = (tmp_path / "grid.csv").read_bytes()
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


def _custom_pair_chart(unit_weight, **spec) -> dict:
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
                **spec,
            }
        }
    )


def _base_axis_in_the_margin() -> dict:
    """A base axis inside the chart's base box [-4, 4] whose end nodes lie within FD_STEP of its edges."""
    raw = _custom_pair_chart(1.0, base_box=[[-4.0, 4.0]])
    raw["grid"]["base"][0]["half_width"] = 3.9995
    return raw


def test_a_base_axis_is_centred_on_the_chart_base_box(tmp_path):
    raw = _custom_pair_chart(1.0, base_box=[[0.0, 8.0]])
    raw["grid"]["base"][0]["half_width"] = 3.0
    config = gl.build_config(raw)
    assert config.grid.base[0].center == 4.0
    assert config.grid.base[0].nodes[[0, -1]].tolist() == [1.0, 7.0]
    assert config.grid.fiber[0].center == 0.0
    path = tmp_path / "offset.json"
    path.write_text(json.dumps(raw))
    assert main(["algebroid", "--config", str(path), "--output", str(tmp_path)]) == 0
    rows = (tmp_path / "algebroid.csv").read_text().splitlines()
    assert float(rows[1].split(",")[0]) == 1.0 and float(rows[-1].split(",")[0]) == 7.0


MALFORMED = [
    ("custom_expression_count", _custom_chart_with_one_product_expression(), "product needs 2"),
    ("string_tolerance", minimal_config(tolerances={"intertwining": "tight"}), "tolerance(s) ['intertwining']"),
    ("string_t_value", minimal_config(t_values=[0.2, "0.1"]), "t_values"),
    ("symbol_terms_object", minimal_config(symbols={"f": {"xi_widths": [1.0]}}), "symbol 'f'"),
    ("nan_t_value", minimal_config(t_values=[0.2, float("nan")]), "t_values"),
    ("nan_half_width", _nan_half_width(), "grid.base[0]"),
    # the finite-difference step is no setting: the key is rejected whatever its value
    ("nan_fd_step", minimal_config(fd_step=float("nan")), "unknown config key(s) ['fd_step']"),
    ("integer_fd_step_beyond_float", minimal_config(fd_step=10**400), "unknown config key(s) ['fd_step']"),
    ("misspelt_key", minimal_config(t_value=[0.2, 0.1, 0.05]), "unknown config key(s) ['t_value']"),
    ("infinite_tolerance", minimal_config(tolerances={"intertwining": float("inf")}), "tolerance(s) ['intertwining']"),
    ("chart_params_not_object", minimal_config(chart={"builtin": "pair", "params": 5}), "chart 'pair'"),
    ("nan_symbol_width", minimal_config(symbols={"f": [{"xi_widths": [float("nan")]}]}), "xi_widths"),
    ("infinite_symbol_power", minimal_config(symbols={"f": [{"xi_powers": [float("inf")]}]}), "symbol 'f'"),
    ("string_strict", minimal_config(strict="no"), "unknown config key(s) ['strict']"),
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
    ("workers_key", minimal_config(workers=1), "unknown config key(s) ['workers']"),
    ("boolean_sample_count", minimal_config(sample_count=True), "sample_count must be a positive integer"),
    ("fractional_seed", minimal_config(seed=2024.5), "seed must be a nonnegative integer"),
    ("fractional_sample_count", minimal_config(sample_count=100.5), "sample_count must be a positive integer"),
    ("zero_sample_count", minimal_config(sample_count=0.0), "sample_count must be a positive integer"),
    # found by test_config_fuzz.py: validate's candidate arrays passed numpy's size limit (a traceback)
    ("sample_count_beyond_any_array", minimal_config(sample_count=1e308), "sample_count must be a positive integer of at most 2^40"),
    ("unsupported_quadrature", _grid_override(quadrature="simpson"), "unknown grid key(s) ['quadrature']"),
    # a JSON boolean is not a number wherever a number is read
    ("boolean_half_width", _grid_override(base=[{"half_width": True, "intervals": 16}]), "half_width must be a number"),
    ("boolean_center", _grid_override(base=[{"half_width": 4.0, "intervals": 16, "center": False}]), "unknown grid.base[0] key(s) ['center']"),
    ("boolean_chart_param", minimal_config(chart={"builtin": "pair", "params": {"n": True}}), "parameter n must be a number"),
    ("boolean_symbol_power", minimal_config(symbols={"f": [{"x_powers": [True]}]}), "x_powers must hold numbers"),
    ("boolean_symbol_width", minimal_config(symbols={"f": [{"xi_widths": [True]}]}), "xi_widths must hold numbers"),
    ("boolean_symbol_coeff", minimal_config(symbols={"f": [{"coeff": True}]}), "coeff must hold numbers"),
    ("boolean_symbol_coeff_part", minimal_config(symbols={"f": [{"coeff": [1.0, False]}]}), "coeff must hold numbers"),
    ("boolean_custom_base_dim", _custom_pair_dims(True), "base_dim must be an integer, not true"),
    # nor is a JSON string, and a power or a dimension is an integer
    ("string_half_width", _grid_override(base=[{"half_width": "4.0", "intervals": 16}]), 'half_width must be a number, not "4.0"'),
    ("string_symbol_power", minimal_config(symbols={"f": [{"x_powers": ["1"]}]}), 'x_powers must hold numbers, not "1"'),
    ("string_symbol_coeff", minimal_config(symbols={"f": [{"coeff": "1"}]}), 'coeff must hold numbers, not "1"'),
    ("fractional_symbol_power", minimal_config(symbols={"f": [{"xi_powers": [1.5]}]}), "xi_powers must hold numbers: 1.5 is not an integer"),
    ("fractional_custom_base_dim", _custom_pair_dims(1.5), "base_dim must be an integer: 1.5 is not an integer"),
    # a value with one setting in use is a constant or derived: its key is rejected whatever its value
    ("tolerance_axiom", minimal_config(tolerances={"axiom": 1e-10}), "unknown tolerance name(s) ['axiom']"),
    ("grid_quadrature", _grid_override(quadrature="trapezoidal"), "unknown grid key(s) ['quadrature']"),
    ("axis_center", _grid_override(base=[{"half_width": 4.0, "intervals": 16, "center": 0.0}]), "unknown grid.base[0] key(s) ['center']"),
    ("strict_key", minimal_config(strict=True), "unknown config key(s) ['strict']"),
    ("custom_kind", _custom_pair_chart(1.0, kind="pair"), "unknown custom chart key(s) ['kind']"),
    # and a typo is no silent default
    ("axis_centre", _grid_override(base=[{"half_width": 4.0, "intervals": 16, "centre": 3.0}]), "unknown grid.base[0] key(s) ['centre']"),
    ("symbol_xi_width", minimal_config(symbols={"f": [{"xi_width": [0.5]}]}), "unknown symbol 'f' term 0 key(s) ['xi_width']"),
    # rules that no other row reaches
    ("root_not_an_object", [minimal_config()], "config root must be a JSON object"),
    ("too_few_intervals", _grid_override(fiber=[{"half_width": 8.0, "intervals": 6}]), "grid.fiber[0]: needs at least 8 intervals"),
    ("base_axis_in_the_margin", _base_axis_in_the_margin(), "base axis 0 leaves no 0.001 finite-difference margin"),
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


# an integral float reads as its integer, as an axis's intervals do
@pytest.mark.parametrize("key, value", [("seed", 2024.0), ("sample_count", 100.0)])
def test_integral_float_counts_are_accepted(key, value):
    read = getattr(gl.build_config(minimal_config(**{key: value})), key)
    assert read == value and type(read) is int


@pytest.mark.parametrize(
    "command, overrides, violations",
    [
        ("deform", {"t_values": [0.2, 0.1], "symbols": {"f": []}}, ["['g']", "at least three t values"]),
        ("normfield", {"t_values": [], "symbols": {"g": []}}, ["['f']", "the norm sweep needs at least one t value"]),
        # the flag is checked in the same pass as the file and the command's rules
        (
            "deform --seed -1",
            {"t_values": [0.2, 0.1], "symbols": {"f": []}},
            ["seed must be a nonnegative integer", "['g']", "at least three t values"],
        ),
    ],
)
def test_the_cli_lists_every_command_violation(command, overrides, violations, tmp_path, capsys):
    # the missing symbols and the command's own sweep rule, in one run
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_pair1_deform(**overrides)))
    assert main([*command.split(), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("config error:")]
    assert len(lines) == len(violations)
    assert all(want in line for want, line in zip(violations, lines)), lines
    assert "Traceback" not in err


def test_a_seed_flag_replaces_a_bad_file_seed(tmp_path):
    raw = _pair1_deform(seed=-1)
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(raw))
    assert main(["deform", "--config", str(path), "--seed", "5", "--output", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "deform_summary.json").read_text())
    assert summary["config_sha256"] == config_hash(raw)  # the file as read, not as overridden
    assert gl.load_config(path, seed=5).seed == 5


@pytest.mark.parametrize(
    "argv",
    [["frobnicate", "--config", str(CONFIGS / "pair1_deform.json")], ["deform"], []],
    ids=["unknown_command", "no_config", "nothing"],
)
def test_a_bad_command_line_exits_2_without_traceback(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: groupoidlab") and "Traceback" not in err


def test_options_may_come_before_the_command(tmp_path):
    argv = ["--config", str(CONFIGS / "pair1_deform.json"), "--output", str(tmp_path), "algebroid"]
    assert main(argv) == 0
    assert (tmp_path / "algebroid_summary.json").exists()


def test_a_non_finite_bracket_fails_the_antisymmetry_check(monkeypatch, capsys):
    # one NaN sample makes the bracket non-finite: its (g, f) bracket cancels it nowhere
    from groupoidlab import poisson

    op_values = poisson._op_values

    def with_nan(op, grid, name):
        values = np.array(op_values(op, grid, name))
        values.reshape(-1)[values.size // 2] = np.nan
        return values

    monkeypatch.setattr(poisson, "_op_values", with_nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["bracket", "--config", str(CONFIGS / "pair1_fourier.json")]) == 1
    err = capsys.readouterr().err
    assert "[groupoidlab] antisymmetry: FAIL (value nan" in err
    assert "Traceback" not in err


# every entry point that computes at one t, and a sweep through them, meet a zero t with one rule
ZERO_T_CALLS = {
    "deformed_product": lambda c, f: gl.deformed_product(c.chart, c.grid, f, f, 0.0),
    "scaled_commutator": lambda c, f: gl.scaled_commutator(c.chart, c.grid, f, f, 0.0),
    "limit_table": lambda c, f: gl.classical_limit_error_table(c.chart, c.grid, f, f, (0.2, 0.1, 0.0)),
    "pair_kernel_norm": lambda c, f: gl.pair_kernel_norm(f, 0.0, c.grid),
    "pair_cstar_identity_residual": lambda c, f: gl.pair_cstar_identity_residual(f, 0.0, c.grid),
    "norm_curve": lambda c, f: gl.norm_curve(f, c.chart, (0.2, 0.0), c.grid),
    "group_regular_norm": lambda c, f: gl.group_regular_norm(
        gl.SymbolSpec.gaussian(0, 3), gl.builtin_chart("heisenberg"), 0.0,
        gl.GridSpec(base=(), fiber=(gl.Axis.centered(5.0, 8),) * 3),
    ),
}


@pytest.mark.parametrize("call", ZERO_T_CALLS.values(), ids=ZERO_T_CALLS.keys())
def test_a_zero_t_raises_the_sweep_rule_everywhere(call):
    config = gl.build_config(minimal_config())
    with pytest.raises(gl.DomainError, match="^t must be nonzero in sweep$"):
        call(config, gl.SymbolSpec.gaussian(1, 1))


# three t values each, so the limit table's own rule (three or more, geometric) is not what rejects them
@pytest.mark.parametrize(
    "sweep, accepted",
    [([0.1, 0.2, 0.4], False), ([0.4, 0.2, 0.0], False), ([-0.4, -0.2, -0.1], True)],
)
def test_config_field_and_norm_curve_share_the_sweep_rule(sweep, accepted):
    f = gl.SymbolSpec.gaussian(1, 1)
    config = gl.build_config(minimal_config())
    attempts = [
        lambda: gl.build_config(minimal_config(t_values=sweep)),
        lambda: gl.classical_limit_error_table(config.chart, config.grid, f, f, sweep),
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

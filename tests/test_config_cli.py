import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import groupoidlab as gl
from groupoidlab.cli import main, run_command
from groupoidlab.errors import ConfigError
from groupoidlab.reports import config_hash, format_number

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
    assert config.grid.quadrature == "trapezoidal"
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

# the affine group of the line written as a custom chart; the same group as the
# built-in ax_plus_b chart with half_width 4
CUSTOM_AX_PLUS_B = {
    "name": "custom_ax_plus_b",
    "base_dim": 0,
    "fiber_dim": 2,
    "source_map": [],
    "product": [["+", "v1", "w1"], ["+", "v2", ["*", ["exp", "v1"], "w2"]]],
    "unit_weight": 1.0,
    "base_box": [],
    "fiber_box": [[-4.0, 4.0], [-4.0, 4.0]],
}


def _custom_chart_with_one_product_expression():
    raw = json.loads((CONFIGS / "ax_plus_b_deform.json").read_text())
    chart = dict(CUSTOM_AX_PLUS_B, product=CUSTOM_AX_PLUS_B["product"][:1])
    raw["chart"] = {"custom": chart}
    return raw


def _nan_half_width():
    raw = minimal_config()
    raw["grid"]["base"][0]["half_width"] = float("nan")
    return raw


MALFORMED = [
    ("custom_expression_count", _custom_chart_with_one_product_expression(), "product needs 2"),
    ("string_tolerance", minimal_config(tolerances={"axiom": "tight"}), "tolerance"),
    ("string_t_value", minimal_config(t_values=[0.2, "0.1"]), "t_values"),
    ("symbol_terms_object", minimal_config(symbols={"f": {"xi_widths": [1.0]}}), "symbol 'f'"),
    ("nan_t_value", minimal_config(t_values=[0.2, float("nan")]), "t_values"),
    ("nan_half_width", _nan_half_width(), "grid.base[0]"),
    ("nan_fd_step", minimal_config(fd_step=float("nan")), "fd_step"),
    ("infinite_tolerance", minimal_config(tolerances={"axiom": float("inf")}), "tolerance"),
    ("chart_params_not_object", minimal_config(chart={"builtin": "pair", "params": 5}), "chart 'pair'"),
    ("nan_symbol_width", minimal_config(symbols={"f": [{"xi_widths": [float("nan")]}]}), "xi_widths"),
    ("infinite_symbol_power", minimal_config(symbols={"f": [{"xi_powers": [float("inf")]}]}), "symbol 'f'"),
    ("string_strict", minimal_config(strict="no"), "strict"),
    ("power_iteration_tolerance", minimal_config(tolerances={"power_iteration": 1e-8}), "unknown tolerance"),
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
                assert value == pytest.approx(ref, rel=1e-6)
    assert got["observed_limit_constant"] == pytest.approx(
        expected["observed_limit_constant"], rel=1e-6
    )

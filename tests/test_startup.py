"""Start-up import graph: a CLI process loads only the layer its command runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupoidlab as gl

SRC = Path(gl.__file__).resolve().parent.parent
CONFIGS = Path(__file__).parent.parent / "configs"
LAYERS = ("algebroid", "deformation", "normfield", "poisson")


def _modules_after(code: str, report: str = "sorted(sys.modules)") -> set[str]:
    """``sys.modules`` (or the names ``report`` lists) of a fresh interpreter after ``code`` ran."""
    script = f"{code}\nimport json, sys\nprint(json.dumps({report}))\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _run_command(command: str, config: str, code: int = 0, output=None) -> str:
    argv = [command, "--config", str(CONFIGS / config)] + (["--output", str(output)] if output else [])
    return f"from groupoidlab.cli import main\nassert main({argv!r}) == {code}\n"


# the package's classes that dataclasses built, by name
DATACLASSES = (
    "sorted(name for module in list(sys.modules.values()) if module.__name__.startswith('groupoidlab.')"
    " for name, obj in vars(module).items()"
    " if isinstance(obj, type) and obj.__module__ == module.__name__ and hasattr(obj, '__dataclass_fields__'))"
)


def test_importing_the_package_imports_no_submodule():
    loaded = _modules_after("import groupoidlab")
    assert not {m for m in loaded if m.startswith("groupoidlab.")}
    loaded = _modules_after("import groupoidlab as gl\ngl.load_config, gl.normfield")
    assert {"groupoidlab.config", "groupoidlab.normfield"} <= loaded
    assert "groupoidlab.cli" not in loaded


def test_importing_the_cli_loads_no_command_layer():
    loaded = _modules_after("import groupoidlab.cli")
    assert not loaded & {f"groupoidlab.{layer}" for layer in LAYERS}
    assert "logging" not in loaded
    assert "concurrent.futures" not in loaded


def test_only_the_float_table_commands_load_the_formatter(tmp_path):
    # bracket and algebroid write float arrays; the others write their tables as lists
    runs = [
        ("validate", "heisenberg_validate.json", False),
        ("deform", "pair1_deform.json", False),
        ("normfield", "pair1_normfield.json", False),
        ("fourier-check", "pair1_fourier.json", False),
        ("bracket", "pair1_fourier.json", True),
        ("algebroid", "heisenberg_validate.json", True),
    ]
    for command, config, formats in runs:
        loaded = _modules_after(_run_command(command, config, output=tmp_path / command))
        assert ("groupoidlab.floattext" in loaded) == formats, command


@pytest.mark.parametrize("command, config", [("deform", "pair1_deform.json"), ("normfield", "pair1_normfield.json")])
def test_only_the_rebuilt_classes_are_dataclasses(command, config):
    # the benchmark's tracer and the tests rebuild charts and configs with
    # dataclasses.replace, and SymbolSpec keeps its own + and -; every other
    # record is a NamedTuple, which builds without generated code
    names = _modules_after(_run_command(command, config), DATACLASSES)
    assert set(names) == {"GroupoidChart", "RunConfig", "SymbolSpec"}


def test_the_trace_targets_resolve_and_configs_rebuild_after_importing_the_cli():
    tracing = Path(__file__).parent.parent / "benchmarks" / "tracing.py"
    code = (
        "import dataclasses, importlib, importlib.util\n"
        "import groupoidlab.cli\n"
        f"spec = importlib.util.spec_from_file_location('tracing', {str(tracing)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "for module, attr, _ in tracing.TARGETS:\n"
        "    assert callable(getattr(importlib.import_module(f'groupoidlab.{module}'), attr)), (module, attr)\n"
        f"config = groupoidlab.cli.load_config({str(CONFIGS / 'pair1_deform.json')!r})\n"
        "chart = dataclasses.replace(config.chart, product=config.chart.product)\n"
        "assert dataclasses.replace(config, chart=chart).chart is chart\n"
    )
    _modules_after(code)


def test_validate_loads_no_bracket_deformation_or_norm_layer():
    loaded = _modules_after(_run_command("validate", "heisenberg_validate.json"))
    assert "groupoidlab.charts" in loaded
    assert not loaded & {"groupoidlab.poisson", "groupoidlab.deformation", "groupoidlab.normfield"}


def test_validate_on_a_custom_chart_without_an_inverse_loads_no_command_layer():
    # its inverse law runs the product solve, which lives in charts
    loaded = _modules_after(_run_command("validate", "corrupted_validate.json", code=1))
    assert not loaded & {f"groupoidlab.{layer}" for layer in LAYERS}


def test_normfield_loads_no_algebroid():
    # it samples and transforms symbols with poisson but takes no bracket
    loaded = _modules_after(_run_command("normfield", "pair1_normfield.json"))
    assert "groupoidlab.poisson" in loaded
    assert "groupoidlab.algebroid" not in loaded


@pytest.mark.parametrize("config, loads", [("pair1_normfield.json", False), ("ax_plus_b_deform.json", True)])
def test_normfield_loads_the_deformation_layer_only_for_group_rows(config, loads):
    # a pair chart's rows are kernels on the base grid; a group chart's rows
    # assemble the regular action from the deformed product's transport
    loaded = _modules_after(_run_command("normfield", config))
    assert "groupoidlab.normfield" in loaded
    assert ("groupoidlab.deformation" in loaded) == loads


def test_deform_loads_no_norm_layer():
    loaded = _modules_after(_run_command("deform", "pair1_deform.json"))
    assert "groupoidlab.deformation" in loaded
    assert "groupoidlab.normfield" not in loaded
    assert "concurrent.futures" not in loaded  # deform runs on one thread


def test_normfield_loads_no_numpy_random_where_validate_does():
    # the norm solver's start vector comes from the standard library; validate samples with numpy
    loaded = _modules_after(_run_command("normfield", "pair1_normfield.json"))
    assert "groupoidlab.normfield" in loaded
    assert "numpy.random" not in loaded
    assert "numpy.random" in _modules_after(_run_command("validate", "heisenberg_validate.json"))


def test_every_public_name_resolves():
    for name in gl.__all__:
        value = getattr(gl, name)
        module = getattr(value, "__module__", None)
        assert module is None or module.startswith("groupoidlab."), (name, module)
    assert set(gl.__all__) <= set(dir(gl))


SUBMODULES = sorted(p.stem for p in Path(gl.__file__).parent.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_resolves_as_an_attribute(name):
    module = getattr(gl, name)
    assert module is sys.modules[f"groupoidlab.{name}"]
    assert name in dir(gl)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gl.no_such_name
    assert not hasattr(gl, "_cmd_validate")

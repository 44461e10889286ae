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


def _modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``code`` ran."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
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


def _run_command(command: str, config: str, code: int = 0) -> str:
    return (
        "from groupoidlab.cli import main\n"
        f"assert main([{command!r}, '--config', {str(CONFIGS / config)!r}]) == {code}\n"
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


def test_validate_loads_no_bracket_deformation_or_norm_layer():
    loaded = _modules_after(_run_command("validate", "heisenberg_validate.json"))
    assert "groupoidlab.charts" in loaded
    assert not loaded & {"groupoidlab.poisson", "groupoidlab.deformation", "groupoidlab.normfield"}


def test_validate_on_a_custom_chart_without_an_inverse_loads_no_command_layer():
    # its inverse law runs the product solve, which lives in charts
    loaded = _modules_after(_run_command("validate", "corrupted_validate.json", code=1))
    assert not loaded & {f"groupoidlab.{layer}" for layer in LAYERS}


def test_deform_loads_no_norm_layer():
    loaded = _modules_after(_run_command("deform", "pair1_deform.json"))
    assert "groupoidlab.deformation" in loaded
    assert "groupoidlab.normfield" not in loaded
    assert "concurrent.futures" not in loaded  # one worker runs no thread pool


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

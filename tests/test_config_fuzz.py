"""Fuzzed config documents through ``cli.main``: exit 0, 1 or 2, never a traceback.

Documents come from mutating the shipped configs and from custom charts whose
maps are random expression trees (these reach the derivative-tree Jacobian).
Grids are cut to the minimum interval count so each example stays cheap.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from groupoidlab.cli import main

from test_expressions import trees

SHIPPED = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
COMMANDS = ("validate", "algebroid", "deform")
# wrong types, non-finite numbers, bad boxes and bad dims
BAD_VALUES = [
    None, True, "x", [], {}, -1, 0, 3, 2.5, 1e308, float("nan"), float("inf"), float("-inf"),
    [[1.0, -1.0]], [[0.0, 1.0, 2.0]], [["a", 1.0]],
]
TREES = trees(
    ops=("+", "-", "*", "/", "neg", "exp", "sin", "cos"),
    constants=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0)),
)


def _paths(node, prefix=()):
    """Every key path into a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    raw = json.loads(draw(st.sampled_from(SHIPPED)).read_text())
    grid = raw["grid"]
    for axis in grid.get("base", []) + grid["fiber"]:
        axis["intervals"] = 8
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(raw))))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    return raw


@st.composite
def custom_chart_configs(draw):
    chart = {
        "name": "fuzzed",
        "base_dim": 1,
        "fiber_dim": 1,
        "source_map": [draw(TREES)],
        "product": [draw(TREES)],
        "base_box": [[-2.0, 2.0]],
        "fiber_box": [[-2.0, 2.0]],
    }
    if draw(st.booleans()):
        chart["unit_weight"] = draw(TREES)
    if draw(st.booleans()):
        chart["inverse"] = [draw(TREES)]
    return {
        "chart": {"custom": chart},
        "grid": {
            "base": [{"half_width": 1.0, "intervals": 8}],
            "fiber": [{"half_width": 1.0, "intervals": 8}],
        },
        "symbols": {"f": [{}], "g": [{"xi_powers": [1]}]},
        "t_values": [0.2, 0.1, 0.05],
    }


def _reject(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def _run_every_command(raw):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(raw))  # Python's json writes NaN / Infinity
            for command in COMMANDS:
                out = Path(tmp) / command
                assert main([command, "--config", str(path), "--output", str(out)]) in (0, 1, 2)
                for written in out.glob("*.json"):
                    json.loads(written.read_text(), parse_constant=_reject)
    assert "Traceback" not in stderr.getvalue()


@given(raw=mutated_configs())
@settings(max_examples=200, deadline=None)
def test_mutated_shipped_configs_exit_cleanly(raw):
    _run_every_command(raw)


@given(raw=custom_chart_configs())
@settings(max_examples=120, deadline=None)
def test_custom_charts_of_random_trees_exit_cleanly(raw):
    _run_every_command(raw)

import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every @given test draws the same examples on every run (seeded by the test's
# own hash; no example database), so a defect a test can reach fails every run
# or none; each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

import groupoidlab as gl
from groupoidlab.errors import DecayWarning


@pytest.fixture(autouse=True)
def _quiet_decay_warnings():
    # coarse-grid tests legitimately warn; specific tests re-enable with pytest.warns
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DecayWarning)
        yield


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


@pytest.fixture(scope="session")
def custom_ax_plus_b():
    return gl.chart_from_spec(CUSTOM_AX_PLUS_B)


@pytest.fixture(scope="session")
def pair1():
    return gl.builtin_chart("pair", n=1)


@pytest.fixture(scope="session")
def pair1_grid64():
    return gl.GridSpec(
        base=(gl.Axis.centered(6.0, 64),), fiber=(gl.Axis.centered(8.0, 64),)
    )


@pytest.fixture(scope="session")
def heisenberg():
    return gl.builtin_chart("heisenberg")


@pytest.fixture(scope="session")
def heis_grid16():
    return gl.GridSpec(
        base=(), fiber=tuple(gl.Axis.centered(5.5, 16) for _ in range(3))
    )


@pytest.fixture(scope="session")
def heis_limit_table16(heisenberg, heis_grid16):
    """Heisenberg 16^3 classical-limit table and the seconds its computation took.

    Shared by the acceptance line and the second-order test, which assert on
    the same chart, grid, symbols and sweep.
    """
    start = time.perf_counter()
    f = gl.SymbolSpec.gaussian(0, 3, xi_widths=[1.1, 1.2, 1.1], xi_centers=[0.3, 0.0, -0.2])
    g = gl.SymbolSpec.gaussian(0, 3, xi_powers=[1, 0, 0], xi_widths=[1.2, 1.1, 1.3])
    with warnings.catch_warnings():  # set up before the per-test filter above applies
        warnings.simplefilter("ignore", DecayWarning)
        table = gl.classical_limit_error_table(heisenberg, heis_grid16, f, g, (0.2, 0.1, 0.05))
    return table, time.perf_counter() - start


@pytest.fixture(scope="session")
def gauss11():
    return gl.SymbolSpec.gaussian(1, 1)


@pytest.fixture(scope="session")
def xxigauss11():
    return gl.SymbolSpec.gaussian(1, 1, x_powers=[1], xi_powers=[1])


def fiber_grid_1d(half_width=8.0, intervals=256):
    return gl.GridSpec(base=(), fiber=(gl.Axis.centered(half_width, intervals),))

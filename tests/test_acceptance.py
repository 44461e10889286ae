"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
classical-limit criterion asserts the convergence order the mathematics
predicts for each chart.  On the pair chart it is first order (ratios in
[0.35, 0.65]).  On heisenberg it is second order (ratios in [0.15, 0.35]):
in exponential coordinates the inverse is negation and the Haar density is 1,
so f *_{-t} g = g *_t f, the deformed commutator is odd in t, and the error
of the scaled commutator is O(t^2).  The window excludes 1/2, so a fall back
to first order fails the line.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import groupoidlab as gl
from groupoidlab.cli import main

CONFIGS = Path(__file__).parent.parent / "configs"

G = gl.SymbolSpec.gaussian


def _report(name, passed, detail, elapsed=None, budget=None):
    stamp = "PASS" if passed else "FAIL"
    timing = f"; {elapsed:.2f}s < {budget:.0f}s" if elapsed is not None else ""
    print(f"ACCEPTANCE {name}: {stamp} ({detail}{timing})")
    assert passed, f"{name}: {detail}"
    if elapsed is not None:
        assert elapsed < budget, f"{name}: runtime {elapsed:.2f}s exceeded {budget}s"


def test_c1_structure_extraction():
    start = time.perf_counter()
    heis = gl.builtin_chart("heisenberg")
    c_heis = gl.structure_constants(heis, np.zeros(0))
    axb = gl.builtin_chart("ax_plus_b")
    c_axb = gl.structure_constants(axb, np.zeros(0))
    pair2 = gl.builtin_chart("pair", n=2)
    anchor = gl.anchor_matrix(pair2, np.array([0.2, -0.3]))
    c_pair = gl.structure_constants(pair2, np.array([0.2, -0.3]))
    elapsed = time.perf_counter() - start

    checks = [
        abs(c_heis[0, 1, 2] - 1.0) <= 1e-5,
        abs(c_heis[1, 0, 2] + 1.0) <= 1e-5,
        abs(c_axb[0, 1, 1] - 1.0) <= 1e-5,
        np.max(np.abs(anchor - np.eye(2))) <= 1e-8,
        np.max(np.abs(c_pair)) <= 1e-5,
    ]
    _report(
        "criterion 1 (structure extraction)",
        all(checks),
        f"c_heis[0,1,2]={c_heis[0, 1, 2]:.8f}, c_axb[0,1,1]={c_axb[0, 1, 1]:.8f}, "
        f"|anchor-I|={np.max(np.abs(anchor - np.eye(2))):.2e}",
        elapsed,
        1.0,
    )


def test_c2_classical_limit_pair():
    start = time.perf_counter()
    chart = gl.builtin_chart("pair", n=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(6.0, 64),), fiber=(gl.Axis.centered(8.0, 64),))
    f, g = G(1, 1), G(1, 1, x_powers=[1], xi_powers=[1])
    table = gl.classical_limit_error_table(chart, grid, f, g, (0.2, 0.1, 0.05))
    elapsed = time.perf_counter() - start
    ratios = table.ratios()
    ok = table.errors_decreasing() and all(0.35 <= r <= 0.65 for r in ratios)
    _report(
        "criterion 2 (classical limit, pair half)",
        ok,
        f"ratios={[f'{r:.3f}' for r in ratios]}, limit constant "
        f"{table.observed_constant:.5f} vs 1/(2 pi)={1 / (2 * np.pi):.5f}",
        elapsed,
        60.0,
    )


def test_c2_classical_limit_heisenberg(heis_limit_table16):
    # heisenberg chart, 16^3 grid of half width 5.5, t = 0.2, 0.1, 0.05 (see
    # conftest.py); the table is computed once per session and ``elapsed`` is
    # the time that computation took
    table, elapsed = heis_limit_table16
    ratios = table.ratios()
    target = 1 / (2 * np.pi)
    constant_error = abs(table.observed_constant - target) / target
    ok = (
        table.errors_decreasing()
        and all(0.15 <= r <= 0.35 for r in ratios)
        and constant_error <= 1e-3
    )
    _report(
        "criterion 2 (classical limit, heisenberg half)",
        ok,
        f"ratios={[f'{r:.3f}' for r in ratios]} (second-order window [0.15, 0.35]); "
        f"limit constant {table.observed_constant:.5f} vs 1/(2 pi)={target:.5f}, "
        f"relative {constant_error:.1e} (bound 1e-3)",
        elapsed,
        60.0,
    )


def test_c3_degenerate_flat_bundle():
    start = time.perf_counter()
    chart = gl.builtin_chart("abelian_bundle", n=1, m=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(4.0, 32),), fiber=(gl.Axis.centered(8.0, 64),))
    f, g, t_values = G(1, 1, xi_widths=1.2), G(1, 1, xi_powers=[1]), (0.4, 0.2, 0.1, 0.05)
    reference = gl.deformed_product(chart, grid, f, g, t_values[0])
    drift = 0.0
    commutator_sup = 0.0
    for t in t_values:
        conv = gl.deformed_product(chart, grid, f, g, t)
        drift = max(drift, float(np.max(np.abs(conv.values - reference.values))))
        commutator_sup = max(
            commutator_sup, float(np.max(np.abs(gl.scaled_commutator(chart, grid, f, g, t).values)))
        )
    elapsed = time.perf_counter() - start
    ok = drift <= 1e-10 and commutator_sup <= 1e-10
    _report(
        "criterion 3 (flat bundle degenerate case)",
        ok,
        f"t-drift={drift:.2e}, commutator sup={commutator_sup:.2e}",
        elapsed,
        5.0,
    )


def test_c4_poisson_algebra_laws():
    start = time.perf_counter()
    chart = gl.builtin_chart("pair", n=1)
    f = G(1, 1)
    g = G(1, 1, x_powers=[1], xi_powers=[1])
    h = G(1, 1, xi_powers=[1], x_widths=1.2, xi_widths=0.9)

    def setup(intervals):
        return gl.GridSpec(
            base=(gl.Axis.centered(6.0, intervals),), fiber=(gl.Axis.centered(8.0, intervals),)
        )

    def leibniz(grid):
        mu = gl.unit_weight_on_grid(chart, grid)
        ev = lambda s: gl.eval_symbol(s, grid)
        lhs = gl.poisson_bracket(f, gl.fiber_convolve(ev(g), ev(h), mu), chart, grid).values
        rhs = (
            gl.fiber_convolve(gl.poisson_bracket(f, g, chart, grid), ev(h), mu).values
            + gl.fiber_convolve(ev(g), gl.poisson_bracket(f, h, chart, grid), mu).values
        )
        return float(np.max(np.abs(lhs - rhs))) / gl.scale_of(lhs, rhs)

    def jacobi(grid):
        br = lambda a, b: gl.poisson_bracket(a, b, chart, grid)
        terms = [br(f, br(g, h)).values, br(g, br(h, f)).values, br(h, br(f, g)).values]
        return float(np.max(np.abs(terms[0] + terms[1] + terms[2]))) / gl.scale_of(*terms)

    grid = setup(64)
    forward = gl.poisson_bracket(f, g, chart, grid)
    backward = gl.poisson_bracket(g, f, chart, grid)
    antisym = float(np.max(np.abs(forward.values + backward.values))) / gl.scale_of(
        forward.values, backward.values
    )
    leib64, jac64 = leibniz(grid), jacobi(grid)
    fine = setup(128)
    leib128, jac128 = leibniz(fine), jacobi(fine)
    elapsed = time.perf_counter() - start

    ok = (
        antisym <= 1e-12
        and leib64 <= 5e-3
        and leib64 / leib128 >= 3.0
        and jac64 <= 1e-2
        and jac64 / jac128 >= 3.0
    )
    _report(
        "criterion 4 (Poisson algebra laws)",
        ok,
        f"antisymmetry={antisym:.2e}, Leibniz={leib64:.2e} (shrink {leib64 / leib128:.1f}x), "
        f"Jacobi={jac64:.2e} (shrink {jac64 / jac128:.1f}x)",
        elapsed,
        120.0,
    )


PAIR_SYMBOLS = [
    (G(1, 1), G(1, 1, x_powers=[1], xi_powers=[1])),
    (G(1, 1), G(1, 1, x_powers=[1])),
    (G(1, 1, x_widths=1.3, x_centers=0.4), G(1, 1, xi_powers=[1], xi_widths=1.2)),
    (G(1, 1, x_powers=[2]), G(1, 1, x_widths=1.1, xi_widths=1.1)),
    (G(1, 1, coeff=1 + 0.5j), G(1, 1, xi_powers=[2], xi_widths=1.4)),
]

HEIS_SYMBOLS = [
    (G(0, 3), G(0, 3, xi_powers=[1, 0, 0], xi_widths=[1.2, 1.1, 1.3])),
    (
        G(0, 3, xi_widths=[1.1, 1.2, 1.1], xi_centers=[0.3, 0.0, -0.2]),
        G(0, 3, xi_powers=[1, 0, 0], xi_widths=[1.2, 1.1, 1.3]),
    ),
    (
        G(0, 3, xi_powers=[0, 1, 0], xi_widths=[1.05, 1.15, 1.25]),
        G(0, 3, xi_powers=[0, 0, 1], xi_widths=[1.3, 1.2, 1.1]),
    ),
    (
        G(0, 3, coeff=1 + 0.4j, xi_widths=[1.2, 1.2, 1.2]),
        G(0, 3, xi_powers=[1, 1, 0], xi_widths=[1.15, 1.2, 1.3]),
    ),
    (
        G(0, 3, xi_widths=[1.4, 1.1, 1.2], xi_centers=[0.0, 0.2, 0.0]),
        G(0, 3, xi_powers=[0, 0, 1], xi_widths=[1.2, 1.3, 1.2]),
    ),
]


def test_c5_fourier_intertwining():
    # at the dual bracket's fixed orientation; the opposite one must read a mismatch near 2
    start = time.perf_counter()

    def residuals(chart, grid, f, g):
        mu = gl.unit_weight_on_grid(chart, grid)
        dual = grid.dual()
        lhs = gl.fourier_transform(gl.poisson_bracket(f, g, chart, grid), mu, dual).values
        F, G = (gl.fourier_transform(gl.eval_symbol(s, grid), mu, dual) for s in (f, g))
        rhs = -gl.dual_poisson_bracket(F, G, chart).values
        flipped = float(np.max(np.abs(lhs - rhs))) / gl.scale_of(lhs, rhs)
        return gl.fourier_check(f, g, chart, grid).intertwining, flipped

    chart = gl.builtin_chart("pair", n=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(6.0, 64),), fiber=(gl.Axis.centered(8.0, 64),))
    pair = [residuals(chart, grid, f, g) for f, g in PAIR_SYMBOLS]

    heis = gl.builtin_chart("heisenberg")
    hgrid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(5.5, 16) for _ in range(3)))
    heisenberg = [residuals(heis, hgrid, f, g) for f, g in HEIS_SYMBOLS]
    elapsed = time.perf_counter() - start

    worst_pair = max(r for r, _ in pair)
    worst_heis = max(r for r, _ in heisenberg)
    flip_gap = max(abs(flipped - 2.0) for _, flipped in pair + heisenberg)
    ok = worst_pair <= 1e-3 and worst_heis <= 1e-2 and flip_gap <= 1e-2
    _report(
        "criterion 5 (Fourier intertwining)",
        ok,
        f"pair worst={worst_pair:.2e} (<=1e-3), heisenberg worst={worst_heis:.2e} (<=1e-2), "
        f"opposite orientation within {flip_gap:.1e} of 2 across {len(pair + heisenberg)} pairs",
        elapsed,
        60.0,
    )


def test_c6_norm_field_continuity():
    start = time.perf_counter()
    chart = gl.builtin_chart("pair", n=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(5.0, 256),), fiber=(gl.Axis.centered(8.0, 64),))
    mu = gl.unit_weight_on_grid(chart, grid)
    f = G(1, 1, x_widths=1.0, xi_widths=0.5)
    ts = (0.4, 0.2, 0.1, 0.05)
    curve = gl.norm_curve(f, chart, ts, grid)
    cstar = max(gl.pair_cstar_identity_residual(f, t, grid, mu) for t in ts)
    elapsed = time.perf_counter() - start

    deltas = curve.deltas()
    ok = (
        curve.deltas_decreasing()
        and curve.final_delta_fraction() <= 0.05
        and cstar <= 1e-5
    )
    _report(
        "criterion 6 (norm-field continuity)",
        ok,
        f"norm(0)={curve.zero.value:.6f}, deltas={[f'{d:.4f}' for d in deltas]}, "
        f"final fraction={curve.final_delta_fraction():.4f} (<=0.05), "
        f"C*-identity={cstar:.2e} (<=1e-5)",
        elapsed,
        60.0,
    )


def test_c7_groupoid_axioms():
    start = time.perf_counter()
    worst = 0.0
    for name, params in (
        ("pair", {"n": 1}),
        ("pair", {"n": 2}),
        ("abelian_bundle", {"n": 1, "m": 2}),
        ("heisenberg", {}),
        ("ax_plus_b", {}),
    ):
        report = gl.validate_axioms(gl.builtin_chart(name, **params), 100, seed=2024)
        worst = max(worst, report.max_residual)

    corrupted = gl.chart_from_spec(
        {
            "name": "corrupted_pair",
            "base_dim": 1,
            "fiber_dim": 1,
            "source_map": [["+", "u1", "v1"]],
            "product": [["+", "v1", "w1", ["*", 0.01, "v1", "v1", "w1"]]],
            "unit_weight": 1.0,
            "base_box": [[-10.0, 10.0]],
            "fiber_box": [[-10.0, 10.0]],
        }
    )
    defect = gl.validate_axioms(corrupted, 100, seed=2024).associativity
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-10 and defect > 1e-4
    _report(
        "criterion 7 (groupoid axioms)",
        ok,
        f"worst built-in residual={worst:.2e} (<=1e-10), corrupted defect={defect:.2e} (>1e-4)",
        elapsed,
        1.0,
    )


COMMAND_CONFIGS = [
    ("validate", "heisenberg_validate.json"),
    ("algebroid", "heisenberg_validate.json"),
    ("bracket", "pair1_fourier.json"),
    ("fourier-check", "pair1_fourier.json"),
    ("deform", "pair1_deform.json"),
    ("normfield", "pair1_normfield.json"),
]


def test_c8_reproducibility(tmp_path):
    start = time.perf_counter()
    mismatches = []
    for command, config in COMMAND_CONFIGS:
        outs = []
        for label in ("a", "b"):
            out = tmp_path / f"{command}_{label}"
            argv = [
                command,
                "--config",
                str(CONFIGS / config),
                "--output",
                str(out),
                "--plot",
            ]
            code = main(argv)
            assert code == 0, f"{command} exited {code}"
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        for name in names:
            blobs = [(o / name).read_bytes() for o in outs]
            if blobs[0] != blobs[1]:
                mismatches.append(f"{command}/{name}")
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8 (reproducibility)",
        not mismatches,
        "6 commands x 2 runs byte-compared"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
        elapsed,
        120.0,
    )

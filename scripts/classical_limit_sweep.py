#!/usr/bin/env python3
"""Sweep the scaled commutator toward its bracket limit on three charts.

Produces one CSV per chart (t, error, ratio) plus a combined log-log SVG.
The additive and affine charts converge at first order (ratios near 1/2);
the midpoint-symmetric nilpotent chart converges at second order (ratios
near 1/4) while reproducing the same limit constant.
"""

import argparse
from pathlib import Path

import numpy as np

import groupoidlab as gl
from groupoidlab.plots import write_svg_plot
from groupoidlab.reports import write_csv

G = gl.SymbolSpec.gaussian


def studies():
    """``(name, (chart, grid, f0, g0, t_values))`` per chart: the arguments of the limit table."""
    pair = gl.builtin_chart("pair", n=1)
    pair_grid = gl.GridSpec(base=(gl.Axis.centered(6.0, 64),), fiber=(gl.Axis.centered(8.0, 64),))
    yield "pair1", (pair, pair_grid, G(1, 1), G(1, 1, x_powers=[1], xi_powers=[1]), (0.4, 0.2, 0.1, 0.05, 0.025))

    axb = gl.builtin_chart("ax_plus_b", half_width=4.0)
    axb_grid = gl.GridSpec(base=(), fiber=(gl.Axis.centered(3.7, 24), gl.Axis.centered(3.7, 24)))
    f, g = G(0, 2, xi_widths=[2.5, 2.5]), G(0, 2, xi_powers=[1, 0], xi_widths=[3.0, 2.6])
    yield "ax_plus_b", (axb, axb_grid, f, g, (0.4, 0.2, 0.1, 0.05, 0.025))

    heis = gl.builtin_chart("heisenberg")
    heis_grid = gl.GridSpec(base=(), fiber=tuple(gl.Axis.centered(5.7, 16) for _ in range(3)))
    f = G(0, 3, xi_widths=[1.1, 1.2, 1.1], xi_centers=[0.3, 0.0, -0.2])
    g = G(0, 3, xi_powers=[1, 0, 0], xi_widths=[1.2, 1.1, 1.3])
    yield "heisenberg", (heis, heis_grid, f, g, (0.2, 0.1, 0.05))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="results/classical_limit", help="output directory")
    args = parser.parse_args()
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    series = []
    for name, study in studies():
        table = gl.classical_limit_error_table(*study)
        rows = [[t, e, r] for t, e, r in table.rows]
        write_csv(out / f"{name}.csv", ["t", "error", "ratio"], rows)
        series.append((name, [r[0] for r in rows], [r[1] for r in rows]))
        ratios = ", ".join(f"{r:.3f}" for r in table.ratios())
        print(
            f"{name:12s} ratios [{ratios}]  limit-constant "
            f"{table.observed_constant:.5f} (1/(2 pi) = {1 / (2 * np.pi):.5f})"
        )
    write_svg_plot(
        out / "classical_limit.svg",
        series,
        "scaled-commutator error vs t",
        "t",
        "E(t)",
        loglog=True,
    )
    print(f"wrote {out}/")


if __name__ == "__main__":
    main()

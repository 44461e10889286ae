#!/usr/bin/env python3
"""Grid-refinement table for the bracket's algebraic laws.

Antisymmetry is exact by construction; the Leibniz and Jacobi residuals are
quadrature-and-stencil limited and fall rapidly as the grids refine.
"""

import argparse
from pathlib import Path

import numpy as np

import groupoidlab as gl
from groupoidlab.reports import write_csv

G = gl.SymbolSpec.gaussian


def residuals(intervals: int):
    chart = gl.builtin_chart("pair", n=1)
    grid = gl.GridSpec(
        base=(gl.Axis.centered(6.0, intervals),), fiber=(gl.Axis.centered(8.0, intervals),)
    )
    mu = gl.unit_weight_on_grid(chart, grid)
    f = G(1, 1)
    g = G(1, 1, x_powers=[1], xi_powers=[1])
    h = G(1, 1, xi_powers=[1], x_widths=1.2, xi_widths=0.9)
    ev = lambda s: gl.eval_symbol(s, grid)
    br = lambda a, b: gl.poisson_bracket(a, b, chart, grid)

    anti = np.max(np.abs(br(f, g).values + br(g, f).values)) / gl.scale_of(br(f, g).values)

    lhs = br(f, gl.fiber_convolve(ev(g), ev(h), mu)).values
    rhs = (
        gl.fiber_convolve(br(f, g), ev(h), mu).values
        + gl.fiber_convolve(ev(g), br(f, h), mu).values
    )
    leibniz = float(np.max(np.abs(lhs - rhs))) / gl.scale_of(lhs, rhs)

    terms = [br(f, br(g, h)).values, br(g, br(h, f)).values, br(h, br(f, g)).values]
    jacobi = float(np.max(np.abs(terms[0] + terms[1] + terms[2]))) / gl.scale_of(*terms)
    return anti, leibniz, jacobi


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="results/bracket_refinement")
    args = parser.parse_args()
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    print(f"{'intervals':>9s} {'antisym':>10s} {'leibniz':>10s} {'jacobi':>10s}")
    for intervals in (32, 64, 128):
        anti, leibniz, jacobi = residuals(intervals)
        rows.append([intervals, anti, leibniz, jacobi])
        print(f"{intervals:9d} {anti:10.2e} {leibniz:10.2e} {jacobi:10.2e}")
    write_csv(out / "refinement.csv", ["intervals", "antisymmetry", "leibniz", "jacobi"], rows)
    print(f"wrote {out}/")


if __name__ == "__main__":
    main()

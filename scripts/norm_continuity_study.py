#!/usr/bin/env python3
"""Operator-norm curves along the deformation for a family of fiber widths.

For each width the kernel norm at decreasing t is compared against the
commutative value at 0; the gaps shrink linearly, the visible footprint of
the norm field's continuity at 0.
"""

import argparse
from pathlib import Path

import groupoidlab as gl
from groupoidlab.reports import write_csv, write_svg_plot

WIDTHS = (0.4, 0.5, 0.7)
T_VALUES = (0.4, 0.2, 0.1, 0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="results/norm_continuity")
    args = parser.parse_args()
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    chart = gl.builtin_chart("pair", n=1)
    grid = gl.GridSpec(base=(gl.Axis.centered(5.5, 256),), fiber=(gl.Axis.centered(8.5, 64),))

    rows = []
    series = []
    for width in WIDTHS:
        f = gl.SymbolSpec.gaussian(1, 1, x_widths=1.0, xi_widths=width)
        curve = gl.norm_curve(f, chart, T_VALUES, grid)
        for row, delta in zip(curve.rows, curve.deltas()):
            rows.append([width, row.t, row.value, delta, row.residual])
        rows.append([width, 0.0, curve.zero.value, 0.0, curve.zero.residual])
        series.append(
            (f"width {width}", [r.t for r in curve.rows], [d for d in curve.deltas()])
        )
        print(
            f"width {width}: norm(0)={curve.zero.value:.5f}  "
            f"final gap fraction={curve.final_delta_fraction():.4f}"
        )
    write_csv(out / "norm_curves.csv", ["xi_width", "t", "norm", "delta", "residual"], rows)
    write_svg_plot(
        out / "norm_gaps.svg", series, "norm gap vs t", "t", "|norm(t) - norm(0)|", loglog=True
    )
    print(f"wrote {out}/")


if __name__ == "__main__":
    main()

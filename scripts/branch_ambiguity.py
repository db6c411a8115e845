#!/usr/bin/env python3
"""Trace the continuous iterates of the mu=4 logistic map from both of its
fixed-point charts over a time grid at one x, next to the closed forms.

The two charts agree wherever t is an integer and split in between (the one
anchored at 3/4 goes complex), which is the cleanest demonstration that a
map's continuous-time interpolation is anchored to a fixed point, not unique.

Writes CSV: t, re/im of both chart routes and both closed references.
"""

import argparse

import numpy as np

import mapflow as mf
from mapflow.logistic import logistic4_iterate, logistic4_iterate_second


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=40)
    ap.add_argument("--x", type=float, default=0.3)
    ap.add_argument("--t-max", type=float, default=3.0)
    ap.add_argument("--steps", type=int, default=61)
    ap.add_argument("--output", default="branch_ambiguity.csv")
    args = ap.parse_args()

    f = mf.logistic_series(4.0, args.dim)
    chart0 = mf.pipeline(f, 0.1, r_eval=0.6).chart
    chart1 = mf.pipeline(f, 0.7, r_eval=0.6).chart

    ts = np.linspace(0.0, args.t_max, args.steps)
    grid0 = mf.evaluate_chart_grid(chart0, ts, [args.x])
    grid1 = mf.evaluate_chart_grid(chart1, ts, [args.x])

    rows = ["t,ft0_re,ft0_im,ft1_re,ft1_im,ref0_re,ref0_im,ref1_re,ref1_im"]
    worst_integer_gap = 0.0
    biggest_split = 0.0
    for i, t in enumerate(ts):
        a = grid0.value(i, 0)
        b = grid1.value(i, 0)
        r0 = logistic4_iterate(t, args.x)
        r1 = logistic4_iterate_second(t, args.x)
        rows.append(
            f"{t:.17g},{a.real:.17g},{a.imag:.17g},{b.real:.17g},{b.imag:.17g},"
            f"{r0.real:.17g},{r0.imag:.17g},{r1.real:.17g},{r1.imag:.17g}"
        )
        if abs(t - round(t)) < 1e-9:
            worst_integer_gap = max(worst_integer_gap, abs(a - b))
        biggest_split = max(biggest_split, abs(a - b))

    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {args.output}")
    print(f"largest gap between charts at integer t: {worst_integer_gap:.3e}")
    print(f"largest gap anywhere on the grid:        {biggest_split:.3e}")


if __name__ == "__main__":
    main()

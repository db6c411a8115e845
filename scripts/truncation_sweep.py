#!/usr/bin/env python3
"""Sweep the truncation order and record the worst iterate error against the
closed-form mu=4 reference on a fixed (t, x) sample grid.

Shows the error hitting the double-precision floor well before dim=40, i.e.
accuracy at these samples is truncation-limited, not method-limited.
"""

import argparse

import mapflow as mf
from mapflow.logistic import logistic4_iterate


TIMES = (0.25, 0.5, 1.5, 2.0)
POINTS = (0.01, 0.05, 0.1)


def _worst(grid):
    return max(
        abs(grid.value(i, j) - logistic4_iterate(t, x))
        for i, t in enumerate(grid.ts)
        for j, x in enumerate(grid.xs)
    )


def worst_error(dim):
    f = mf.logistic_series(4.0, dim)
    p = mf.pipeline(f, 0.1, r_eval=0.6)
    by_chart = mf.evaluate_chart_grid(p.chart, TIMES, POINTS)
    # loose tail flag: at low orders we *want* the best-effort value
    by_modes = mf.evaluate_matrix_grid(p.chart, TIMES, POINTS, tail_tol=1e-3)
    return _worst(by_chart), _worst(by_modes)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dims", default="8,12,16,20,28,40")
    ap.add_argument("--output", default="truncation_sweep.csv")
    args = ap.parse_args()

    rows = ["dim,chart_error,mode_error"]
    print(f"{'dim':>4}  {'chart route':>12}  {'mode route':>12}")
    for dim in (int(d) for d in args.dims.split(",")):
        ec, em = worst_error(dim)
        rows.append(f"{dim},{ec:.6e},{em:.6e}")
        print(f"{dim:>4}  {ec:>12.3e}  {em:>12.3e}")
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()

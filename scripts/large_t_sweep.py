#!/usr/bin/env python3
"""Chart-route accuracy of the three logistic charts at large times, by order.

For each chart (mu=4 at 0 with r_eval 0.95, mu=4 at 3/4 with 0.6, mu=2 at 0
with 0.45), each truncation order and each t in 2.5, 3.5, ..., 6.5, the
chart route is evaluated at 400 real x drawn from ``default_rng(400)`` over
the chart's r_eval.  Each converged value is compared with the closed form;
the error is scaled by the problem's own conditioning,

    |v - ref| / (max(1, |ref|) + |x| |d f^t / dx|),

the derivative a central difference of the closed form.  The script prints
one CSV row per (chart, dim, t): the converged count, the count whose scaled
error is above 1e-9, and the worst scaled error, and writes the same rows to
``--output``.  Usage::

    python3 scripts/large_t_sweep.py --dims 20,40,80,160
"""

import argparse

import numpy as np

import mapflow as mf
from mapflow.logistic import logistic2_iterate, logistic4_iterate, logistic4_iterate_second

CHARTS = {
    "l4_0": (4.0, 0.0, 0.95, logistic4_iterate),
    "l4_34": (4.0, 0.75, 0.6, logistic4_iterate_second),
    "l2_0": (2.0, 0.0, 0.45, logistic2_iterate),
}
TIMES = (2.5, 3.5, 4.5, 5.5, 6.5)
BAD = 1e-9


def scaled_errors(mu, x_star, r_eval, closed_form, dim):
    """The (times, points) array of scaled errors of the chart route, nan
    where a point is refused."""
    xs = x_star + r_eval * np.random.default_rng(400).uniform(-1, 1, 400)
    ref = np.array([[complex(closed_form(t, x)) for x in xs] for t in TIMES])
    eps = 1e-6
    slope = np.array([[(complex(closed_form(t, x + eps)) - complex(closed_form(t, x - eps)))
                       / (2 * eps) for x in xs] for t in TIMES])
    scale = np.maximum(1.0, np.abs(ref)) + np.abs(xs) * np.abs(slope)
    chart = mf.pipeline(mf.logistic_series(mu, dim), x_star, r_eval=r_eval).chart
    # A refused point's value is nan, and so is its error.
    return np.abs(mf.evaluate_chart_grid(chart, TIMES, list(xs)).values - ref) / scale


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dims", default="20,40,80,160")
    ap.add_argument("--output", default="large_t_sweep.csv")
    args = ap.parse_args()

    rows = ["chart,dim,t,converged,above_1e-9,worst_scaled_error"]
    print(rows[0])
    for name, (mu, x_star, r_eval, closed_form) in CHARTS.items():
        for dim in (int(d) for d in args.dims.split(",")):
            errors = scaled_errors(mu, x_star, r_eval, closed_form, dim)
            for t, err in zip(TIMES, errors):
                done = err[~np.isnan(err)]
                worst = f"{done.max():.3e}" if done.size else ""
                rows.append(f"{name},{dim},{t},{done.size},{np.count_nonzero(done > BAD)},{worst}")
                print(rows[-1], flush=True)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


if __name__ == "__main__":
    main()

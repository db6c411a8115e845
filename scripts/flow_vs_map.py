#!/usr/bin/env python3
"""Integrate the extracted vector field and compare against chart iterates
and the discrete orbit at integer times.

Writes CSV (t, RK4 state, chart value, |difference|) and prints the worst
disagreement inside the integration window.
"""

import argparse

import mapflow as mf


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mu", type=float, default=4.0)
    ap.add_argument("--dim", type=int, default=40)
    ap.add_argument("--x0", type=float, default=0.01)
    ap.add_argument("--t-end", type=float, default=1.5)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--output", default="flow_vs_map.csv")
    args = ap.parse_args()

    f = mf.logistic_series(args.mu, args.dim)
    field = mf.field_pipeline(f, 0.1, args.dim, r_eval=0.6)
    chart = field.chart
    trajectory = mf.integrate_flow(field, args.x0, args.t_end, dt=args.dt)

    rows = ["t,x_re,x_im,chart_re,chart_im,gap"]
    worst = 0.0
    for t, x in trajectory[:: max(1, len(trajectory) // 200)]:
        ref = mf.evaluate_iterate_chart(chart, t, args.x0)
        gap = abs(x - ref)
        worst = max(worst, gap)
        rows.append(
            f"{t:.17g},{x.real:.17g},{x.imag:.17g},{ref.real:.17g},"
            f"{ref.imag:.17g},{gap:.3e}"
        )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {args.output}")
    print(f"worst ODE-vs-chart gap on the sampled grid: {worst:.3e}")

    n_whole = int(args.t_end)
    x = complex(args.x0)
    for n in range(1, n_whole + 1):
        x = f(x)
        via_ode = min(trajectory, key=lambda p: abs(p[0] - n))[1]
        print(f"t={n}: map iterate {x.real:.12f}, ODE endpoint {via_ode.real:.12f}")


if __name__ == "__main__":
    main()

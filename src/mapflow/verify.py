"""End-to-end verification checks with pinned tolerances.

Each check exercises one published property of the pipeline against an
independent reference (closed forms, exact integer matrices, brute-force
composition) and reports the measured deviation next to its tolerance.
The CLI ``verify`` subcommand and the acceptance test module both run these.

Matrix agreement is measured with the row-scaled metric of
:func:`mapflow.carleman.scaled_deviation`; entries grow like multiplier^j
times binomials, so at double precision an absolute comparison would only
detect representation rounding of the large rows.  Scalar comparisons are
absolute as stated.

Charts are built with explicit generous evaluation radii (the conservative
default radius is a usage guard, not an accuracy statement; the internal
tail checks keep the evaluations honest at these sample points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .carleman import build_matrix, build_matrix_quadrature, scaled_deviation
from .flow import (
    TOL_ODE,
    build_field,
    evaluate_field,
    integrate_flow,
    lyapunov_logistic,
    validity_window,
)
from .iterate import (
    build_expansion,
    chart_pipeline,
    evaluate_chart_grid,
    evaluate_iterate_chart,
    evaluate_matrix_grid,
)
from .logistic import (
    logistic2_iterate,
    logistic4_chart_coefficients,
    logistic4_field,
    logistic4_iterate,
    logistic4_matrix_entry,
    logistic_series,
)
from .spectral import diagonalize, fractional_power, log_row, matrix_log

LN2 = math.log(2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: deviation {self.deviation:.3e} "
            f"(tolerance {self.tolerance:.1e})"
        )


@lru_cache(maxsize=None)
def _pipeline(mu: float, guess: float, dim: int, r_eval: float):
    f = logistic_series(mu, dim)
    frame, fact, chart = chart_pipeline(f, guess, dim, r_eval=r_eval)
    return frame, fact, chart


def _result(name, deviation, tolerance, detail="") -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(deviation <= tolerance),
        deviation=float(deviation),
        tolerance=float(tolerance),
        detail=detail,
    )


def check_matrix_exact() -> CheckResult:
    """Coefficient builder reproduces the closed-form integer matrix exactly."""
    dim = 8
    M = build_matrix(logistic_series(4.0, dim), dim)
    expected = np.array(
        [[logistic4_matrix_entry(j, k) for k in range(dim)] for j in range(dim)],
        dtype=complex,
    )
    dev = float(np.abs(M.entries - expected).max())
    return _result("matrix-exact", dev, 0.0, "mu=4, dim=8, exact integers")


def check_builder_equivalence(dim: int = 16, nodes: int = 256) -> CheckResult:
    f = logistic_series(4.0, dim)
    a = build_matrix(f, dim)
    b = build_matrix_quadrature(f, dim, nodes=nodes)
    dev = scaled_deviation(a.entries, b.entries)
    return _result(
        "builder-equivalence", dev, 1e-10, f"dim={dim}, nodes={nodes}, row-scaled"
    )


def check_chart_coefficients() -> CheckResult:
    """First 8 chart coefficients at the origin match the exact expansion."""
    _, fact, _ = _pipeline(4.0, 0.1, 16, 0.6)
    row = fact.chart_row
    exact = logistic4_chart_coefficients(8)
    dev = 0.0
    for k in range(1, 9):
        ref = float(exact[k - 1])
        dev = max(dev, abs(row[k] - ref) / abs(ref))
    return _result("chart-coefficients", dev, 1e-10, "mu=4 at 0, relative")


_C4_TIMES = (0.25, 0.5, 1.5, 2.0)
_C4_POINTS = (0.01, 0.05, 0.1)


def _oracle_errors(grid) -> dict:
    """Absolute error of each grid value against the closed mu=4 iterate."""
    return {
        (t, x): abs(grid.value(i, j) - logistic4_iterate(t, x))
        for i, t in enumerate(grid.ts)
        for j, x in enumerate(grid.xs)
    }


def _chart_errors(dim: int) -> dict:
    """Per-sample absolute errors of the chart route against the closed iterate."""
    _, _, chart = _pipeline(4.0, 0.1, dim, 0.6)
    return _oracle_errors(evaluate_chart_grid(chart, _C4_TIMES, _C4_POINTS))


def _iterate_errors(dim: int):
    """Per-sample absolute errors of both routes against the closed iterate."""
    frame, fact, chart = _pipeline(4.0, 0.1, dim, 0.6)
    expansion = build_expansion(fact, frame, r_eval=chart.r_eval)
    by_modes = _oracle_errors(evaluate_matrix_grid(expansion, _C4_TIMES, _C4_POINTS))
    by_chart = _chart_errors(dim)
    return {key: (by_chart[key], by_modes[key]) for key in by_chart}


def check_iterate_oracle(dim: int = 40) -> CheckResult:
    errs = _iterate_errors(dim)
    dev = max(max(pair) for pair in errs.values())
    return _result(
        "iterate-oracle", dev, 1e-6, f"mu=4 closed form, both routes, dim={dim}"
    )


def check_mu2_oracle(dim: int = 40) -> CheckResult:
    _, _, chart = _pipeline(2.0, 0.1, dim, 0.3)
    times, points = (0.5, 1.5), (0.01, 0.1)
    grid = evaluate_chart_grid(chart, times, points)
    dev = 0.0
    for i, t in enumerate(times):
        for j, x in enumerate(points):
            ref = logistic2_iterate(t, x)
            dev = max(dev, abs(grid.value(i, j) - ref))
    return _result("mu2-oracle", dev, 1e-7, f"chart route vs exact mu=2, dim={dim}")


def check_semigroup(dim: int = 40) -> CheckResult:
    frame, fact, chart = _pipeline(4.0, 0.1, dim, 0.6)
    expansion = build_expansion(fact, frame, r_eval=chart.r_eval)
    routes = (
        lambda ts, xs: evaluate_chart_grid(chart, ts, xs),
        lambda ts, xs: evaluate_matrix_grid(expansion, ts, xs),
    )
    times, points = (0.25, 0.5, 1.0), (0.005, 0.01, 0.02)
    per_pair = {}
    for evaluate in routes:
        inner = evaluate(times, points)  # f^t(x)
        # f^s(f^t(x)): row s, column (t, x) in row-major order
        outer = evaluate(times, [inner.value(i, j) for i in range(3) for j in range(3)])
        whole = evaluate([s + t for s in times for t in times], points)  # f^(s+t)(x)
        for a, s in enumerate(times):
            for b, t in enumerate(times):
                for j in range(3):
                    gap = abs(whole.value(3 * a + b, j) - outer.value(a, 3 * b + j))
                    key = (s, t)
                    per_pair[key] = max(per_pair.get(key, 0.0), gap)
    dev = max(per_pair.values())
    pairs = ", ".join(
        f"(s={s:g}, t={t:g}): {g:.2e}" for (s, t), g in sorted(per_pair.items())
    )
    return _result(
        "semigroup",
        dev,
        1e-7,
        f"f^(s+t) vs f^s(f^t), both routes, |x| <= 0.02; per pair {pairs}",
    )


def check_nonuniqueness(dim: int = 40) -> CheckResult:
    """Charts at the two fixed points coincide at integer times and split
    at half-integer time with a genuinely complex branch."""
    _, _, chart0 = _pipeline(4.0, 0.1, dim, 0.6)
    _, _, chart1 = _pipeline(4.0, 0.7, dim, 0.6)
    times, x = (1.0, 2.0, 3.0, 0.5), 0.3
    grid0 = evaluate_chart_grid(chart0, times, (x,))
    grid1 = evaluate_chart_grid(chart1, times, (x,))
    worst_int = 0.0
    for i in range(3):
        worst_int = max(worst_int, abs(grid0.value(i, 0) - grid1.value(i, 0)))
    v0 = grid0.value(3, 0)
    v1 = grid1.value(3, 0)
    split = abs(v0 - v1)
    imag = abs(v1.imag)
    ok = worst_int <= 1e-6 and split >= 1e-3 and imag >= 1e-3
    detail = (
        f"integer-time gap {worst_int:.3e} (<=1e-6), half-time split "
        f"{split:.3e} (>=1e-3), |Im| {imag:.3e} (>=1e-3)"
    )
    # The reported deviation is the binding integer-time agreement.
    return CheckResult(
        name="non-uniqueness",
        passed=bool(ok),
        deviation=float(worst_int),
        tolerance=1e-6,
        detail=detail,
    )


def check_field(dim: int = 40) -> CheckResult:
    _, fact, chart = _pipeline(4.0, 0.1, dim, 0.6)
    field = build_field(log_row(fact), chart)
    dev = 0.0
    for x in (0.01, 0.05, 0.1):
        dev = max(dev, abs(evaluate_field(field, x) - logistic4_field(x)))
    coeffs = field.series.coeffs
    coeff_dev = max(
        abs(coeffs[1] - 2.0 * LN2), abs(coeffs[2] - (-2.0 / 3.0 * LN2))
    )
    passed = dev <= 1e-6 and coeff_dev <= 1e-9
    return CheckResult(
        name="field-extraction",
        passed=bool(passed),
        deviation=float(dev),
        tolerance=1e-6,
        detail=f"values vs closed field; coefficient check dev {coeff_dev:.3e} "
        "(<=1e-9) for ln4 and -(2/3)ln2",
    )


def check_flow_consistency(dim: int = 40) -> CheckResult:
    _, fact, chart = _pipeline(4.0, 0.1, dim, 0.6)
    field = build_field(log_row(fact), chart)
    end_1 = integrate_flow(field, 0.01, 1.0, dt=1e-3)[-1][1]
    dev_map = abs(end_1 - 0.0396)
    end_half = integrate_flow(field, 0.01, 0.5, dt=1e-3)[-1][1]
    dev_chart = abs(end_half - evaluate_iterate_chart(chart, 0.5, 0.01))
    dev = max(dev_map, dev_chart)
    return _result(
        "flow-consistency",
        dev,
        TOL_ODE,
        f"RK4 endpoint vs f(0.01) ({dev_map:.3e}) and vs chart at t=0.5 "
        f"({dev_chart:.3e})",
    )


def check_validity_window() -> CheckResult:
    """The single-branch field matches the iterate's time derivative up to
    t_max and flips sign just past it (x = 0.5, t_max = 1)."""
    t_max = validity_window(0.5)
    dev_tmax = abs(t_max - 1.0)
    h = 1e-5

    def dfdt(t, x):
        return (logistic4_iterate(t + h, x) - logistic4_iterate(t - h, x)).real / (
            2.0 * h
        )

    inside = abs(dfdt(0.9, 0.5) - logistic4_field(logistic4_iterate(0.9, 0.5)).real)
    d_after = dfdt(1.1, 0.5)
    g_after = logistic4_field(logistic4_iterate(1.1, 0.5)).real
    sign_flip = d_after * g_after < 0
    passed = dev_tmax <= 1e-12 and inside <= 1e-4 and sign_flip
    return CheckResult(
        name="validity-window",
        passed=bool(passed),
        deviation=float(inside),
        tolerance=1e-4,
        detail=f"t_max(0.5) = {t_max!r}; derivative match {inside:.3e} at "
        f"t=0.9; signs at t=1.1: d/dt {d_after:+.3f} vs field {g_after:+.3f}",
    )


def check_lyapunov(n: int = 100_000) -> CheckResult:
    dev = 0.0
    for seed in (0.123456, 0.654321):
        sigma = lyapunov_logistic(n, seed)
        dev = max(dev, abs(sigma - LN2) / LN2)
    return _result(
        "lyapunov", dev, 0.02, f"chain rule over {n} iterates, relative to ln 2"
    )


def check_truncation_convergence() -> CheckResult:
    """Iterate-oracle errors do not grow when the order rises from 20 to 40.

    Both orders already sit at the double-precision floor at these samples,
    so the comparison allows a 1e-12 rounding allowance; anything beyond it
    would mean the method, not the truncation, limits accuracy.
    """
    coarse = _iterate_errors(20)
    fine = _iterate_errors(40)
    dev = 0.0
    for key, (ec20, em20) in coarse.items():
        ec40, em40 = fine[key]
        dev = max(dev, ec40 - ec20, em40 - em20)
    dev = max(dev, 0.0)
    return _result(
        "truncation-convergence",
        dev,
        1e-12,
        "per-sample error growth from dim=20 to dim=40 (0 means non-increasing)",
    )


_SWEEP_DIMS = (20, 40, 80, 160)


def check_order_sweep() -> CheckResult:
    """Chart-route errors do not grow as the order rises through 20, 40, 80
    and 160, and the order-160 chart matches the exact expansion.

    The error comparison has the 1e-12 rounding allowance of
    truncation-convergence; every order-160 chart coefficient must match
    4^k / (2 k^2 binom(2k, k)) to 1e-12 relative.
    """
    errors = [_chart_errors(dim) for dim in _SWEEP_DIMS]
    growth = max(
        fine[key] - coarse[key]
        for coarse, fine in zip(errors, errors[1:])
        for key in coarse
    )
    growth = max(growth, 0.0)
    top = _SWEEP_DIMS[-1]
    _, fact, _ = _pipeline(4.0, 0.1, top, 0.6)
    coeff_dev = max(
        abs(fact.chart_row[k] - float(c)) / float(c)
        for k, c in enumerate(logistic4_chart_coefficients(top - 1), start=1)
    )
    return CheckResult(
        name="order-sweep",
        passed=bool(growth <= 1e-12 and coeff_dev <= 1e-12),
        deviation=float(growth),
        tolerance=1e-12,
        detail=f"chart-route error growth over dims {_SWEEP_DIMS} (0 means "
        f"non-increasing); dim-{top} chart coefficients relative dev "
        f"{coeff_dev:.3e} (<=1e-12)",
    )


def check_paper_matrix() -> CheckResult:
    """The paper's n x n construction agrees with what the CLI computes.

    For logistic mu=4 at both fixed points, 0 and 3/4, the embedding matrix
    of the shifted map is factored by :func:`diagonalize`.  Row 1 of its
    power M^t, a series about x*, must give the chart route's f^t at the
    iterate-oracle offsets from x* for t = 0.5 and 1.5 (absolute, 1e-10);
    row 1 of its logarithm must match :func:`log_row` of the series core
    (row-scaled, 1e-9).  The dimension is pinned at 40, where the entrywise
    recursion of ``diagonalize`` is still exact, so ``run_suite``'s ``dim``
    does not reach this check.
    """
    dim, times = 40, (0.5, 1.5)
    value_dev = log_dev = 0.0
    for guess in (0.1, 0.7):
        frame, fact, chart = _pipeline(4.0, guess, dim, 0.6)
        paper = diagonalize(build_matrix(frame.shifted_map, dim), frame)
        points = [frame.x_star + d for d in _C4_POINTS]
        grid = evaluate_chart_grid(chart, times, points)
        for i, t in enumerate(times):
            row = fractional_power(paper, t).source_map
            for j, x in enumerate(points):
                value = frame.x_star + row(x)
                value_dev = max(value_dev, abs(value - grid.value(i, j)))
        log_dev = max(
            log_dev,
            scaled_deviation(matrix_log(paper).entries[1], log_row(fact).coeffs),
        )
    return CheckResult(
        name="paper-matrix",
        passed=bool(value_dev <= 1e-10 and log_dev <= 1e-9),
        deviation=float(value_dev),
        tolerance=1e-10,
        detail=f"mu=4 at 0 and 3/4, dim={dim}: row 1 of M^t vs chart "
        f"route at t={times}; row 1 of log M vs log_row dev {log_dev:.3e} "
        "(<=1e-9, row-scaled)",
    )


CRITERIA = {
    "matrix-exact": check_matrix_exact,
    "builder-equivalence": check_builder_equivalence,
    "chart-coefficients": check_chart_coefficients,
    "iterate-oracle": check_iterate_oracle,
    "mu2-oracle": check_mu2_oracle,
    "semigroup": check_semigroup,
    "non-uniqueness": check_nonuniqueness,
    "field-extraction": check_field,
    "flow-consistency": check_flow_consistency,
    "validity-window": check_validity_window,
    "lyapunov": check_lyapunov,
    "truncation-convergence": check_truncation_convergence,
    "order-sweep": check_order_sweep,
    "paper-matrix": check_paper_matrix,
}

SUITES = {
    "logistic4": [
        "matrix-exact",
        "builder-equivalence",
        "chart-coefficients",
        "iterate-oracle",
        "mu2-oracle",
        "non-uniqueness",
        "field-extraction",
        "flow-consistency",
        "validity-window",
        "truncation-convergence",
    ],
    "semigroup": ["semigroup"],
    "lyapunov": ["lyapunov"],
    "all": list(CRITERIA),
}


def run_suite(name: str, dim: int | None = None, n: int | None = None):
    """Run a named suite; dim/n override the defaults where a check takes them."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for key in SUITES[name]:
        fn = CRITERIA[key]
        kwargs = {}
        if dim is not None and key in (
            "builder-equivalence",
            "iterate-oracle",
            "mu2-oracle",
            "semigroup",
            "non-uniqueness",
            "field-extraction",
            "flow-consistency",
        ):
            kwargs["dim"] = dim
        if n is not None and key == "lyapunov":
            kwargs["n"] = n
        results.append(fn(**kwargs))
    return results

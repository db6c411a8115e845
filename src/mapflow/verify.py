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
tail checks keep the evaluations honest at these sample points).  Every
check builds through one cached :func:`mapflow.flow.pipeline` per map,
fixed point, order and radius, and takes the mode expansion and the field
from it, so a suite run builds each factorization once; every iterate grid
comes from its route helper, :meth:`mapflow.flow.Pipeline.grid`.  The checks
against the closed mu=4 iterate (iterate-oracle, truncation-convergence,
order-sweep) read one table of errors, a row per route and a column per
sample (:func:`_errors`), and the two order checks its growth from each
order to the next (:func:`_growth`); chart-coefficients and order-sweep measure the chart
against its exact expansion by one function (:func:`_chart_coefficient_dev`).
A check states each tolerance once: :func:`_result` passes it when the
deviation is within its tolerance and its other criteria (``also``) hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .carleman import build_matrix, build_matrix_quadrature, scaled_deviation
from .flow import (
    TOL_ODE,
    evaluate_field,
    integrate_flow,
    lyapunov_logistic,
    pipeline,
    validity_window,
)
from .iterate import evaluate_iterate_chart
from .logistic import (
    LN2,
    logistic2_iterate,
    logistic4_chart_coefficients,
    logistic4_field,
    logistic4_iterate,
    logistic4_matrix_entry,
    logistic_series,
)
from .series import PowerSeries
from .spectral import diagonalize, fractional_power, log_row, matrix_log


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
    """The pipeline of the logistic map ``mu`` at the fixed point nearest
    ``guess``; the checks share it, its expansion and its field."""
    return pipeline(logistic_series(mu, dim), guess, r_eval=r_eval)


def _result(name, deviation, tolerance, detail="", also=True) -> CheckResult:
    """A check's result; it passes when ``deviation <= tolerance`` and
    ``also``, the check's other criteria, holds."""
    return CheckResult(
        name=name,
        passed=bool(deviation <= tolerance and also),
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


def check_builder_equivalence() -> CheckResult:
    """The coefficient and quadrature builders agree (row-scaled).

    The quadrature takes its default 4*dim*deg = 128 nodes.  The dimension
    is 16: the quadrature's row-scaled deviation grows about 2x per order
    with |f| on the unit circle (4.1e-12 at dim 16, 2.3e-7 at 30), and past
    dim 20 no node count meets 1e-10 where both builders are right.
    """
    dim = 16
    f = logistic_series(4.0, dim)
    a = build_matrix(f, dim)
    b = build_matrix_quadrature(f, dim)
    dev = scaled_deviation(a.entries, b.entries)
    return _result("builder-equivalence", dev, 1e-10, f"dim={dim}, nodes=128, row-scaled")


def _chart_coefficient_dev(dim: int, count: int) -> float:
    """The largest relative deviation of coefficients 1 .. ``count`` of the
    order-``dim`` mu=4 chart at 0 from the exact expansion
    4^k / (2 k^2 binom(2k, k))."""
    row = _pipeline(4.0, 0.1, dim, 0.6).factorization.chart_row
    return max(
        abs(row[k] - float(c)) / float(c)
        for k, c in enumerate(logistic4_chart_coefficients(count), start=1)
    )


def check_chart_coefficients() -> CheckResult:
    """First 8 chart coefficients at the origin match the exact expansion."""
    dev = _chart_coefficient_dev(16, 8)
    return _result("chart-coefficients", dev, 1e-10, "mu=4 at 0, relative")


# The order of the checks that share the order-40 pipelines, and the orbit
# length of the Lyapunov check: the settings their tolerances were pinned at.
_DIM = 40
_LYAPUNOV_N = 100_000

_C4_TIMES = (0.25, 0.5, 1.5, 2.0)
_C4_POINTS = (0.01, 0.05, 0.1)


def _oracle_errors(grid, reference=logistic4_iterate) -> np.ndarray:
    """Absolute error of each grid value against a reference f^t(x) (the
    closed mu=4 iterate by default), in (t, x) row-major order; a refused
    point raises its error."""
    return np.array([
        abs(grid.value(i, j) - reference(t, x))
        for i, t in enumerate(grid.ts)
        for j, x in enumerate(grid.xs)
    ])


def _errors(dim: int, routes) -> np.ndarray:
    """Absolute errors against the closed mu=4 iterate at the iterate-oracle
    samples: one row per route in ``routes`` (:meth:`Pipeline.grid`), one
    column per (t, x)."""
    p = _pipeline(4.0, 0.1, dim, 0.6)
    return np.array([
        _oracle_errors(p.grid(route, _C4_TIMES, _C4_POINTS)) for route in routes
    ])


def _growth(dims, routes) -> float:
    """The largest growth of any sample's error (:func:`_errors`) from each
    order in ``dims`` to the next, floored at 0: 0 means no error grows."""
    growth = np.diff([_errors(dim, routes) for dim in dims], axis=0).max()
    return max(float(growth), 0.0)


def check_iterate_oracle() -> CheckResult:
    dev = _errors(_DIM, ("chart", "matrix")).max()
    return _result(
        "iterate-oracle", dev, 1e-6, f"mu=4 closed form, both routes, dim={_DIM}"
    )


def check_mu2_oracle() -> CheckResult:
    grid = _pipeline(2.0, 0.1, _DIM, 0.3).grid("chart", (0.5, 1.5), (0.01, 0.1))
    dev = _oracle_errors(grid, logistic2_iterate).max()
    return _result("mu2-oracle", dev, 1e-7, f"chart route vs exact mu=2, dim={_DIM}")


def check_semigroup() -> CheckResult:
    p = _pipeline(4.0, 0.1, _DIM, 0.6)
    times, points = (0.25, 0.5, 1.0), (0.005, 0.01, 0.02)
    per_pair = {}
    for route in ("chart", "matrix"):
        inner = p.grid(route, times, points)  # f^t(x)
        # f^s(f^t(x)): row s, column (t, x) in row-major order
        outer = p.grid(route, times, [inner.value(i, j) for i in range(3) for j in range(3)])
        whole = p.grid(route, [s + t for s in times for t in times], points)  # f^(s+t)(x)
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


def check_nonuniqueness() -> CheckResult:
    """Charts at the two fixed points coincide at integer times and split
    at half-integer time with a genuinely complex branch."""
    grid0, grid1 = (
        _pipeline(4.0, guess, _DIM, 0.6).grid("chart", (1.0, 2.0, 3.0, 0.5), (0.3,))
        for guess in (0.1, 0.7)
    )
    worst_int = max(abs(grid0.value(i, 0) - grid1.value(i, 0)) for i in range(3))
    v0 = grid0.value(3, 0)
    v1 = grid1.value(3, 0)
    split = abs(v0 - v1)
    imag = abs(v1.imag)
    detail = (
        f"integer-time gap {worst_int:.3e} (<=1e-6), half-time split "
        f"{split:.3e} (>=1e-3), |Im| {imag:.3e} (>=1e-3)"
    )
    # The reported deviation is the binding integer-time agreement.
    return _result("non-uniqueness", worst_int, 1e-6, detail,
                   also=split >= 1e-3 and imag >= 1e-3)


def check_field() -> CheckResult:
    field = _pipeline(4.0, 0.1, _DIM, 0.6).field
    dev = max(abs(evaluate_field(field, x) - logistic4_field(x)) for x in (0.01, 0.05, 0.1))
    coeffs = field.series.coeffs
    coeff_dev = max(
        abs(coeffs[1] - 2.0 * LN2), abs(coeffs[2] - (-2.0 / 3.0 * LN2))
    )
    return _result(
        "field-extraction", dev, 1e-6,
        f"values vs closed field; coefficient check dev {coeff_dev:.3e} "
        "(<=1e-9) for ln4 and -(2/3)ln2",
        also=coeff_dev <= 1e-9,
    )


def check_flow_consistency() -> CheckResult:
    field = _pipeline(4.0, 0.1, _DIM, 0.6).field
    # One run: its step is 1/1000 = 0.5/500, so row 500 is the t = 0.5 run's end.
    trajectory = integrate_flow(field, 0.01, 1.0, dt=1e-3)
    dev_map = abs(trajectory[-1][1] - 0.0396)
    end_half = trajectory[500][1]
    dev_chart = abs(end_half - evaluate_iterate_chart(field.chart, 0.5, 0.01))
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

    def dfdt(t):  # central difference of f^t(0.5) in t
        return (logistic4_iterate(t + h, 0.5) - logistic4_iterate(t - h, 0.5)).real / (
            2.0 * h
        )

    def field_at(t):  # the closed field at f^t(0.5)
        return logistic4_field(logistic4_iterate(t, 0.5)).real

    inside = abs(dfdt(0.9) - field_at(0.9))
    d_after = dfdt(1.1)
    g_after = field_at(1.1)
    return _result(
        "validity-window", inside, 1e-4,
        f"t_max(0.5) = {t_max!r}; derivative match {inside:.3e} at "
        f"t=0.9; signs at t=1.1: d/dt {d_after:+.3f} vs field {g_after:+.3f}",
        also=dev_tmax <= 1e-12 and d_after * g_after < 0,
    )


def check_lyapunov() -> CheckResult:
    dev = max(abs(lyapunov_logistic(_LYAPUNOV_N, seed) - LN2) / LN2
              for seed in (0.123456, 0.654321))
    return _result(
        "lyapunov", dev, 0.02, f"chain rule over {_LYAPUNOV_N} iterates, relative to ln 2"
    )


def check_truncation_convergence() -> CheckResult:
    """Iterate-oracle errors do not grow when the order rises from 20 to 40.

    Both orders already sit at the double-precision floor at these samples,
    so the comparison allows a 1e-12 rounding allowance; anything beyond it
    would mean the method, not the truncation, limits accuracy.
    """
    return _result(
        "truncation-convergence",
        _growth((20, 40), ("chart", "matrix")),
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
    growth = _growth(_SWEEP_DIMS, ("chart",))
    top = _SWEEP_DIMS[-1]
    coeff_dev = _chart_coefficient_dev(top, top - 1)
    return _result(
        "order-sweep", growth, 1e-12,
        f"chart-route error growth over dims {_SWEEP_DIMS} (0 means "
        f"non-increasing); dim-{top} chart coefficients relative dev "
        f"{coeff_dev:.3e} (<=1e-12)",
        also=coeff_dev <= 1e-12,
    )


def check_paper_matrix() -> CheckResult:
    """The paper's n x n construction agrees with what the CLI computes.

    For logistic mu=4 at both fixed points, 0 and 3/4, the embedding matrix
    of the shifted map is factored by :func:`diagonalize`, and the check
    forms the paper's matrices V^-1 diag V from its two factors: M^t with
    diag lambda^(jt) and log M with diag j Log lambda.  Row 1 of M^t, a
    series about x*, must give the chart route's f^t at the iterate-oracle
    offsets from x* for t = 0.5 and 1.5 (absolute, 1e-10); row 1 of log M
    must match :func:`log_row` of the series core (row-scaled, 1e-9).  The
    library builds both matrices from their row-1 series instead:
    :func:`matrix_log` as the derivation matrix of the field and
    :func:`fractional_power` as the Carleman matrix of f^t.  Those of the
    series core must match the paper's on the leading half window
    (row-scaled, 1e-9).  The dimension is 40, where the entrywise recursion
    of ``diagonalize`` is still exact.
    """
    dim, times = 40, (0.5, 1.5)
    w, j = dim // 2 + 1, np.arange(dim)
    value_dev = log_dev = generator_dev = 0.0
    for guess in (0.1, 0.7):
        p = _pipeline(4.0, guess, dim, 0.6)
        # The paper's matrices take the factorization's own frame, never the chart's.
        S, frame = p.factorization, p.factorization.frame
        paper = diagonalize(build_matrix(frame.shifted_map, dim), frame)
        log_m = (paper.chart_matrix_inv * (j * frame.log_multiplier)) @ paper.chart_matrix
        powers = {t: (paper.chart_matrix_inv * np.exp(j * (t * frame.log_multiplier)))
                  @ paper.chart_matrix for t in times}
        grid = p.grid("chart", times, [frame.x_star + d for d in _C4_POINTS])
        # Row 1 of M^t is f^t - x* as a series about x*.
        rows = {t: PowerSeries.from_coefficients(m[1], frame.x_star) for t, m in powers.items()}
        errors = _oracle_errors(grid, lambda t, x: frame.x_star + rows[t](x))
        value_dev = max(value_dev, errors.max())
        log_dev = max(log_dev, scaled_deviation(log_m[1], log_row(S).coeffs))
        pairs = [(matrix_log(S), log_m)] + [(fractional_power(S, t), powers[t]) for t in times]
        generator_dev = max([generator_dev] + [
            scaled_deviation(ours.entries[:w, :w], theirs[:w, :w]) for ours, theirs in pairs])
    return _result(
        "paper-matrix", value_dev, 1e-10,
        f"mu=4 at 0 and 3/4, dim={dim}: row 1 of M^t vs chart "
        f"route at t={times}; row 1 of log M vs log_row dev {log_dev:.3e} "
        f"(<=1e-9, row-scaled); matrix_log and fractional_power vs log M and "
        f"M^t on the leading {w}x{w} window dev {generator_dev:.3e} "
        "(<=1e-9, row-scaled)",
        also=log_dev <= 1e-9 and generator_dev <= 1e-9,
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


def run_suite(name: str):
    """Run a named suite: each of its checks, in ``SUITES`` order."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [CRITERIA[key]() for key in SUITES[name]]

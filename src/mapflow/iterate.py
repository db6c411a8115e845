"""Continuous iterates f^t by two routes built on one factorization.

Chart route: the factorization's row-1 series are the Taylor coefficients
of a chart u with u(f(x)) = lambda * u(x), normalized to unit derivative at
the fixed point, and of its inverse.  Then

    f^t(x) = u_inv(lambda^t * u(x)),

with lambda^t on the recorded principal branch.  Mode route: expanding the
same matrix power row gives f^t(x) = sum_k lambda^{k t} phi_k(x) where each
mode phi_k = h_k u^k is a fixed power series about the fixed point.  The two
routes are algebraically identical and are cross-checked in the test suite.

Evaluation hygiene.  Truncated series only deserve trust inside an empirical
radius (a tail test on the top coefficients).  Three mechanisms keep
evaluations honest rather than silently wrong:

* every series evaluation is tail-checked, raising ``OutOfChart`` instead of
  returning junk;
* an argument of u beyond the chart's series radius is reached by numerical
  analytic continuation: Newton's method on the inverse chart series, warm
  started along a straight path from inside the radius.  This tracks the
  principal branch of u.  A waypoint whose Newton iteration has not
  converged after NEWTON_STEPS (16) iterations is refused: on a path that
  is being tracked a waypoint converges in a handful of iterations, and
  nearly all the slow ones seen in sweeps are points a finer path refuses.
  (Rewriting u(x) as u(f(x))/lambda would also extend the domain but
  follows the wrong branch once x crosses a critical point of the map, so
  it is deliberately not used.)
* a large chart argument lambda^t u(x) is reduced by an integer time shift,
  f^t = f^k o f^{t-k}, applying the map k extra times afterwards; both sides
  of that identity are analytic wherever the reduced evaluation is, so the
  reduction is branch-safe.

Grid evaluation.  :func:`evaluate_chart_grid` and :func:`evaluate_matrix_grid`
take a list of times and a list of points.  The parts that do not depend on
t (the chart value u(x) with its continuation, the mode values phi_k(x)) are
computed once per point; everything else runs on the whole grid in numpy and
yields a value or a :class:`PointStatus` per (t, x).  The float operations are
those of the scalar formulas, done on separate real and imaginary arrays, so
each grid value is bit-identical to the scalar one.  The scalar
:func:`evaluate_iterate_chart` and :func:`evaluate_iterate_matrix` are
one-point grids.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import MapflowError, NonConvergent, OutOfChart
from .series import (
    TOL_FIX,
    FixedPointFrame,
    PowerSeries,
    _horner,
    _tail_start,
    evaluate_with_tail,
    find_fixed_point,
    tail_radius,
    trailing_term,
)
from .spectral import SpectralFactorization, factor_from_series

# Relative size of the trailing stored terms tolerated at an evaluation
# site: beyond this the truncated value has fewer than ~6 reliable digits
# and is refused rather than returned.
EVAL_TAIL_TOL = 1e-6
# Relative last-term threshold that flags a non-convergent mode sum.
TAIL_TOL = 1e-10
# Fraction of the inverse-series radius targeted by the time-shift reduction.
INV_SAFETY = 0.75
# Continuation path control.
PATH_START_FRACTION = 0.8
PATH_STEP_FRACTION = 0.4
MAX_PATH_STEPS = 256
# Newton iterations per continuation waypoint.  In a sweep of 6523 continued
# points on logistic and cubic charts at dims 40-160, every value that a 40x
# finer path confirms took at most 14 but one (20); the finer path refuses
# the 233 other points that took more.
NEWTON_STEPS = 16
MAX_TIME_SHIFT = 64


@dataclass(frozen=True, eq=False)
class SchroederChart:
    """Linearizing chart at a fixed point.

    ``forward`` maps x near the fixed point to the linear coordinate (zero
    constant term, unit linear term, expanded about x*); ``inverse`` is its
    reversion, expanded about 0 with constant term x*.  ``r_eval`` is the
    user-facing evaluation radius; ``forward_radius``/``inverse_radius`` are
    derived tail-test radii of the two truncated series.
    """

    multiplier: complex
    forward: PowerSeries
    inverse: PowerSeries
    frame: FixedPointFrame
    r_eval: float

    def __post_init__(self):
        object.__setattr__(self, "forward_radius", tail_radius(self.forward.coeffs))
        object.__setattr__(self, "inverse_radius", tail_radius(self.inverse.coeffs))

    @cached_property
    def inverse_slope(self) -> PowerSeries:
        """Derivative of the inverse series: the continuation's Newton slope."""
        return self.inverse.derivative()

    @cached_property
    def inverse_trust_radius(self) -> float:
        """A hair inside the radius about 0 where every trailing term of the
        inverse series reaches EVAL_TAIL_TOL.  No argument within it can
        fail the inverse tail test, so the continuation skips the test."""
        return tail_radius(self.inverse.coeffs, tol=EVAL_TAIL_TOL) * (1.0 - 1e-9)

    @property
    def x_star(self) -> complex:
        return self.frame.x_star


@dataclass(frozen=True, eq=False)
class IterateExpansion:
    """Mode expansion of f^t: mode k scaled by lambda^{k t} and summed.

    Column k of the (order, k_max + 1) array ``mode_coeffs`` holds the
    coefficients of mode k, a series about x*; mode 0 is the constant x*.
    Points farther than ``r_eval`` from x* are refused, as on the chart route.
    """

    mode_coeffs: np.ndarray
    multiplier: complex
    x_star: complex
    r_eval: float = math.inf

    def __post_init__(self):
        self.mode_coeffs.setflags(write=False)

    @property
    def k_max(self) -> int:
        return self.mode_coeffs.shape[1] - 1


class PointStatus(IntEnum):
    """Outcome of one (t, x) point of a grid evaluation."""

    OK = 0
    # |x - x*| exceeds r_eval; refused before any evaluation.
    OUTSIDE_RADIUS = 1
    # A series tail test failed, or the continuation of u(x) broke down.
    OUT_OF_CHART = 2
    # The last mode term of the mode sum is not negligible.
    NON_CONVERGENT = 3


@dataclass(frozen=True, eq=False)
class IterateGrid:
    """f^t(x) for every t in ``ts`` (rows) and x in ``xs`` (columns).

    ``values[i, j]`` is f^{ts[i]}(xs[j]) where ``status[i, j]`` is
    ``PointStatus.OK`` and nan elsewhere.  ``tail[i, j]`` is the size the
    refusal test compared: the largest trailing term of the inverse chart
    series (chart route) or the magnitude of the last mode term (mode route);
    it is inf where the value overflowed and nan where the point was never
    evaluated.  ``column_errors`` maps the index of each x refused for every
    t to the reason.
    """

    ts: tuple
    xs: tuple
    values: np.ndarray
    status: np.ndarray
    tail: np.ndarray
    column_errors: dict

    def error(self, i: int, j: int) -> MapflowError | None:
        """The exception the scalar evaluator raises at (ts[i], xs[j])."""
        status = self.status[i, j]
        if status == PointStatus.OK:
            return None
        if j in self.column_errors:
            return OutOfChart(self.column_errors[j])
        where = f"t={self.ts[i]!r}, x={self.xs[j]!r}"
        if status == PointStatus.OUT_OF_CHART:
            return OutOfChart(
                f"series tail {self.tail[i, j]:.3e} at {where} exceeds the "
                "trust threshold; value would be unreliable"
            )
        return NonConvergent(
            f"mode sum tail {self.tail[i, j]:.3e} at {where} is not negligible "
            "against the sum; raise the truncation order or move closer to "
            "the fixed point",
            last_term=float(self.tail[i, j]),
        )

    def value(self, i: int, j: int) -> complex:
        """f^{ts[i]}(xs[j]), or raise the point's OutOfChart / NonConvergent."""
        exc = self.error(i, j)
        if exc is not None:
            raise exc
        return complex(self.values[i, j])


def default_chart_radius(frame: FixedPointFrame) -> float:
    """Conservative default: a tenth of the distance to the nearest other
    fixed point of the map (1.0 when there is none)."""
    g = frame.shifted_map
    # Fixed points of the shifted map solve g(d) - d = 0; drop the root at 0.
    poly = list(g.coeffs)
    poly[1] = poly[1] - 1.0
    deg = 0
    for k in range(len(poly) - 1, -1, -1):
        if poly[k] != 0:
            deg = k
            break
    if deg < 2:
        return 1.0
    # poly has a zero constant term by construction; factor the root at 0.
    reduced = poly[1 : deg + 1]
    roots = np.roots(reduced[::-1])
    dists = [abs(r) for r in roots if abs(r) > 1e-9]
    return 0.1 * min(dists) if dists else 1.0


def build_chart(
    S: SpectralFactorization,
    frame: FixedPointFrame,
    r_eval: float | None = None,
) -> SchroederChart:
    """The linearizing chart of a factorization.

    The forward series is the chart row u re-based at the fixed point, with
    unit derivative there.  The inverse series is the inverse row h with
    constant term x*: the Poincare recursion gives its fast-decaying
    coefficients at full relative precision, where a floating-point
    reversion of the (rapidly growing) forward coefficients would drown them
    in rounding noise.
    """
    forward = PowerSeries.from_coefficients(S.chart_row, frame.x_star)
    inv_coeffs = S.inverse_row.copy()
    inv_coeffs[0] = frame.x_star
    inverse = PowerSeries.from_coefficients(inv_coeffs, 0j)
    radius = default_chart_radius(frame) if r_eval is None else float(r_eval)
    return SchroederChart(
        multiplier=S.multiplier,
        forward=forward,
        inverse=inverse,
        frame=frame,
        r_eval=radius,
    )


def _checked_eval(series: PowerSeries, x) -> complex:
    value, tail = evaluate_with_tail(series, x)
    if tail > EVAL_TAIL_TOL * max(1.0, abs(value)):
        raise OutOfChart(
            f"series tail {tail:.3e} at argument {x!r} exceeds the trust "
            "threshold; value would be unreliable"
        )
    return value


def _inverse_tail_refuses(chart: SchroederChart, w: complex, value: complex) -> bool:
    """The tail test of ``_checked_eval`` on the inverse series at w.

    Skipped within the chart's ``inverse_trust_radius``, where no trailing
    term can fail it.  A w or value too large for a float refuses.
    """
    try:
        if abs(w) <= chart.inverse_trust_radius:
            return False
        tail = trailing_term(chart.inverse.coeffs, w)
        return tail > EVAL_TAIL_TOL * max(1.0, abs(value))
    except OverflowError:
        return True


def _newton_chart_value(chart: SchroederChart, target: complex, w0: complex) -> complex:
    """Solve chart.inverse(w) = target for w, warm started at w0.

    Each iterate is tail-checked (:func:`_inverse_tail_refuses`).  A waypoint
    not reached within NEWTON_STEPS iterations is refused with
    :class:`OutOfChart`.
    """
    coeffs = chart.inverse.coeffs  # expanded about 0, so the argument is w
    slope_coeffs = chart.inverse_slope.coeffs
    w = w0
    tol = 1e-13 * max(1.0, abs(target))
    for _ in range(NEWTON_STEPS):
        value = _horner(coeffs, w)
        if _inverse_tail_refuses(chart, w, value):
            raise OutOfChart(
                "continuation left the inverse series' trust region"
            )
        resid = value - target
        if abs(resid) <= tol:
            return w
        slope = _horner(slope_coeffs, w)
        if slope == 0:
            raise OutOfChart("continuation hit a critical point of the chart")
        w = w - resid / slope
    raise OutOfChart(f"continuation Newton failed to converge at {target!r}")


def chart_value(chart: SchroederChart, x) -> complex:
    """The chart coordinate u(x), continued past the series radius if needed.

    Wherever the forward series converges at x (judged by its trailing
    terms) this is a direct evaluation.  Beyond that the value is tracked
    along the segment from the radius edge to x by solving the inverse
    relation at each waypoint, which follows the principal analytic
    continuation of the chart.  The point is refused with
    :class:`OutOfChart` when a waypoint leaves the inverse series' trust
    region or its Newton iteration does not converge within NEWTON_STEPS.
    """
    x = complex(x)
    value, tail = evaluate_with_tail(chart.forward, x)
    if tail <= EVAL_TAIL_TOL * max(1.0, abs(value)):
        return value
    delta = x - chart.x_star
    r = chart.forward_radius
    if not math.isfinite(r) or r <= 0 or abs(delta) <= r:
        raise OutOfChart(
            f"forward chart series is unreliable at {x!r} and offers no "
            "continuation seed"
        )
    start = chart.x_star + delta * (PATH_START_FRACTION * r / abs(delta))
    w = _checked_eval(chart.forward, start)
    span = abs(x - start)
    steps = min(MAX_PATH_STEPS, max(1, math.ceil(span / (PATH_STEP_FRACTION * r))))
    for s in range(1, steps + 1):
        waypoint = start + (x - start) * (s / steps)
        w = _newton_chart_value(chart, waypoint, w)
    return w


def _exp_or_nan(exp, x):
    """``exp(x)`` (``math.exp`` or ``cmath.exp``), or nan where it overflows.

    A nan propagates to the point's value, which is then refused."""
    try:
        return exp(x)
    except OverflowError:
        return math.nan


def _py_max(a, b):
    """Elementwise Python ``max(a, b)``: b only where b > a, so nan never wins."""
    return np.where(b > a, b, a)


_math_log = np.frompyfunc(math.log, 1, 1)  # math.log elementwise; np.log can differ by an ulp


def _horner_split(coeffs: np.ndarray, zr: np.ndarray, zi: np.ndarray) -> tuple:
    """Horner's rule on separate real and imaginary float64 arrays.

    Runs the float operations of ``series._horner`` (Python's complex product
    and sum) elementwise, so every value equals the scalar one bit for bit;
    numpy's complex multiply does not.  Axis 0 of ``coeffs`` runs over the
    powers; ``coeffs[m]`` has as many axes as ``zr`` and broadcasts against
    it.  Returns the real and imaginary parts.
    """
    shape = np.broadcast_shapes(coeffs.shape[1:], zr.shape)
    c = np.stack([coeffs.real, coeffs.imag], axis=1)[::-1]
    zs = np.stack([-zi, zi])
    acc = np.zeros((2,) + shape)
    prod = np.empty_like(acc)
    cross = np.empty_like(acc)
    for cm in c:
        # [ar, ai] * zr + [ai, ar] * [-zi, zi] = [ar zr - ai zi, ai zr + ar zi]
        np.multiply(acc, zr, out=prod)
        np.multiply(acc[::-1], zs, out=cross)
        np.add(prod, cross, out=acc)
        acc += cm
    return acc[0], acc[1]


def _polynomial_part(series: PowerSeries) -> np.ndarray:
    """The coefficients without trailing +0 terms (at least one kept).

    From an accumulator of +0, Horner's rule stays at +0 through such terms
    at any finite argument, so dropping them changes no bit of a value."""
    c = np.array(series.coeffs, dtype=complex)
    kept = np.flatnonzero((c != 0) | np.signbit(c.real) | np.signbit(c.imag))
    return c[: kept[-1] + 1 if kept.size else 1]


def _checked_split(series: PowerSeries, xr: np.ndarray, xi: np.ndarray) -> tuple:
    """``_checked_eval`` elementwise: (re, im, tail, refused).

    np.power can be an ulp off Python's ``**``, so tails within a hair of
    the threshold are settled by the scalar ``evaluate_with_tail``.
    """
    zr = xr - series.base_point.real
    zi = xi - series.base_point.imag
    coeffs = np.array(series.coeffs, dtype=complex)[:, np.newaxis]
    vr, vi = _horner_split(coeffs, zr, zi)
    az = np.hypot(zr, zi)
    tail = np.zeros_like(az)
    for k in range(_tail_start(series.order), series.order):
        a = abs(series.coeffs[k])
        if a > 0:
            tail = _py_max(tail, a * np.power(az, k))
    limit = EVAL_TAIL_TOL * _py_max(1.0, np.hypot(vr, vi))
    refused = tail > limit
    for idx in np.flatnonzero(np.abs(tail - limit) <= 1e-12 * limit):
        exact = evaluate_with_tail(series, complex(xr[idx], xi[idx]))[1]
        refused[idx] = exact > limit[idx]
    return vr, vi, tail, refused


def _outside_radius(xs: list, x_star: complex, r_eval: float) -> dict:
    """The refusal reason for the index of every x farther than r_eval from x*."""
    reasons = {}
    for j, x in enumerate(xs):
        dist = abs(x - x_star)
        if dist > r_eval * (1.0 + 1e-12):
            reasons[j] = f"|x - x*| = {dist:.4g} exceeds the chart radius {r_eval:.4g}"
    return reasons


def _time_shift_steps(chart: SchroederChart, ts: list, w: np.ndarray, ok) -> np.ndarray:
    """Integer time shifts k per point that bring |lambda^(t-k) u(x)| within
    INV_SAFETY of the inverse series radius (0 where none is needed)."""
    steps = np.zeros(ok.shape, dtype=np.int64)
    lam_abs = abs(chart.multiplier)
    safe = INV_SAFETY * chart.inverse_radius
    abs_w = np.hypot(w.real, w.imag)
    live = ok & (abs_w > 0)
    if lam_abs <= 1.0 or not 0 < safe < math.inf or not live.any():
        return steps
    log_abs = cmath.log(chart.multiplier).real
    growth = np.array([_exp_or_nan(math.exp, t * log_abs) for t in ts])
    magnitude = abs_w * growth[:, np.newaxis]
    need = live & (magnitude > safe)
    logs = _math_log(magnitude[need]).astype(float)
    shift = np.ceil((logs - math.log(safe)) / math.log(lam_abs))
    steps[need] = np.clip(shift, 0, MAX_TIME_SHIFT)
    return steps


def evaluate_chart_grid(chart: SchroederChart, ts, xs) -> IterateGrid:
    """f^t(x) = inverse(lambda^t * forward(x)) for every t in ``ts``, x in ``xs``.

    u(x), continued past the series radius where needed, is computed once
    per x.  The time-shift reduction, the inverse chart with its tail test
    and the shifted map then run on the whole grid.  Each value and status
    equals what :func:`evaluate_iterate_chart` gives at the same point.
    """
    ts = [float(t) for t in ts]
    xs = [complex(x) for x in xs]
    nt, nx = len(ts), len(xs)
    status = np.full((nt, nx), PointStatus.OK, dtype=np.int8)
    column_errors = _outside_radius(xs, chart.x_star, chart.r_eval)
    status[:, list(column_errors)] = PointStatus.OUTSIDE_RADIUS
    w = np.zeros(nx, dtype=complex)
    for j, x in enumerate(xs):
        if j in column_errors:
            continue
        try:
            w[j] = chart_value(chart, x)
        except OutOfChart as exc:
            status[:, j] = PointStatus.OUT_OF_CHART
            column_errors[j] = str(exc)
    ok = status == PointStatus.OK
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _time_shift_steps(chart, ts, w, ok)
        rows, cols = np.nonzero(ok)
        k = steps[rows, cols]
        # lambda^(t - k) by the scalar cmath.exp, once per distinct (t, k).
        log_lam = cmath.log(chart.multiplier)
        span = MAX_TIME_SHIFT + 1
        keys, which = np.unique(rows * span + k, return_inverse=True)
        factor = np.array(
            [
                _exp_or_nan(cmath.exp, (ts[key // span] - key % span) * log_lam)
                for key in keys.tolist()
            ],
            dtype=complex,
        )[which]
        wr, wi = w.real[cols], w.imag[cols]
        ar = factor.real * wr - factor.imag * wi
        ai = factor.real * wi + factor.imag * wr
        vr, vi, tail, refused = _checked_split(chart.inverse, ar, ai)
        g = _polynomial_part(chart.frame.shifted_map)[:, np.newaxis]
        xr, xi = chart.x_star.real, chart.x_star.imag
        for s in range(1, int(k.max(initial=0)) + 1):
            sel = np.flatnonzero((k >= s) & ~refused)
            # x* + g(value - x*); g is expanded about 0.
            hr, hi = _horner_split(g, vr[sel] - xr, vi[sel] - xi)
            vr[sel] = xr + hr
            vi[sel] = xi + hi
        # An overflow anywhere above leaves a non-finite value: refuse it.
        overflow = ~(np.isfinite(vr) & np.isfinite(vi))
        tail[overflow] = math.inf
        refused |= overflow
    status[rows[refused], cols[refused]] = PointStatus.OUT_OF_CHART
    values = np.full((nt, nx), complex(math.nan, math.nan))
    good = ~refused
    values.real[rows[good], cols[good]] = vr[good]
    values.imag[rows[good], cols[good]] = vi[good]
    tails = np.full((nt, nx), math.nan)
    tails[rows, cols] = tail
    return IterateGrid(tuple(ts), tuple(xs), values, status, tails, column_errors)


def evaluate_iterate_chart(chart: SchroederChart, t: float, x) -> complex:
    """f^t(x) = inverse(lambda^t * forward(x)) on the principal branch.

    Raises :class:`OutOfChart` when x is outside the chart radius or when the
    evaluation cannot be completed reliably (divergent series argument).
    """
    return evaluate_chart_grid(chart, (t,), (x,)).value(0, 0)


def build_expansion(
    S: SpectralFactorization,
    frame: FixedPointFrame,
    k_max: int | None = None,
    r_eval: float = math.inf,
) -> IterateExpansion:
    """Mode series phi_k = h_k u^k built from the factorization's two rows.

    Column k of the expansion's array holds phi_k: the coefficients of u^k,
    row k of the forward factor, scaled by h_k and expanded about the fixed
    point; phi_0 is the constant x*.
    ``k_max`` defaults to dim - 1, using all computed spectral data.  The
    CLI passes its chart's ``r_eval``; with the default only the mode-sum
    test refuses points.
    """
    n = S.dim
    if k_max is None:
        k_max = n - 1
    if not 0 <= k_max < n:
        raise ValueError(f"k_max must lie in [0, {n - 1}]")
    x_star = frame.x_star
    coeffs = np.zeros((n, k_max + 1), dtype=complex)
    coeffs[0, 0] = x_star
    k = slice(1, k_max + 1)
    coeffs[:, k] = (S.inverse_row[k, np.newaxis] * S.chart_matrix[k]).T
    return IterateExpansion(
        mode_coeffs=coeffs,
        multiplier=S.multiplier,
        x_star=x_star,
        r_eval=float(r_eval),
    )


def evaluate_matrix_grid(
    expansion: IterateExpansion, ts, xs, tail_tol: float = TAIL_TOL
) -> IterateGrid:
    """f^t(x) = sum_k lambda^{k t} phi_k(x) for every t in ``ts``, x in ``xs``.

    The mode values phi_k(x) are computed once per x; the weighted sums run
    per t over all points.  An x farther than the expansion's ``r_eval``
    from x* is ``OUTSIDE_RADIUS`` at every t; a point is ``NON_CONVERGENT``
    when its last mode's term is not negligible against the sum.  Each value
    and status equals what :func:`evaluate_iterate_matrix` gives at the same
    point.
    """
    ts = [float(t) for t in ts]
    xs = [complex(x) for x in xs]
    nt, nx = len(ts), len(xs)
    z = np.array(xs, dtype=complex)[np.newaxis, :] - expansion.x_star
    log_lam = cmath.log(expansion.multiplier)
    values = np.full((nt, nx), complex(math.nan, math.nan))
    status = np.full((nt, nx), PointStatus.OK, dtype=np.int8)
    tails = np.empty((nt, nx))
    with np.errstate(over="ignore", invalid="ignore"):
        phi_re, phi_im = _horner_split(
            expansion.mode_coeffs[:, :, np.newaxis], z.real, z.imag
        )
        for i, t in enumerate(ts):
            weight = np.array(
                [
                    _exp_or_nan(cmath.exp, k * t * log_lam)
                    for k in range(expansion.k_max + 1)
                ],
                dtype=complex,
            )[:, np.newaxis]
            term_re = weight.real * phi_re - weight.imag * phi_im
            term_im = weight.real * phi_im + weight.imag * phi_re
            # The scalar sum starts from 0j: 0.0 + first term.
            term_re[0] += 0.0
            term_im[0] += 0.0
            total_re = np.add.accumulate(term_re, axis=0)[-1]
            total_im = np.add.accumulate(term_im, axis=0)[-1]
            last = np.hypot(term_re[-1], term_im[-1])
            limit = tail_tol * _py_max(np.hypot(total_re, total_im), 1e-300)
            # A sum that overflowed has no meaningful last-term test.
            finite = np.isfinite(total_re) & np.isfinite(total_im)
            refused = ~finite | (last > limit)
            tails[i] = np.where(finite, last, math.inf)
            status[i, refused] = PointStatus.NON_CONVERGENT
            values.real[i, ~refused] = total_re[~refused]
            values.imag[i, ~refused] = total_im[~refused]
    column_errors = _outside_radius(xs, expansion.x_star, expansion.r_eval)
    outside = list(column_errors)
    status[:, outside] = PointStatus.OUTSIDE_RADIUS
    values[:, outside] = complex(math.nan, math.nan)
    tails[:, outside] = math.nan
    return IterateGrid(tuple(ts), tuple(xs), values, status, tails, column_errors)


def evaluate_iterate_matrix(
    expansion: IterateExpansion, t: float, x, tail_tol: float = TAIL_TOL
) -> complex:
    """f^t(x) = sum_k lambda^{k t} phi_k(x), with a last-term convergence test.

    Raises :class:`NonConvergent` (carrying the last-term magnitude) when the
    final mode's contribution is not negligible against the running sum.
    """
    return evaluate_matrix_grid(expansion, (t,), (x,), tail_tol).value(0, 0)


def chart_pipeline(
    f: PowerSeries,
    guess,
    dim: int,
    r_eval: float | None = None,
    tol_fix: float | None = None,
):
    """Locate the fixed point, factor, and build the chart.

    Returns (frame, factorization, chart).  The factorization comes from the
    shifted map's two chart series (:func:`mapflow.spectral.factor_from_series`);
    no matrix is built.
    """
    frame = find_fixed_point(f, guess, tol_fix=TOL_FIX if tol_fix is None else tol_fix)
    fact = factor_from_series(frame, dim)
    chart = build_chart(fact, frame, r_eval=r_eval)
    return frame, fact, chart

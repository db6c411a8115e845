"""Continuous iterates f^t by two routes built on one factorization.

Chart route: the factorization's row-1 series are the Taylor coefficients
of a chart u with u(f(x)) = lambda * u(x), normalized to unit derivative at
the fixed point, and of its inverse.  Then

    f^t(x) = u_inv(lambda^t * u(x)),

with lambda^t on the principal branch of the frame's Log lambda.  Mode
route: row 1 of the paper's M^t = V^-1 diag(lambda^(jt)) V is the series
of f^t - x* about x*, f^t(x) = x* + sum_k lambda^{k t} phi_k(x) with the
modes phi_k = h_k u^k, u^k row k of V.  :func:`mapflow.spectral.iterate_rows`
forms that row for every time of a grid in one product, and no mode is
stored.  The two routes are algebraically identical and are cross-checked
in the test suite.  Both evaluate one :class:`SchroederChart`, the
``chart`` of a :func:`mapflow.flow.pipeline`: it holds the factorization
and the radius, the mode route reads the factorization's rows, and the
chart route the two series the chart forms from them on first use.

Evaluation hygiene.  Truncated series only deserve trust inside an empirical
radius (a tail test on the top coefficients).  Three mechanisms keep
evaluations honest rather than silently wrong:

* the forward series of u is summed directly only within its
  ``forward_radius``, where every trailing term is at most 1e-12; every
  evaluation of the inverse series outside its ``inverse_radius`` is
  tail-checked, and a point that fails is refused (``OutOfChart``) instead
  of returning junk;
* an argument of u beyond ``forward_radius`` is reached by numerical
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
  reduction is branch-safe.  It brings the argument within
  ``inverse_radius``, the one radius of the inverse series h: its 1e-12
  tail radius, capped where a nonlinear term h_k w^k reaches
  INV_TERM_CAP (10) in modulus.  The tail test reads only the top
  coefficients of h, so it cannot see the cancellation of an alternating
  sum whose middle terms are large; the cap keeps every term small, and the
  map steps that follow carry f^t's own conditioning.

Grid evaluation.  :func:`evaluate_chart_grid` and :func:`evaluate_matrix_grid`
take a list of times and a list of points and work on all of them at once in
numpy complex arithmetic.  Both start from one empty grid (:func:`_new_grid`)
that already refuses every point outside the radius rule below, and fill in
the values, statuses and tails of the rest in place.  The continued points of
a grid take their Newton passes together, each at its own waypoint: a pass
fills one power matrix [w, w^2, ..., w^(n-1)] for the points still on their
paths and multiplies it by the coefficients of h and h', and a point leaves
once it has passed its last waypoint or been refused.  Reported chart-route
values (u, h at lambda^(t-k) u, the shifted map) come from Horner's rule
over all points, mode-route values from one product of the rows of M^t with
the powers [1, z, ..., z^(n-1)] of z = x - x*, and lambda^(t-k), the shift
counts and the mode weights from ``np.exp`` and ``np.log``.  They agree
with the scalar formulas in Python complex arithmetic to rounding (u within
about 1e-14 relative), not bit for bit.
:func:`chart_value`, :func:`evaluate_iterate_chart` and
:func:`evaluate_iterate_matrix` are one-point grids.

Both routes, the field of :mod:`mapflow.flow` and its RK4 integrator accept
a point x when |x - x*| <= r_eval * (1 + 1e-12), the allowance covering the
rounding of x* + d; :func:`_in_radius` and :func:`_outside_reason` hold that
rule and the text of its refusal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import MapflowError, NonConvergent, OutOfChart
from .series import FixedPointFrame, PowerSeries, _tail_window, horner, tail_radius
from .spectral import SpectralFactorization, iterate_rows

# Relative size of the trailing stored terms tolerated at an evaluation
# site: beyond this the truncated value has fewer than ~6 reliable digits
# and is refused rather than returned.
EVAL_TAIL_TOL = 1e-6
# Relative last-term threshold that flags a non-convergent mode sum.
TAIL_TOL = 1e-10
# Modulus at which a nonlinear term h_k w^k of the inverse series caps its
# radius: beyond it the sum of h cancels more digits as the order rises.
INV_TERM_CAP = 10.0
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
    """Linearizing chart at a fixed point, read from one factorization.

    ``factorization`` holds the chart row u and the inverse row h, and its
    frame holds x*, the multiplier and Log lambda; ``frame``, ``x_star``
    and ``multiplier`` read through to it.  ``r_eval`` is the user-facing
    evaluation radius, which both routes apply.  The mode route sums the
    factorization's rows and reads nothing else.  The chart route's two
    series, ``forward`` and ``inverse``, and the radii and tail window
    derived from them are formed on first use.
    """

    factorization: SpectralFactorization
    r_eval: float

    @property
    def frame(self) -> FixedPointFrame:
        return self.factorization.frame

    @cached_property
    def forward(self) -> PowerSeries:
        """u re-based at the fixed point: zero constant term, unit linear
        term, expanded about x*."""
        return PowerSeries.from_coefficients(self.factorization.chart_row, self.x_star)

    @cached_property
    def inverse(self) -> PowerSeries:
        """h with constant term x*, expanded about 0.  The Poincare recursion
        gives its fast-decaying coefficients at full relative precision,
        where a floating-point reversion of the (rapidly growing) forward
        coefficients would drown them in rounding noise."""
        coeffs = self.factorization.inverse_row.copy()
        coeffs[0] = self.x_star
        return PowerSeries.from_coefficients(coeffs, 0j)

    @cached_property
    def forward_radius(self) -> float:
        """The radius about x* where every trailing term of the forward
        series is at most 1e-12; u is summed directly only within it."""
        return tail_radius(self.forward.coeffs)

    @cached_property
    def inverse_radius(self) -> float:
        """The radius about 0 where the inverse series h is summed without a
        tail test: its 1e-12 tail radius, capped at the least
        (INV_TERM_CAP / |h_k|)^(1/k) over k >= 2 with h_k != 0.  The
        time-shift reduction aims inside it.  The cap leaves out h_1 = 1, so
        a linear h has an infinite radius; it stays finite where the
        trailing coefficients underflow to 0 and the tail radius is inf."""
        h = self.inverse.coeffs
        # In Python floats, which overflow to inf without a warning.
        cap = min(((INV_TERM_CAP / abs(c)) ** (1.0 / k)
                   for k, c in enumerate(h[2:].tolist(), 2) if c), default=math.inf)
        return min(tail_radius(h), cap)

    @cached_property
    def inverse_tail(self) -> tuple:
        """The magnitudes and indices of the trailing terms of h that the
        evaluation tail test reads: the window of
        :func:`mapflow.series.trailing_term`."""
        return _tail_window(self.inverse.coeffs)

    @cached_property
    def inverse_pair(self) -> np.ndarray:
        """The (order, 2) array of the coefficients of the inverse series and
        of its derivative, the continuation's Newton slope."""
        dh = np.append(self.inverse.derivative().coeffs, 0)
        return np.stack([self.inverse.coeffs, dh], axis=1)

    @property
    def x_star(self) -> complex:
        return self.frame.x_star

    @property
    def multiplier(self) -> complex:
        return self.frame.multiplier


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
    # Fixed points of the shifted map solve g(d) - d = 0, of g's degree
    # once that is 2 or more.
    deg = g.degree()
    if deg < 2:
        return 1.0
    # g has a zero constant term by construction; factor the root at 0.
    reduced = g.coeffs[1 : deg + 1].copy()
    reduced[0] -= 1.0
    roots = np.roots(reduced[::-1])
    dists = [abs(r) for r in roots if abs(r) > 1e-9]
    return 0.1 * min(dists) if dists else 1.0


def build_chart(
    S: SpectralFactorization,
    frame: FixedPointFrame,
    r_eval: float | None = None,
) -> SchroederChart:
    """The linearizing chart of a factorization, bounded by ``r_eval``.

    The chart reads x* and lambda from ``S.frame``; ``frame`` is that same
    frame and is not read.  Without ``r_eval`` the radius is
    :func:`default_chart_radius`.  An ``r_eval`` that is nan, zero or
    negative raises ``ValueError``; inf is accepted.
    """
    radius = default_chart_radius(S.frame) if r_eval is None else float(r_eval)
    if not radius > 0:
        raise ValueError(f"r_eval must be positive, got {r_eval!r}")
    return SchroederChart(S, radius)


def _tail_refuses(chart: SchroederChart, z: np.ndarray, value: np.ndarray) -> tuple:
    """The evaluation tail test of the inverse series at every z: (tail,
    refused).

    ``tail`` is the largest trailing stored term of h, as
    :func:`mapflow.series.trailing_term` gives it (inf where it overflows),
    from the chart's ``inverse_tail``.  A tail above
    EVAL_TAIL_TOL * max(1, |value|), or a value that is not finite,
    refuses.  The callers silence numpy's overflow warnings.
    """
    a, k = chart.inverse_tail
    tail = (a * np.abs(z)[:, np.newaxis] ** k).max(axis=1, initial=0.0)
    fine = np.isfinite(value) & (tail <= EVAL_TAIL_TOL * np.maximum(1.0, np.abs(value)))
    return tail, ~fine


def _inverse_with_slope(h1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The power matrix [w, w^2, ..., w^(n-1)] times ``h1``: rows 1 to n-1
    of the chart's ``inverse_pair``, so h(w) - h_0 and h'(w) - h_1."""
    return np.multiply.accumulate(w[:, np.newaxis].repeat(len(h1), axis=1), axis=1) @ h1


def _continue(chart: SchroederChart, x, start, steps, w) -> tuple:
    """Track u from the path seeds ``start``, where it is ``w``, to every x.

    A point's waypoints are start + (x - start) * s / steps for s = 1, ...,
    steps.  At each, Newton's method on the inverse series, warm started at
    the last waypoint's solution, runs until h(w) is within 1e-13 of the
    waypoint; then the point moves on to its next one.  Every point takes
    each Newton pass together with the others, whatever waypoint it is at,
    so one power matrix serves all of them.  A point is refused when an
    iterate beyond ``inverse_radius`` fails the tail test or is not
    finite, at a zero slope, or when a waypoint is not reached within
    NEWTON_STEPS passes.  Returns u at every x and the refusal reason by
    index of each x refused.
    """
    (h_0, h_1), h1 = chart.inverse_pair[0], chart.inverse_pair[1:]
    u = w.copy()
    reasons = {}
    at = np.arange(len(x))  # index of each point still on its path
    way = np.ones(len(x))  # the waypoint it is solving for
    began = np.zeros(len(x), dtype=np.int64)  # the pass before that waypoint's first
    target = start + (x - start) * (way / steps)
    goal, tol = target - h_0, 1e-13 * np.maximum(1.0, np.abs(target))
    passes = oldest = 0  # oldest: the earliest pass a waypoint still open began after
    while at.size:
        passes += 1
        m = len(at)
        both = _inverse_with_slope(h1, w)
        resid = both[:, 0] - goal
        done = np.abs(resid) <= tol
        slope = both[:, 1] + h_1
        refusals = []  # (index, reason); the first reason for an index wins
        trusted = np.abs(w) <= chart.inverse_radius
        if np.count_nonzero(trusted) < m:
            far = (~trusted).nonzero()[0]
            left = far[_tail_refuses(chart, w[far], both[far, 0] + h_0)[1]]
            done[left] = False
            refusals += [(i, "continuation left the inverse series' trust region")
                         for i in left.tolist()]
        if np.count_nonzero(slope) < m:
            refusals += [(i, "continuation hit a critical point of the chart")
                         for i in (~done & (slope == 0)).nonzero()[0].tolist()]
        if passes - oldest >= NEWTON_STEPS:
            stalled = ~done & (passes - began >= NEWTON_STEPS)
            refusals += [(i, f"continuation Newton failed to converge at {complex(target[i])!r}")
                         for i in stalled.nonzero()[0].tolist()]
        drop = None  # points refused, or at the end of their path
        if refusals:
            drop = np.zeros(m, dtype=bool)
            for i, why in refusals:
                reasons.setdefault(int(at[i]), why)
                drop[i] = True
        advanced = np.count_nonzero(done)
        if advanced:
            way += done
            began[done] = passes
            end = way > steps
            if np.count_nonzero(end):
                u[at[end]] = w[end]
                drop = end if drop is None else drop | end
            target = start + (x - start) * (way / steps)
            goal, tol = target - h_0, 1e-13 * np.maximum(1.0, np.abs(target))
            resid[done], slope[done] = 0.0, 1.0  # a point stays where it converged
        if drop is not None and np.count_nonzero(drop):
            keep = ~drop
            at, x, start, steps, w = at[keep], x[keep], start[keep], steps[keep], w[keep]
            way, began, target, goal, tol = way[keep], began[keep], target[keep], goal[keep], tol[keep]
            resid, slope = resid[keep], slope[keep]
            oldest = began.min(initial=passes)
        elif advanced:
            oldest = began.min()
        w = w - resid / slope
    return u, reasons


def _chart_values(chart: SchroederChart, xs: np.ndarray) -> tuple:
    """u at every x, and the refusal reason by index of each x where it has
    none.

    The forward series is summed directly where |x - x*| <= forward_radius.
    Beyond it, u is tracked along the segment from 0.8 of that radius to x
    by solving the inverse relation at each waypoint (:func:`_continue`).
    """
    d = xs - chart.x_star
    dist = np.abs(d)
    r = chart.forward_radius
    far = np.flatnonzero(~(dist <= r))
    reasons = {}
    # The direct points and the path seeds, in one Horner call.
    z = d.copy()
    z[far] *= PATH_START_FRACTION * r / dist[far]
    u = horner(chart.forward.coeffs, z)
    if far.size:
        start = chart.x_star + z[far]
        span = np.abs(xs[far] - start) / (PATH_STEP_FRACTION * r)
        steps = np.clip(np.ceil(span), 1, MAX_PATH_STEPS)
        u[far], refused = _continue(chart, xs[far], start, steps, u[far])
        reasons.update((int(far[i]), why) for i, why in refused.items())
    return u, reasons


def chart_value(chart: SchroederChart, x) -> complex:
    """The chart coordinate u(x), continued past the series radius if needed.

    Within ``forward_radius`` of the fixed point this is the direct sum of
    the forward series.  Beyond it the value is tracked along the segment
    from inside the radius to x by solving the inverse relation at each
    waypoint, which follows the principal analytic continuation of the
    chart.  The point is refused with :class:`OutOfChart` when a waypoint
    leaves the inverse series' trust region or its Newton iteration does
    not converge within NEWTON_STEPS.
    """
    with np.errstate(all="ignore"):
        u, reasons = _chart_values(chart, np.array([complex(x)]))
    if reasons:
        raise OutOfChart(reasons[0])
    return complex(u[0])


def _in_radius(dist, r_eval: float):
    """Whether a distance |x - x*| is within the chart radius, up to a
    relative 1e-12 for rounding; false for nan.  Elementwise on arrays."""
    return dist <= r_eval * (1.0 + 1e-12)


def _outside_reason(dist: float, r_eval: float) -> str:
    """The refusal text for a point at distance ``dist`` outside r_eval."""
    return f"|x - x*| = {dist:.4g} exceeds the chart radius {r_eval:.4g}"


def _new_grid(ts, xs, x_star: complex, r_eval: float) -> tuple:
    """The grid that both evaluators fill in: (grid, x, inside).

    ``grid`` holds ``ts`` and ``xs`` as tuples, nan values and tails, and
    status ``OK``, except that every x farther than r_eval from x* (or not
    finite) is ``OUTSIDE_RADIUS`` at every t with its refusal text in
    ``column_errors``.  ``x`` is the points as an array and ``inside`` the
    indices of the points within the radius.
    """
    ts = tuple(float(t) for t in ts)
    xs = tuple(complex(x) for x in xs)
    shape = (len(ts), len(xs))
    x = np.array(xs, dtype=complex)
    dist = np.abs(x - x_star)
    outside = ~_in_radius(dist, r_eval)
    status = np.full(shape, PointStatus.OK, dtype=np.int8)
    status[:, outside] = PointStatus.OUTSIDE_RADIUS
    column_errors = {j: _outside_reason(dist[j], r_eval) for j in np.flatnonzero(outside).tolist()}
    values = np.full(shape, complex(math.nan, math.nan))
    grid = IterateGrid(ts, xs, values, status, np.full(shape, math.nan), column_errors)
    return grid, x, np.flatnonzero(~outside)


def _time_shift_steps(chart: SchroederChart, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Integer time shifts k per point that bring |lambda^(t-k) w| within
    the chart's ``inverse_radius`` (0 where none is needed)."""
    lam_abs = abs(chart.multiplier)
    radius = chart.inverse_radius
    if lam_abs <= 1.0 or not 0 < radius < math.inf:
        return np.zeros(w.shape, dtype=np.int64)
    log_abs = np.log(lam_abs)
    # log(|lambda^t w| / radius): -inf at w = 0, nan at a nan t.
    excess = np.log(np.abs(w)) + t * log_abs - np.log(radius)
    steps = np.minimum(np.ceil(excess / log_abs), MAX_TIME_SHIFT)
    return np.where(excess > 0, steps, 0).astype(np.int64)


def evaluate_chart_grid(chart: SchroederChart, ts, xs) -> IterateGrid:
    """f^t(x) = inverse(lambda^t * forward(x)) for every t in ``ts``, x in ``xs``.

    u(x), continued past the series radius where needed, is computed once
    per x (:func:`_chart_values`).  The time-shift reduction, the inverse
    chart with its tail test and the shifted map then run on the whole grid.
    """
    grid, x, inside = _new_grid(ts, xs, chart.x_star, chart.r_eval)
    status = grid.status
    w = np.zeros(len(x), dtype=complex)
    with np.errstate(all="ignore"):
        w[inside], reasons = _chart_values(chart, x[inside])
        for i, why in reasons.items():
            j = int(inside[i])
            status[:, j] = PointStatus.OUT_OF_CHART
            grid.column_errors[j] = why
        rows, cols = np.nonzero(status == PointStatus.OK)
        t = np.array(grid.ts)[rows]
        k = _time_shift_steps(chart, t, w[cols])
        arg = np.exp((t - k) * chart.frame.log_multiplier) * w[cols]
        value = horner(chart.inverse.coeffs, arg)
        tail, refused = _tail_refuses(chart, arg, value)
        g = chart.frame.shifted_map
        g_coeffs = g.coeffs[: g.degree() + 1]
        for s in range(1, int(k.max(initial=0)) + 1):
            sel = np.flatnonzero((k >= s) & ~refused)
            # x* + g(value - x*); g is expanded about 0.
            value[sel] = chart.x_star + horner(g_coeffs, value[sel] - chart.x_star)
        # An overflow anywhere above leaves a non-finite value: refuse it.
        overflow = ~np.isfinite(value)
        tail[overflow] = math.inf
        refused |= overflow
    status[rows[refused], cols[refused]] = PointStatus.OUT_OF_CHART
    grid.values[rows[~refused], cols[~refused]] = value[~refused]
    grid.tail[rows, cols] = tail
    return grid


def evaluate_iterate_chart(chart: SchroederChart, t: float, x) -> complex:
    """f^t(x) = inverse(lambda^t * forward(x)) on the principal branch.

    Raises :class:`OutOfChart` when x is outside the chart radius or when the
    evaluation cannot be completed reliably (divergent series argument).
    """
    return evaluate_chart_grid(chart, (t,), (x,)).value(0, 0)


def build_expansion(
    S: SpectralFactorization, frame: FixedPointFrame, r_eval: float = math.inf
) -> SchroederChart:
    """The chart of a factorization bounded by ``r_eval``, for the mode route.

    ``frame`` is ``S.frame`` and is not read.  With the default only the
    mode-sum test refuses points; ``r_eval`` is not checked.
    """
    return SchroederChart(S, float(r_eval))


def evaluate_matrix_grid(
    chart: SchroederChart, ts, xs, tail_tol: float = TAIL_TOL
) -> IterateGrid:
    """f^t(x) = sum_k lambda^{k t} phi_k(x) for every t in ``ts``, x in ``xs``.

    The series of f^t - x* for every t, row 1 of M^t
    (:func:`mapflow.spectral.iterate_rows`), is formed from the chart's
    factorization and summed at every x in one product with the powers of
    x - x*; neither chart series is formed.  An x farther than the chart's
    ``r_eval`` from x* is ``OUTSIDE_RADIUS`` at every t; a point is
    ``NON_CONVERGENT`` when its last mode's term,
    lambda^((n-1)t) h_(n-1) (x - x*)^(n-1) (u^(n-1) to n terms is
    (x - x*)^(n-1)), is not negligible against the sum.
    """
    S = chart.factorization
    frame = S.frame
    grid, x, inside = _new_grid(ts, xs, frame.x_star, chart.r_eval)
    n = S.dim
    with np.errstate(all="ignore"):
        rows = iterate_rows(S, grid.ts)
        powers = np.vander(x[inside] - frame.x_star, n, increasing=True)
        total = frame.x_star + rows @ powers.T
        lead = np.exp(np.multiply(grid.ts, n - 1) * frame.log_multiplier) * S.inverse_row[-1]
        last = np.abs(lead[:, np.newaxis] * powers[:, -1])
        # A sum that overflowed has no meaningful last-term test.
        finite = np.isfinite(total) & np.isfinite(rows).all(axis=1)[:, np.newaxis]
        refused = ~finite | (last > tail_tol * np.maximum(np.abs(total), 1e-300))
    grid.values[:, inside] = np.where(refused, grid.values[:, inside], total)
    grid.status[:, inside] = np.where(refused, PointStatus.NON_CONVERGENT, PointStatus.OK)
    grid.tail[:, inside] = np.where(finite, last, math.inf)
    return grid


def evaluate_iterate_matrix(chart: SchroederChart, t: float, x) -> complex:
    """f^t(x) = sum_k lambda^{k t} phi_k(x), with a last-term convergence test.

    Raises :class:`NonConvergent` (carrying the last-term magnitude) when the
    final mode's contribution is not negligible against the running sum.
    """
    return evaluate_matrix_grid(chart, (t,), (x,)).value(0, 0)

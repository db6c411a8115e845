"""Continuous-time dynamics extracted from the embedding-matrix logarithm.

Row 1 of the matrix logarithm holds the Taylor coefficients of a vector
field G with the defining property that the continuous iterates solve
dx/dt = G(x), x(0) = x0.  The pipeline sums that row from the two chart
series as Log(lambda) * sum_k k h_k u^k, with no matrix.  The same field has
a closed chart form G = Log(lambda) * u(x) / u'(x), which this module uses as
a cross-check when building a field (a mismatch almost always means a wrong
logarithm branch; coefficients that are not finite are refused on their own).

:func:`pipeline` is the one way the CLI, ``verify`` and the scripts build all
this: fixed point, factorization and chart at once, and the mode expansion of
:mod:`mapflow.iterate` and the field on first use (:class:`Pipeline`).

The field is summed by Horner's rule up to the last term that can change the
result at the current |x - x*|: the terms it drops add up to at most one
rounding unit of the linear term, 2**-53 |G_1| |x - x*|, which is below the
rounding error Horner's rule makes on the full sum anyway.  Each field builds
the radius table that picks the number of terms on first use.

Also here: a classical fixed-step RK4 integrator for the extracted ODE
(complex state, as the field of a negative multiplier is genuinely complex;
a real start on a real field is summed in floats, with the same bits), the
exact validity window of the single-branch field for the fully chaotic
logistic map, and a chain-rule Lyapunov-exponent estimator along the discrete
orbit (the chaotic orbit leaves any fixed-point chart, so differentiating the
series would be dishonest; the chain rule has the identical limit).
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .carleman import CarlemanMatrix, scaled_deviation
from .errors import BranchMismatch, ChartEscape, OutOfChart
from .iterate import (
    IterateExpansion,
    IterateGrid,
    SchroederChart,
    _in_radius,
    _outside_reason,
    build_chart,
    build_expansion,
    evaluate_chart_grid,
    evaluate_matrix_grid,
)
from .logistic import LN2
from .series import TOL_FIX, PowerSeries, _horner, _trunc_div, find_fixed_point
from .spectral import SpectralFactorization, _refuse_non_finite, factor_from_series, log_row

# Field cross-check tolerance (row-scaled, leading half of the coefficients).
TOL_FIELD_XCHECK = 1e-7
# Default endpoint tolerance for the RK4 integration tests at dt = 1e-3.
TOL_ODE = 1e-6
# Bound on the terms a field evaluation drops, relative to |G_1| |x - x*|.
FIELD_DROP_TOL = 2.0**-53
# Orbit iterates per chunk of the Lyapunov estimate (a 64 KB float buffer).
LYAPUNOV_CHUNK = 8192


@dataclass(frozen=True, eq=False)
class FlowField:
    """Vector field of the continuous iteration, as a series about x*.

    ``chart`` is the chart it was built with; its frame holds x*, the
    multiplier and the Log lambda of the field.
    """

    series: PowerSeries
    chart: SchroederChart

    @property
    def x_star(self) -> complex:
        return self.series.base_point

    @cached_property
    def real(self) -> bool:
        """Whether x* and every coefficient have an imaginary part of exactly
        +0.0 (not -0.0).  Such a field maps real states to real values, and
        sums them in floats (see :func:`integrate_flow`)."""
        imag = np.append(self.series.coeffs.imag, self.x_star.imag)
        return not (imag.any() or np.signbit(imag).any())

    @cached_property
    def radius_table(self) -> tuple[list[float], list[list[complex]]]:
        """Radii and coefficient prefixes: (radii, prefixes).

        Wherever |z| = |x - x*| <= radii[i], the terms that prefixes[i] drops
        sum to at most FIELD_DROP_TOL * |G_1| |z|.  With M_K the largest |G_m|,
        m >= K, the K-term prefix gets the radius
        min(1/2, (FIELD_DROP_TOL |G_1| / (2 M_K))**(1/(K-1))), since within
        |z| <= 1/2 the dropped terms sum to at most 2 M_K |z|^K; the radius is
        infinite where M_K = 0.  A longer prefix drops fewer terms, so the
        radii are raised to their running maximum, which makes them
        nondecreasing for ``bisect``.  The last prefix is the whole series.
        The prefixes are lists of Python scalars, which RK4's scalar Horner
        steps sum faster than numpy scalars: floats for a :attr:`real`
        field, complex numbers otherwise.
        """
        mags = np.abs(self.series.coeffs)
        coeffs = (self.series.coeffs.real if self.real else self.series.coeffs).tolist()
        keep = np.arange(2, len(coeffs))
        suffix = np.maximum.accumulate(mags[:1:-1])[::-1]  # M_K for each K in keep
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = FIELD_DROP_TOL * mags[1] / (2.0 * suffix)
            radii = np.minimum(0.5, ratio ** (1.0 / (keep - 1)))
        radii[suffix == 0] = math.inf
        # the whole series drops nothing
        radii = np.maximum.accumulate(np.append(radii, math.inf))
        return radii.tolist(), [coeffs[:k] for k in range(2, len(coeffs) + 1)]

    @cached_property
    def value(self) -> Callable[[complex], complex]:
        """G, as a function called ``field.value(x)``: Horner's rule over the
        shortest prefix of the radius table whose dropped terms stay below
        one rounding unit of the linear term at |x - x*|.  No domain check:
        see :func:`evaluate_field`.

        On a :attr:`real` field a float x is summed in floats and gives a
        float.  A complex x gives the same bits as summing the complex
        coefficients: each float coefficient and x* act as that number plus
        +0.0j.
        """
        radii, prefixes = self.radius_table
        x_star = self.x_star.real if self.real else self.x_star

        def value(x):
            z = x - x_star
            return _horner(prefixes[bisect_left(radii, abs(z))], z)

        return value


def build_field(L: PowerSeries | CarlemanMatrix, chart: SchroederChart) -> FlowField:
    """Assemble the flow field from the logarithm's row 1 and its chart.

    ``L`` is that row as a series about the fixed point
    (:func:`mapflow.spectral.log_row`), or a matrix from
    :func:`mapflow.spectral.matrix_log`, whose ``source_map`` is the row.
    The coefficients are cross-checked against Log(lambda) * u / u' computed
    by truncated series division; disagreement raises :class:`BranchMismatch`.
    """
    g = L.source_map if isinstance(L, CarlemanMatrix) else L
    if g.base_point != chart.x_star:
        raise ValueError(
            f"log expanded about {g.base_point!r} but chart sits at "
            f"{chart.x_star!r}"
        )
    _refuse_non_finite(g.coeffs, "field", BranchMismatch)
    n = min(g.order, chart.forward.order)
    u = chart.forward.truncated(n)
    du = np.append(u.derivative().coeffs, 0)
    log_lam = chart.frame.log_multiplier
    # Term k of the quotient needs only terms 0 .. k of u and u'.
    window = max(2, n // 2)
    alt = log_lam * _trunc_div(u.coeffs[:window], du[:window])
    dev = scaled_deviation(g.coeffs[:window], alt[:window])
    if not dev <= TOL_FIELD_XCHECK:
        raise BranchMismatch(
            f"field coefficients disagree with Log(lambda)*u/u' by {dev:.3e}; "
            "check the logarithm branch / chart pairing"
        )
    return FlowField(series=g, chart=chart)


def evaluate_field(field: FlowField, x) -> complex:
    """G(x) by :meth:`FlowField.value`; domain-guarded by the chart radius.

    A point farther than ``r_eval`` from x*, or not finite, raises
    :class:`OutOfChart`.
    """
    x = complex(x)
    dist = abs(x - field.x_star)
    if not _in_radius(dist, field.chart.r_eval):
        raise OutOfChart(_outside_reason(dist, field.chart.r_eval))
    return field.value(x)


# The trajectory is kept in memory, about 300 bytes per step with its CSV
# row: this bound keeps a run within about 300 MB.
MAX_RK4_STEPS = 10**6


def integrate_flow(field: FlowField, x0, t_end: float, dt: float = 1e-3):
    """Classical fixed-step RK4 for dx/dt = G(x) from x0.

    G is summed by :attr:`FlowField.value`, which drops the terms that cannot
    change it at the current |x - x*|.  Returns the trajectory as a list of
    (t, x) pairs with complex x.  A non-finite ``x0``, ``t_end`` or ``dt``, a
    ``dt`` that is not positive, or more than MAX_RK4_STEPS steps raises
    ``ValueError`` before anything is allocated.  Leaving the chart (or a
    state that is no longer finite) raises :class:`ChartEscape` carrying the
    time reached and the partial trajectory.

    On a :attr:`FlowField.real` field, an x0 whose imaginary part is exactly
    +0.0 is integrated in floats.  The states are bit for bit those of
    complex arithmetic: with +0.0 imaginary parts, the real parts of complex
    sums and products are the float ones, and the imaginary part of the
    state stays +0.0.  Only an overflow puts nan into a complex imaginary
    part; a float run that ends in a non-finite state is therefore run again
    in complex arithmetic, which gives that state's complex bits.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    x = complex(x0)
    if not cmath.isfinite(x):
        raise ValueError(f"x0 must be finite, got {x!r}")
    ratio = abs(t_end) / dt
    if ratio > MAX_RK4_STEPS + 0.5:  # round(ratio) steps would exceed the bound
        raise ValueError(
            f"|t_end|/dt asks for {ratio:.10g} RK4 steps, more than the "
            f"{MAX_RK4_STEPS} a trajectory may hold; raise dt or shorten t_end"
        )
    steps = max(1, round(ratio))
    h = t_end / steps
    x_star, r_eval = field.x_star, field.chart.r_eval
    states = None
    if field.real and x.imag == 0.0 and math.copysign(1.0, x.imag) > 0:
        states = _rk4(field.value, x.real, x_star.real, r_eval, h, steps)
        # After an overflow, redo the run: complex arithmetic ends in other bits.
        states = list(map(complex, states)) if math.isfinite(states[-1]) else None
    if states is None:
        states = _rk4(field.value, x, x_star, r_eval, h, steps)
    trajectory = list(zip([k * h for k in range(len(states))], states))
    trajectory[0] = (0.0, states[0])
    if not _in_radius(abs(states[-1] - x_star), r_eval):
        t = t_end if len(states) > steps else (len(states) - 1) * h
        raise ChartEscape(
            f"trajectory left the chart at t = {t:.6g}",
            t_reached=t,
            trajectory=trajectory,
        )
    return trajectory


def _rk4(g, x, x_star, r_eval: float, h: float, steps: int) -> list:
    """The states of up to ``steps`` RK4 steps of size h from x, for
    :func:`integrate_flow`; they stop at the first state outside the chart
    (or not finite), which is included."""
    states = [x]
    for _ in range(steps):
        if not _in_radius(abs(x - x_star), r_eval):
            break
        k1 = g(x)
        k2 = g(x + 0.5 * h * k1)
        k3 = g(x + 0.5 * h * k2)
        k4 = g(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return states


def validity_window(x: float) -> float:
    """Time up to which the single-branch field drives the mu=4 logistic map.

    The closed-form iterate winds around the branch cut of the inverse
    cosine; the principal-branch field is only obeyed until
    t_max(x) = ln(pi / arccos(1 - 2x)) / ln 2.  Specific to the fully
    chaotic logistic map; x must lie in (0, 1].
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x = {x!r} outside (0, 1]")
    theta = math.acos(1.0 - 2.0 * x)
    return math.log(math.pi / theta) / LN2


def lyapunov_logistic(n: int, x0: float) -> float:
    """Chain-rule Lyapunov estimate for the mu=4 logistic map.

    Averages ln|f'(x_m)| = ln|4 - 8 x_m| over the orbit x_0 = x0, ...,
    x_{n-1}.  The expected limit for a generic seed is ln 2.

    The orbit is iterated in plain floats, LYAPUNOV_CHUNK iterates at a time
    into a reused buffer, so memory stays bounded for any n.  numpy takes the
    logs of each chunk (within 1 ulp of ``math.log``) and adds them in orbit
    order with the running total carried into the chunk's first term, so the
    sum is the sequential one.

    An orbit that reaches the critical point 1/2 or the fixed point 0 within
    its n iterates is refused with ``ValueError`` naming the step: in floats
    every seed within about 4e-9 of 1/2 maps to exactly 1.0 and then to 0,
    where the average would converge to ln 4, not ln 2.
    """
    if n < 1000:
        raise ValueError("use at least 1000 iterates for a meaningful average")
    if not 0.0 < x0 < 1.0:
        raise ValueError(
            f"seed {x0!r} rejected: orbit must start inside (0, 1) off the "
            "fixed points"
        )
    x = float(x0)
    total = 0.0
    buf = [0.0] * LYAPUNOV_CHUNK
    for start in range(0, n, LYAPUNOV_CHUNK):
        m = min(LYAPUNOV_CHUNK, n - start)
        for i in range(m):
            buf[i] = x
            x = 4.0 * x * (1.0 - x)
        orbit = np.array(buf[:m])
        hit = np.flatnonzero((orbit == 0.5) | (orbit == 0.0))
        if hit.size:
            step = start + int(hit[0])
            what = "critical point 1/2" if orbit[hit[0]] == 0.5 else "fixed point 0"
            raise ValueError(
                f"orbit from {x0!r} reaches the {what} at step {step}: it collapses "
                "onto x = 0 and has no Lyapunov estimate"
            )
        terms = np.log(np.abs(4.0 - 8.0 * orbit))
        terms[0] += total
        total = float(np.add.accumulate(terms, out=terms)[-1])
    return total / n


@dataclass(frozen=True, eq=False)
class Pipeline:
    """One map's factorization and chart, and what is built from them.

    The factorization's frame holds x*, lambda and Log lambda; the chart,
    the mode expansion and the field hold that same frame.  The expansion
    and the field are built on first use, once each.
    """

    factorization: SpectralFactorization
    chart: SchroederChart

    @cached_property
    def expansion(self) -> IterateExpansion:
        """The mode expansion, bounded by the chart's radius."""
        fact = self.factorization
        return build_expansion(fact, fact.frame, r_eval=self.chart.r_eval)

    @cached_property
    def field(self) -> FlowField:
        """The flow field, summed from the factorization's field row."""
        return build_field(log_row(self.factorization), self.chart)

    def grid(self, route: str, ts, xs) -> IterateGrid:
        """f^t over the (t, x) grid on ``route``: "chart" evaluates the chart,
        "matrix" the mode expansion, which only this route builds."""
        if route == "chart":
            return evaluate_chart_grid(self.chart, ts, xs)
        return evaluate_matrix_grid(self.expansion, ts, xs)


def pipeline(
    f: PowerSeries,
    guess,
    dim: int,
    r_eval: float | None = None,
    tol_fix: float | None = None,
) -> Pipeline:
    """Locate the fixed point near ``guess``, factor, and build the chart.

    The factorization comes from the shifted map's two chart series
    (:func:`mapflow.spectral.factor_from_series`); no matrix is built.
    ``r_eval`` overrides the chart's default radius and ``tol_fix`` the
    fixed point's Newton residual tolerance.
    """
    frame = find_fixed_point(f, guess, tol_fix=TOL_FIX if tol_fix is None else tol_fix)
    fact = factor_from_series(frame, dim)
    return Pipeline(fact, build_chart(fact, frame, r_eval=r_eval))

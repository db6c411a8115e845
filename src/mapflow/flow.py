"""Continuous-time dynamics extracted from the embedding-matrix logarithm.

Row 1 of the matrix logarithm holds the Taylor coefficients of a vector
field G with the defining property that the continuous iterates solve
dx/dt = G(x), x(0) = x0.  The pipeline sums that row from the two chart
series as Log(lambda) * sum_k k h_k u^k, with no matrix.  The same field has
a closed chart form G = Log(lambda) * u(x) / u'(x), which this module uses as
a cross-check when building a field (a mismatch almost always means a wrong
logarithm branch).

The field is summed by Horner's rule up to the last term that can change the
result at the current |x - x*|: the terms it drops add up to at most one
rounding unit of the linear term, 2**-53 |G_1| |x - x*|, which is below the
rounding error Horner's rule makes on the full sum anyway.  Each field builds
the radius table that picks the number of terms on first use.

Also here: a classical fixed-step RK4 integrator for the extracted ODE
(complex state; the field of a negative multiplier is genuinely complex), the
exact validity window of the single-branch field for the fully chaotic
logistic map, and a chain-rule Lyapunov-exponent estimator along the discrete
orbit (the chaotic orbit leaves any fixed-point chart, so differentiating the
series would be dishonest; the chain rule has the identical limit).
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .carleman import CarlemanMatrix, scaled_deviation
from .errors import BranchMismatch, ChartEscape, OutOfChart
from .iterate import SchroederChart
from .series import PowerSeries, _horner, _trunc_div

# Field cross-check tolerance (row-scaled, leading half of the coefficients).
TOL_FIELD_XCHECK = 1e-7
# Default endpoint tolerance for the RK4 integration tests at dt = 1e-3.
TOL_ODE = 1e-6
# Bound on the terms a field evaluation drops, relative to |G_1| |x - x*|.
FIELD_DROP_TOL = 2.0**-53
# Orbit iterates per chunk of the Lyapunov estimate (a 64 KB float buffer).
LYAPUNOV_CHUNK = 8192

LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class FlowField:
    """Vector field of the continuous iteration, as a series about x*."""

    series: PowerSeries
    chart: SchroederChart
    multiplier: complex

    @property
    def x_star(self) -> complex:
        return self.series.base_point

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
        The prefixes are lists of Python complex numbers, which RK4's scalar
        Horner steps sum faster than numpy scalars.
        """
        mags = np.abs(self.series.coeffs)
        coeffs = self.series.coeffs.tolist()
        keep = np.arange(2, len(coeffs))
        suffix = np.maximum.accumulate(mags[:1:-1])[::-1]  # M_K for each K in keep
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = FIELD_DROP_TOL * mags[1] / (2.0 * suffix)
            radii = np.minimum(0.5, ratio ** (1.0 / (keep - 1)))
        radii[suffix == 0] = math.inf
        # the whole series drops nothing
        radii = np.maximum.accumulate(np.append(radii, math.inf))
        return radii.tolist(), [coeffs[:k] for k in range(2, len(coeffs) + 1)]

    def value(self, x: complex) -> complex:
        """G(x) by Horner's rule over the shortest prefix of the radius table
        whose dropped terms stay below one rounding unit of the linear term
        at |x - x*|.  No domain check: see :func:`evaluate_field`."""
        z = x - self.series.base_point
        radii, prefixes = self.radius_table
        return _horner(prefixes[bisect_left(radii, abs(z))], z)


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
    n = min(g.order, chart.forward.order)
    u = chart.forward.truncated(n)
    du = np.append(u.derivative().coeffs, 0)
    log_lam = cmath.log(chart.multiplier)
    # Term k of the quotient needs only terms 0 .. k of u and u'.
    window = max(2, n // 2)
    alt = log_lam * _trunc_div(u.coeffs[:window], du[:window])
    dev = scaled_deviation(g.coeffs[:window], alt[:window])
    if dev > TOL_FIELD_XCHECK:
        raise BranchMismatch(
            f"field coefficients disagree with Log(lambda)*u/u' by {dev:.3e}; "
            "check the logarithm branch / chart pairing"
        )
    return FlowField(series=g, chart=chart, multiplier=chart.multiplier)


def evaluate_field(field: FlowField, x) -> complex:
    """G(x) by :meth:`FlowField.value`; domain-guarded by the chart radius.

    A point farther than ``r_eval`` from x*, or not finite, raises
    :class:`OutOfChart`.
    """
    x = complex(x)
    if not abs(x - field.x_star) <= field.chart.r_eval * (1.0 + 1e-12):
        raise OutOfChart(
            f"|x - x*| = {abs(x - field.x_star):.4g} exceeds the chart "
            f"radius {field.chart.r_eval:.4g}"
        )
    return field.value(x)


# The trajectory is kept in memory, about 300 bytes per step with its CSV
# row: this bound keeps a run within about 300 MB.
MAX_RK4_STEPS = 10**6


def integrate_flow(field: FlowField, x0, t_end: float, dt: float = 1e-3):
    """Classical fixed-step RK4 for dx/dt = G(x) from x0.

    G is summed by :meth:`FlowField.value`, which drops the terms that cannot
    change it at the current |x - x*|.  Returns the trajectory as a list of
    (t, x) pairs, complex state included.  A non-finite ``x0``, ``t_end`` or
    ``dt``, a ``dt`` that is not positive, or more than MAX_RK4_STEPS steps
    raises ``ValueError`` before anything is allocated.  Leaving
    the chart (or a state that is no longer finite) raises
    :class:`ChartEscape` carrying the time reached and the partial trajectory.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    x = complex(x0)
    if not cmath.isfinite(x):
        raise ValueError(f"x0 must be finite, got {x!r}")
    x_star = field.x_star
    r = field.chart.r_eval * (1.0 + 1e-12)
    ratio = abs(t_end) / dt
    if ratio > MAX_RK4_STEPS + 0.5:  # round(ratio) steps would exceed the bound
        raise ValueError(
            f"|t_end|/dt asks for {ratio:.10g} RK4 steps, more than the "
            f"{MAX_RK4_STEPS} a trajectory may hold; raise dt or shorten t_end"
        )
    steps = max(1, round(ratio))
    h = t_end / steps
    g = field.value
    trajectory = [(0.0, x)]
    for i in range(steps):
        if not abs(x - x_star) <= r:
            raise ChartEscape(
                f"trajectory left the chart at t = {i * h:.6g}",
                t_reached=i * h,
                trajectory=trajectory,
            )
        k1 = g(x)
        k2 = g(x + 0.5 * h * k1)
        k3 = g(x + 0.5 * h * k2)
        k4 = g(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trajectory.append(((i + 1) * h, x))
    if not abs(x - x_star) <= r:
        raise ChartEscape(
            f"trajectory left the chart at t = {t_end:.6g}",
            t_reached=t_end,
            trajectory=trajectory,
        )
    return trajectory


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


def field_pipeline(
    f: PowerSeries,
    guess,
    dim: int,
    r_eval: float | None = None,
    tol_fix: float | None = None,
) -> FlowField:
    """Fixed point -> factorization -> chart -> field row -> field, in one call."""
    from .iterate import chart_pipeline
    from .spectral import log_row

    _, fact, chart = chart_pipeline(f, guess, dim, r_eval=r_eval, tol_fix=tol_fix)
    return build_field(log_row(fact), chart)

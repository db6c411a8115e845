import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapflow as mf
from mapflow import iterate
from mapflow.iterate import (
    EVAL_TAIL_TOL,
    INV_TERM_CAP,
    MAX_PATH_STEPS,
    MAX_TIME_SHIFT,
    NEWTON_STEPS,
    PATH_START_FRACTION,
    TAIL_TOL,
    SchroederChart,
    chart_value,
)
from mapflow.logistic import (
    logistic2_chart,
    logistic2_iterate,
    logistic4_chart,
    logistic4_chart_coefficients,
    logistic4_chart_second,
    logistic4_iterate,
    logistic4_iterate_second,
)
from mapflow.series import _horner, evaluate_with_tail, tail_radius

DIM = 40


# --- build_chart ---------------------------------------------------------------

def test_origin_chart_matches_exact_coefficients(pipe4_origin):
    chart = pipe4_origin.chart
    exact = logistic4_chart_coefficients(8)
    for k in range(1, 9):
        assert abs(chart.forward.coeffs[k] - float(exact[k - 1])) < 1e-12
    assert chart.forward.coeffs[0] == 0
    assert chart.forward.coeffs[1] == 1


def test_chart_radii_are_computed_on_first_chart_route_use(logistic4):
    # A fresh chart: the shared fixture's chart has already been evaluated.
    chart = mf.pipeline(logistic4, 0.1, r_eval=0.6).chart
    assert "forward_radius" not in vars(chart) and "inverse_radius" not in vars(chart)
    mf.evaluate_iterate_chart(chart, 0.5, 0.1)
    assert vars(chart)["forward_radius"] == tail_radius(chart.forward.coeffs)
    h = chart.inverse.coeffs
    cap = min((INV_TERM_CAP / abs(h[k])) ** (1 / k) for k in range(2, len(h)) if h[k] != 0)
    assert vars(chart)["inverse_radius"] == min(tail_radius(h), cap) < tail_radius(h)


def test_origin_chart_values_match_closed_form(pipe4_origin):
    chart = pipe4_origin.chart
    for x in (0.01, 0.05, 0.2, 0.3):
        assert abs(chart.forward(x) - logistic4_chart(x)) < 1e-10


def test_mu2_chart_matches_log_series(pipe2_origin):
    chart = pipe2_origin.chart
    expected = [0, 1, 1, 4 / 3]
    for k, c in enumerate(expected):
        assert abs(chart.forward.coeffs[k] - c) < 1e-12
    for x in (0.05, 0.1, 0.2):
        assert abs(chart.forward(x) - logistic2_chart(x)) < 1e-11


def test_second_chart_normalized_taylor(pipe4_second):
    # Hand expansion of the unit-derivative chart at 3/4: quadratic and cubic
    # coefficients are 2/3 and 16/9.
    chart = pipe4_second.chart
    assert abs(chart.frame.x_star - 0.75) < 1e-12
    assert abs(chart.forward.coeffs[1] - 1.0) < 1e-13
    assert abs(chart.forward.coeffs[2] - 2 / 3) < 1e-12
    assert abs(chart.forward.coeffs[3] - 16 / 9) < 1e-12
    for x in (0.7, 0.8):
        assert abs(chart.forward(x) - logistic4_chart_second(x)) < 1e-10


def test_chart_functional_equation_residual(pipe4_origin, pipe4_second):
    for pipe in (pipe4_origin, pipe4_second):
        chart = pipe.chart
        frame = chart.frame
        lam = chart.multiplier
        g = frame.shifted_map
        # 20 samples within a conservative radius around the fixed point
        radius = mf.default_chart_radius(frame)
        for i in range(20):
            x = frame.x_star + radius * (i + 1) / 21 * (1 if i % 2 else -1)
            fx = frame.x_star + g(x - frame.x_star)
            resid = abs(chart.forward(fx) - lam * chart.forward(x))
            assert resid < 1e-8


def test_chart_inverse_roundtrip(pipe4_origin):
    chart = pipe4_origin.chart
    for i in range(20):
        x = 0.002 * (i + 1)
        assert abs(chart.inverse(chart.forward(x)) - x) < 1e-8


def test_chart_inverse_matches_series_reversion(logistic4):
    # The inverse series composed with the chart is the identity to order 12.
    chart = mf.pipeline(logistic4.truncated(12), 0.1).chart
    ident = np.zeros(12)
    ident[1] = 1.0
    h_of_u = mf.compose(chart.inverse, chart.forward)
    assert np.abs(h_of_u.coeffs - ident).max() < 1e-10


def test_default_radius_is_tenth_of_fixed_point_gap(logistic4, logistic2):
    frame = mf.find_fixed_point(logistic4, 0.1)
    assert abs(mf.default_chart_radius(frame) - 0.075) < 1e-10
    frame2 = mf.find_fixed_point(logistic2, 0.1)
    assert abs(mf.default_chart_radius(frame2) - 0.05) < 1e-10
    linear = mf.PowerSeries.from_coefficients([0, 3.0], order=8)
    assert mf.default_chart_radius(mf.find_fixed_point(linear, 0.0)) == 1.0


# --- evaluate_iterate_chart ------------------------------------------------------

def test_time_one_reproduces_the_map(pipe4_origin, logistic4):
    chart = pipe4_origin.chart
    for x in (0.01, 0.05, 0.2):
        assert abs(mf.evaluate_iterate_chart(chart, 1.0, x) - logistic4(x)) < 1e-9


def test_half_time_matches_closed_form(pipe4_origin):
    chart = pipe4_origin.chart
    v = mf.evaluate_iterate_chart(chart, 0.5, 0.05)
    assert abs(v - logistic4_iterate(0.5, 0.05)) < 1e-6


def test_second_chart_integer_time_coincides_with_principal(pipe4_second):
    chart = pipe4_second.chart
    v = mf.evaluate_iterate_chart(chart, 2.0, 0.7)
    assert abs(v - logistic4_iterate(2.0, 0.7)) < 1e-6


def test_out_of_chart_radius_raises(pipe4_origin):
    chart = pipe4_origin.chart
    with pytest.raises(mf.OutOfChart):
        mf.evaluate_iterate_chart(chart, 0.5, 0.7)  # r_eval is 0.6


def test_integer_consistency_both_routes(pipe4_origin, logistic4):
    fact, chart = pipe4_origin.factorization, pipe4_origin.chart
    expansion = mf.build_expansion(fact, fact.frame)
    x0 = 0.02
    orbit = [complex(x0)]
    for _ in range(4):
        orbit.append(logistic4(orbit[-1]))
    for n in range(1, 5):
        assert abs(mf.evaluate_iterate_chart(chart, n, x0) - orbit[n]) < 1e-7
        assert abs(mf.evaluate_iterate_matrix(expansion, n, x0) - orbit[n]) < 1e-7


def test_semigroup_property_both_routes(pipe4_origin):
    fact, chart = pipe4_origin.factorization, pipe4_origin.chart
    expansion = mf.build_expansion(fact, fact.frame)
    routes = (
        lambda t, x: mf.evaluate_iterate_chart(chart, t, x),
        lambda t, x: mf.evaluate_iterate_matrix(expansion, t, x),
    )
    for fn in routes:
        for s in (0.25, 0.5, 1.0):
            for t in (0.25, 0.5, 1.0):
                for x in (0.01, 0.02):
                    assert abs(fn(s + t, x) - fn(s, fn(t, x))) < 1e-7


def test_linear_map_iterates_exactly():
    # chart of a pure scaling map is the identity; f^t(x) = 3^t x
    f = mf.PowerSeries.from_coefficients([0, 3.0], order=8)
    chart = mf.pipeline(f, 0.0).chart
    for t in (0.5, 1.0, 2.3):
        for x in (0.1, -0.4, 0.2j):
            assert abs(mf.evaluate_iterate_chart(chart, t, x) - 3.0**t * x) < 1e-12


def test_negative_time_inverts_the_map(pipe4_origin, logistic4):
    chart = pipe4_origin.chart
    x = 0.05
    y = mf.evaluate_iterate_chart(chart, -1.0, x)
    assert abs(logistic4(y) - x) < 1e-9


# --- continuation beyond the series radius --------------------------------------

def test_chart_value_continues_past_series_radius(pipe4_second):
    chart = pipe4_second.chart
    # 0.3 lies far outside the second chart's series radius (~0.25 about 3/4)
    assert abs(0.3 - chart.x_star) > chart.forward_radius
    w = chart_value(chart, 0.3)
    assert abs(w - logistic4_chart_second(0.3)) < 1e-9


def test_a_polynomial_chart_has_no_series_radius_to_continue_past():
    # The chart of x -> 2x is u(x) = x: its forward radius is infinite, so
    # every finite point is a direct sum, and only nan is refused.
    chart = mf.pipeline(mf.PowerSeries.from_coefficients([0, 2], order=8), 0.0,
                        r_eval=math.inf).chart
    assert chart.forward_radius == math.inf
    assert chart_value(chart, 1e6) == 1e6
    with pytest.raises(mf.OutOfChart, match="not finite"):
        chart_value(chart, math.nan)


def test_branch_non_uniqueness(pipe4_origin, pipe4_second):
    chart0 = pipe4_origin.chart
    chart1 = pipe4_second.chart
    x = 0.3
    for t in (1.0, 2.0, 3.0):
        a = mf.evaluate_iterate_chart(chart0, t, x)
        b = mf.evaluate_iterate_chart(chart1, t, x)
        assert abs(a - b) < 1e-6
    v0 = mf.evaluate_iterate_chart(chart0, 0.5, x)
    v1 = mf.evaluate_iterate_chart(chart1, 0.5, x)
    assert abs(v0 - v1) > 1e-3
    assert abs(v1.imag) > 1e-3
    assert abs(v1 - logistic4_iterate_second(0.5, x)) < 1e-9


# --- the mode expansion ----------------------------------------------------------

def _modes(fact):
    """Row k holds mode k, h_k u^k, about x*: h_k times row k of the forward
    factor.  Mode 0 is the constant x* of the mode sum."""
    modes = fact.inverse_row[:, np.newaxis] * fact.chart_matrix
    modes[0, 0] = fact.frame.x_star
    return modes


def test_mode_zero_is_fixed_point_constant(pipe4_origin, pipe4_second):
    for pipe in (pipe4_origin, pipe4_second):
        fact = pipe.factorization
        x_star = fact.frame.x_star
        # h_0 = 0 and u^0 = 1: mode 0 adds nothing to the constant x*.
        assert fact.inverse_row[0] == 0
        assert np.array_equal(fact.chart_matrix[0], np.eye(DIM)[0])
        assert np.array_equal(_modes(fact)[0], x_star * np.eye(DIM)[0])
        grid = mf.evaluate_matrix_grid(pipe.chart, [-0.5, 0.5, 1.5], [x_star])
        assert (grid.values == x_star).all()


def test_mode_one_has_unit_linear_coefficient(pipe4_origin):
    assert abs(_modes(pipe4_origin.factorization)[1, 1] - 1.0) < 1e-13


def test_modes_match_closed_form_taylor(pipe4_origin):
    # phi_k = (-1)^(k+1)/2 * (2 arcsin(sqrt x))^(2k) / (2k)! ; its Taylor
    # coefficients follow from exact convolution powers of the chart series.
    modes = _modes(pipe4_origin.factorization)
    u_exact = [Fraction(0)] + logistic4_chart_coefficients(11)
    for k in (1, 2):
        conv = [Fraction(1)] + [Fraction(0)] * 11
        for _ in range(k):
            out = [Fraction(0)] * 12
            for i, a in enumerate(conv):
                if a == 0:
                    continue
                for j, b in enumerate(u_exact):
                    if i + j < 12 and b != 0:
                        out[i + j] += a * b
            conv = out
        scale = Fraction((-1) ** (k + 1) * 4**k, 2 * math.factorial(2 * k))
        expected = [float(scale * c) for c in conv]
        got = modes[k, :12]
        assert np.abs(got - np.array(expected)).max() < 1e-6


def test_modes_sum_to_identity_at_time_zero(pipe4_origin):
    fact = pipe4_origin.factorization
    frame = fact.frame
    expansion = mf.build_expansion(fact, frame)
    for x in (0.005, 0.01, 0.03):
        total = sum(_horner(mode, x - frame.x_star) for mode in _modes(fact).tolist())
        assert abs(total - x) < 1e-8
        assert abs(mf.evaluate_iterate_matrix(expansion, 0.0, x) - x) < 1e-8


def test_matrix_route_matches_closed_form(pipe4_origin):
    fact = pipe4_origin.factorization
    expansion = mf.build_expansion(fact, fact.frame)
    v = mf.evaluate_iterate_matrix(expansion, 1.5, 0.02)
    assert abs(v - logistic4_iterate(1.5, 0.02)) < 1e-6


def test_routes_agree_at_random_samples(pipe4_origin):
    fact, chart = pipe4_origin.factorization, pipe4_origin.chart
    expansion = mf.build_expansion(fact, fact.frame)
    rng = np.random.default_rng(42)
    for _ in range(20):
        t = rng.uniform(0.0, 2.0)
        x = rng.uniform(-0.05, 0.05)
        a = mf.evaluate_iterate_chart(chart, t, complex(x))
        b = mf.evaluate_iterate_matrix(expansion, t, complex(x))
        assert abs(a - b) < 1e-7


def test_mode_sum_flags_divergence(pipe4_origin):
    fact = pipe4_origin.factorization
    expansion = mf.build_expansion(fact, fact.frame)
    with pytest.raises(mf.NonConvergent) as err:
        mf.evaluate_iterate_matrix(expansion, 12.0, 0.05)
    assert err.value.last_term is not None


def test_complex_multiplier_pipeline():
    lam = 1.5 + 0.5j
    f = mf.PowerSeries.from_coefficients([0, lam, 0.3 - 0.2j], order=20)
    chart = mf.pipeline(f, 0.0, r_eval=0.3).chart
    assert abs(chart.multiplier - lam) < 1e-12
    for delta in (0.01, 0.004 - 0.006j):
        resid = abs(chart.forward(f(delta)) - lam * chart.forward(delta))
        assert resid < 1e-10
    # semigroup at fractional times
    fn = lambda t, x: mf.evaluate_iterate_chart(chart, t, x)
    x = 0.008 + 0.003j
    assert abs(fn(1.1, x) - fn(0.6, fn(0.5, x))) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    st.floats(1.3, 3.0),
    st.floats(-0.5, 0.5),
    st.floats(-0.5, 0.5),
)
def test_pipeline_linearizes_random_repelling_maps(a1, a2, a3):
    # maps fixing 0 with a real repelling multiplier: the chart must satisfy
    # its defining equation and invert cleanly near the fixed point
    f = mf.PowerSeries.from_coefficients([0.0, a1, a2, a3], order=16)
    chart = mf.pipeline(f, 0.0, r_eval=0.5).chart
    lam = chart.multiplier
    for delta in (0.004, -0.006, 0.003j):
        resid = abs(chart.forward(f(delta)) - lam * chart.forward(delta))
        assert resid < 1e-8
        assert abs(chart.inverse(chart.forward(delta)) - delta) < 1e-8


# --- normalization invariance -----------------------------------------------------

def test_chart_rescaling_leaves_iterates_unchanged(pipe4_origin):
    chart, fact = pipe4_origin.chart, pipe4_origin.factorization
    c = 2.5 - 0.4j
    # u -> c u and h(w) -> h(w / c): the same iterates from another chart.
    rescaled = dataclasses.replace(fact, chart_row=c * fact.chart_row,
                                   inverse_row=fact.inverse_row / c ** np.arange(fact.dim))
    scaled = SchroederChart(rescaled, chart.r_eval)
    for t in (0.3, 1.0, 1.7):
        for x in (0.01, 0.04):
            a = mf.evaluate_iterate_chart(chart, t, x)
            b = mf.evaluate_iterate_chart(scaled, t, x)
            assert abs(a - b) < 1e-9


# --- grid evaluation ---------------------------------------------------------------

def _ref_chart_value(chart, x, steps=NEWTON_STEPS, fine=1):
    """u(x) by the scalar rule, in Python complex arithmetic: the direct
    forward sum within ``forward_radius``, else a per-point pullback of the
    path from 0.8 of that radius to x through the shifted map, with at most
    ``steps`` Newton steps per waypoint and ``fine`` times the waypoints of
    the rule.  Returns (u(x) or None where it refuses, the kind of refusal:
    None, "finite", "newton", "fold" or "levels", the most steps one
    waypoint took, the levels taken)."""
    x = complex(x)
    d = x - chart.x_star
    if abs(d) <= chart.forward_radius:
        return chart.forward(x), None, 0, 0
    r = PATH_START_FRACTION * chart.forward_radius
    lam = chart.multiplier
    g = chart.frame.shifted_map.coeffs.tolist()
    dg = [k * c for k, c in enumerate(g)][1:]
    u = chart.forward.coeffs.tolist()
    h = chart.factorization.inverse_row.tolist()
    seed = d * (r / abs(d))
    w = _horner(u, seed)
    n = min(MAX_PATH_STEPS, max(1, math.ceil(abs(d - seed) / r))) * fine
    path = [seed + (d - seed) * (s / n) for s in range(n + 1)] if abs(lam) > 1 else [d]
    most = 0
    for level in range(1, MAX_TIME_SHIFT + 1):
        if abs(lam) < 1:
            path = [_horner(g, y) for y in path]
        else:
            pre = [_horner(h, w * lam**-level)]
            for target in path[1:]:
                e = prev = pre[-1]
                for k in range(1, steps + 1):
                    resid = _horner(g, e) - target
                    e -= resid / _horner(dg, e)
                    most = max(most, k)
                    if abs(resid) <= 1e-13 * max(1.0, abs(target)):
                        break
                else:
                    return None, "newton" if cmath.isfinite(e) else "finite", most, level
                if any(abs(prev - e) >= abs(prev - (2 * c - e)) for c in chart.critical_points):
                    return None, "fold", most, level
                pre.append(e)
            path = pre
        if not cmath.isfinite(path[-1]):
            return None, "finite", most, level
        if abs(path[-1]) <= r:
            return lam ** (level if abs(lam) > 1 else -level) * _horner(u, path[-1]), None, most, level
    return None, "levels", most, MAX_TIME_SHIFT


def _ref_chart(chart, t, x):
    """The per-point chart route, written with Python complex arithmetic.

    Returns f^t(x) and the scale of its rounding errors: max(1, |f^t(x)|),
    the sum of the moduli of the inverse series' terms carried through the
    time-shift steps, and the growth of a relative change of u(x)."""
    x = complex(x)
    if abs(x - chart.x_star) > chart.r_eval * (1.0 + 1e-12):
        raise mf.OutOfChart("outside r_eval")
    w = _ref_chart_value(chart, x)[0]
    if w is None:
        raise mf.OutOfChart("continuation refused")
    log_lam = cmath.log(chart.multiplier)
    steps = 0
    if abs(chart.multiplier) > 1.0 and abs(w) > 0 and not math.isinf(chart.inverse_radius):
        safe = chart.inverse_radius
        magnitude = abs(w) * math.exp(t * log_lam.real)
        if magnitude > safe > 0:
            steps = math.ceil(
                (math.log(magnitude) - math.log(safe)) / math.log(abs(chart.multiplier))
            )
            steps = min(max(0, steps), MAX_TIME_SHIFT)

    def shift(value):
        for _ in range(steps):
            value = chart.x_star + chart.frame.shifted_map(value - chart.x_star)
        return value

    z = cmath.exp((t - steps) * log_lam) * w
    value, tail = evaluate_with_tail(chart.inverse, z)
    if tail > EVAL_TAIL_TOL * max(1.0, abs(value)):
        raise mf.OutOfChart("tail")
    result = shift(value)
    # Rounding scale of the sum h(z), carried through the shift steps by
    # their derivative, and the growth of a relative change of u.
    h_scale = _horner([abs(c) for c in chart.inverse.coeffs], abs(z)).real
    eps = 1e-7 * max(1.0, abs(value))
    shift_slope = abs(shift(value + eps) - result) / eps
    u_growth = abs(shift(chart.inverse(z * (1 + 1e-7))) - result) / 1e-7
    return result, max(1.0, abs(result)) + h_scale * shift_slope + u_growth


def _ref_matrix(expansion, t, x):
    """The per-point mode sum, written with Python complex arithmetic.

    Returns the sum and its scale, max(1, the sum of the terms' moduli)."""
    x_star = expansion.frame.x_star
    if abs(complex(x) - x_star) > expansion.r_eval * (1.0 + 1e-12):
        raise mf.OutOfChart("outside r_eval")
    log_lam = cmath.log(expansion.frame.multiplier)
    total = last = 0j
    scale = 1.0
    z = complex(x) - x_star
    for k, mode in enumerate(_modes(expansion.factorization).tolist()):
        last = cmath.exp(k * t * log_lam) * _horner(mode, z)
        total += last
        scale += abs(last)
    if abs(last) > TAIL_TOL * max(abs(total), 1e-300):
        raise mf.NonConvergent("tail", last_term=abs(last))
    return total, scale


def _assert_grid_matches_reference(grid, reference, rtol=1e-14):
    """Equal statuses at every point, and values within rtol times the
    scale the reference gives."""
    compared = 0
    for i, t in enumerate(grid.ts):
        for j, x in enumerate(grid.xs):
            try:
                expected, scale = reference(t, x)
            except (mf.OutOfChart, mf.NonConvergent) as exc:
                assert grid.status[i, j] != mf.PointStatus.OK, (t, x)
                assert type(grid.error(i, j)) is type(exc)
                continue
            assert grid.status[i, j] == mf.PointStatus.OK, (t, x)
            assert abs(grid.value(i, j) - expected) <= rtol * scale, (t, x)
            compared += 1
    return compared


def test_chart_grid_matches_the_scalar_formulas(pipe4_origin, pipe4_second):
    rng = np.random.default_rng(7)
    ts = [-1.3, 0.0, 0.5, 2.2, 3.9, *rng.uniform(-2.0, 4.0, 5)]
    chart0 = pipe4_origin.chart
    xs0 = [0.0, -0.0, 0.3, 0.59, 0.7, *rng.uniform(-0.6, 0.6, 6)]
    assert _assert_grid_matches_reference(
        mf.evaluate_chart_grid(chart0, ts, xs0), lambda t, x: _ref_chart(chart0, t, x),
    )
    chart1 = pipe4_second.chart
    xs1 = [0.2, 0.3, 0.75, 0.9, 1.2, 1.4, *(0.75 + 0.45 * rng.uniform(-1, 1, 6))]
    assert _assert_grid_matches_reference(
        mf.evaluate_chart_grid(chart1, ts, xs1), lambda t, x: _ref_chart(chart1, t, x),
    )


def test_complex_chart_grid_matches_the_scalar_formulas():
    f = mf.PowerSeries.from_coefficients([0, 1.8 + 0.9j, 0.5 - 0.4j, 0.2 + 0.1j], order=24)
    chart = mf.pipeline(f, 0.0, r_eval=0.65).chart
    rng = np.random.default_rng(11)
    xs = list(0.2 * rng.uniform(-1, 1, 8) + 0.2j * rng.uniform(-1, 1, 8)) + [0.7]
    assert _assert_grid_matches_reference(
        mf.evaluate_chart_grid(chart, [-0.7, 0.5, 1.0, 2.0, 2.6], xs),
        lambda t, x: _ref_chart(chart, t, x),
    )


def test_matrix_grid_matches_the_scalar_formulas(pipe4_origin, pipe4_second):
    rng = np.random.default_rng(5)
    ts = [-0.5, 0.0, 0.5, 1.5, 4.0, 6.0, *rng.uniform(0.0, 3.0, 4)]
    for pipe, xs in ((pipe4_origin, rng.uniform(-0.6, 0.3, 8)),
                     (pipe4_second, rng.uniform(0.64, 0.86, 8))):
        fact, chart = pipe.factorization, pipe.chart
        for r_eval in (math.inf, chart.forward_radius):
            expansion = mf.build_expansion(fact, fact.frame, r_eval=r_eval)
            assert _assert_grid_matches_reference(
                mf.evaluate_matrix_grid(expansion, ts, list(xs)),
                lambda t, x: _ref_matrix(expansion, t, x),
            )


# Words of the pullback's refusal reason for each kind of scalar refusal.
_REFUSAL_WORDS = {"finite": "not finite", "newton": "did not converge", "fold": "fold",
                  "levels": "levels"}


@pytest.mark.parametrize("mu, guess, dim", [
    (4.0, 0.7, 40), (4.0, 0.7, 160), (4.0, 0.0, 40), (2.0, 0.0, 40), (3.7, 0.7, 40),
])
def test_chart_values_match_the_scalar_continuation(mu, guess, dim):
    # 600 seeded real and complex points out to r_eval: the batched
    # pullback refuses the same points as the scalar one, for the same
    # reason, and the values agree to rounding.
    chart = mf.pipeline(mf.logistic_series(mu, dim), guess).chart
    reach = 9 * iterate.default_chart_radius(chart.frame)  # 0.9 of the fixed-point gap
    rng = np.random.default_rng(dim)
    radius = reach * np.sqrt(rng.uniform(0, 1, 600))
    angle = np.concatenate([rng.choice([0, np.pi], 300), rng.uniform(0, 2 * np.pi, 300)])
    xs = chart.x_star + radius * np.exp(1j * angle)
    with np.errstate(all="ignore"):
        got, refused = iterate._chart_values(chart, xs)
    continued = 0
    for j, x in enumerate(xs):
        expected, kind, _, levels = _ref_chart_value(chart, x)
        assert (j in refused) == (expected is None), x
        continued += levels > 0
        if expected is not None:
            assert abs(got[j] - expected) <= 1e-14 * max(1.0, abs(expected)), x
        else:
            assert _REFUSAL_WORDS[kind] in refused[j], x
    assert continued > 50


def test_grid_status_gives_the_scalar_exception_and_payload(pipe4_origin, pipe4_second):
    fact, chart0 = pipe4_origin.factorization, pipe4_origin.chart
    chart1 = pipe4_second.chart
    expansion = mf.build_expansion(fact, fact.frame)
    bounded = pipe4_origin.chart
    cases = [
        # x = 1.4 is past r_eval; continuation cannot reach 1.2.
        (mf.evaluate_iterate_chart, mf.evaluate_chart_grid, chart1, 0.5, 1.4,
         mf.PointStatus.OUTSIDE_RADIUS, mf.OutOfChart),
        (mf.evaluate_iterate_chart, mf.evaluate_chart_grid, chart1, 0.5, 1.2,
         mf.PointStatus.OUT_OF_CHART, mf.OutOfChart),
        # Past the time-shift cap the inverse chart argument fails its tail test.
        (mf.evaluate_iterate_chart, mf.evaluate_chart_grid, chart0, 70.0, 0.3,
         mf.PointStatus.OUT_OF_CHART, mf.OutOfChart),
        (mf.evaluate_iterate_matrix, mf.evaluate_matrix_grid, expansion, 6.0, 0.25,
         mf.PointStatus.NON_CONVERGENT, mf.NonConvergent),
        # The mode route refuses x = 0.7 past r_eval = 0.6 like the chart route.
        (mf.evaluate_iterate_matrix, mf.evaluate_matrix_grid, bounded, 0.5, 0.7,
         mf.PointStatus.OUTSIDE_RADIUS, mf.OutOfChart),
        (mf.evaluate_iterate_chart, mf.evaluate_chart_grid, chart1, 0.5, 0.8,
         mf.PointStatus.OK, None),
    ]
    for scalar, grid_fn, obj, t, x, status, exc_type in cases:
        grid = grid_fn(obj, [t], [x])
        assert grid.status[0, 0] == status, (t, x)
        if exc_type is None:
            assert grid.error(0, 0) is None
            assert scalar(obj, t, x) == grid.values[0, 0]
            continue
        assert math.isnan(grid.values[0, 0].real)
        with pytest.raises(exc_type) as err:
            scalar(obj, t, x)
        payload = grid.error(0, 0)
        assert type(payload) is exc_type
        if exc_type is mf.NonConvergent:
            assert err.value.last_term == payload.last_term == grid.tail[0, 0] > 0
        else:
            assert str(err.value) == str(payload)


def test_overflowing_times_are_refused_with_the_route_status(pipe4_origin):
    fact, chart = pipe4_origin.factorization, pipe4_origin.chart
    expansion = mf.build_expansion(fact, fact.frame)
    contracting = mf.pipeline(mf.logistic_series(0.5, 40), 0.0, r_eval=0.3).chart
    for grid, status in (
        (mf.evaluate_chart_grid(chart, [1000.0, 1e6], [0.3, 0.0, 0.1j]),
         mf.PointStatus.OUT_OF_CHART),
        (mf.evaluate_chart_grid(contracting, [-2000.0], [0.1]), mf.PointStatus.OUT_OF_CHART),
        (mf.evaluate_matrix_grid(expansion, [20.0, 100.0], [0.3, 0.0]),
         mf.PointStatus.NON_CONVERGENT),
    ):
        assert (grid.status == status).all()
        assert np.isinf(grid.tail).all()
        assert np.isnan(grid.values).all()


# --- continuation ---------------------------------------------------------------

def _seeded_cubic_charts():
    rng = np.random.default_rng(2026)
    charts = []
    for lam in (2.2, 1.7 * cmath.exp(0.9j)):
        a2, a3 = complex(*rng.normal(0, 0.7, 2)), complex(*rng.normal(0, 0.5, 2))
        f = mf.PowerSeries.from_coefficients([0, lam, a2, a3], order=40)
        frame = mf.find_fixed_point(f, 0.0)
        reach = 9 * iterate.default_chart_radius(frame)  # 0.9 of the fixed-point gap
        charts.append((mf.pipeline(f, 0.0, r_eval=reach).chart, reach))
    return charts


def test_capped_continuation_matches_the_uncapped_newton():
    # Seeded real and complex points out to r_eval, at 3/4 and on two
    # cubics: the 16-step cap changes no verdict.  Every waypoint of a point
    # that the uncapped pullback (60 Newton steps per waypoint) reaches
    # converges within 16 steps, and the points it refuses, it refuses at
    # either cap.
    rng = np.random.default_rng(10)
    cases = []
    for dim in (40, 80, 160):
        chart = mf.pipeline(mf.logistic_series(4.0, dim), 0.7, r_eval=0.6).chart
        cases.append((chart, 0.6))
    cases += _seeded_cubic_charts()
    counts = {"same value": 0, "same continued value": 0, "both refuse": 0}
    for chart, reach in cases:
        radius = reach * np.sqrt(rng.uniform(0, 1, 24))
        angle = np.concatenate([rng.choice([0, np.pi], 12), rng.uniform(0, 2 * np.pi, 12)])
        extra = [1.011, 1.1] if chart.x_star.real > 0.5 else []
        xs = np.array([*(chart.x_star + radius * np.exp(1j * angle)), *extra])
        with np.errstate(all="ignore"):
            got, refused = iterate._chart_values(chart, xs)
        for j, x in enumerate(xs):
            expected, _, most, levels = _ref_chart_value(chart, x, steps=60)
            if expected is None:
                assert j in refused, x
                counts["both refuse"] += 1
            else:
                assert most <= NEWTON_STEPS and j not in refused, x
                assert abs(got[j] - expected) <= 1e-14 * max(1.0, abs(expected)), x
                counts["same continued value" if levels else "same value"] += 1
    assert min(counts.values()) > 0, counts


def test_points_reached_only_after_many_newton_passes_are_refused():
    # mu = 3.7 at its second fixed point: Newton's method on the inverse
    # series once printed f^0.5(0.0861) = 1083.6+32.1i as converged after
    # more than 16 passes at a waypoint.  Each of these real points lies
    # past a fold of the map on the real axis: its preimage there is not
    # real, and Newton's method on the map, which stays real from a real
    # start, converges at no cap.
    f = mf.logistic_series(3.7, 160)
    chart = mf.pipeline(f, 0.7, r_eval=0.66).chart
    xs = [0.08610810810810798, 1.0646756756756757, 0.9595945945945946]
    for x in xs:
        for steps in (NEWTON_STEPS, 60, 200):
            assert _ref_chart_value(chart, x, steps)[:3] == (None, "newton", steps)
    grid = mf.evaluate_chart_grid(chart, [0.5, 1.0, 1.5], xs)
    assert (grid.status == mf.PointStatus.OUT_OF_CHART).all()


def test_continuation_refuses_within_newton_steps_per_waypoint(pipe4_second):
    # x = 1.2 at 3/4 is past the critical value 1 of the map: no real point
    # maps to it, and Newton's method runs out of its 16 steps at the first
    # waypoint past 1, as it does with 60.  The points of a batch do not
    # change each other's verdicts.
    chart = pipe4_second.chart
    assert _ref_chart_value(chart, 1.2)[:3] == (None, "newton", NEWTON_STEPS)
    assert _ref_chart_value(chart, 1.2, steps=60)[:3] == (None, "newton", 60)
    grid = mf.evaluate_chart_grid(chart, [0.5], [0.3, 1.2, 0.7])
    assert grid.status.tolist() == [[mf.PointStatus.OK, mf.PointStatus.OUT_OF_CHART,
                                     mf.PointStatus.OK]]
    assert grid.column_errors[1] == (
        "a Newton solve of the pullback did not converge within 16 steps")
    assert grid.values[0, 0] == mf.evaluate_iterate_chart(chart, 0.5, 0.3)
    with pytest.raises(mf.OutOfChart, match="did not converge"):
        chart_value(chart, 1.2)


def test_pullback_refuses_a_jump_across_a_fold():
    # On this cubic the coarse path to x passes close to a critical value:
    # between two waypoints the preimage turns more than 90 degrees about a
    # critical point, onto another branch of the inverse map.  Without the
    # fold test (no critical points) the pullback returns a value 0.32 from
    # the one a 40x finer path reaches.
    f = mf.PowerSeries.from_coefficients([0, 1.2 - 0.55j, -0.5 - 1j, -0.15 - 0.3j], order=40)
    chart = mf.pipeline(f, 0.0, r_eval=0.5).chart
    x = -0.1975721105901788 - 0.38435567637239415j
    with np.errstate(all="ignore"):
        _, refused = iterate._chart_values(chart, np.array([x]))
    assert refused == {0: "the pullback jumped across a fold of the map"}
    assert _ref_chart_value(chart, x)[:2] == (None, "fold")
    right = _ref_chart_value(chart, x, fine=40)[0]
    blind = SchroederChart(chart.factorization, chart.r_eval)
    vars(blind)["critical_points"] = np.empty(0)
    with np.errstate(all="ignore"):
        jumped, refused = iterate._chart_values(blind, np.array([x]))
    assert refused == {} and abs(jumped[0] - right) > 0.3


def test_critical_points_are_the_roots_of_the_shifted_maps_derivative(pipe4_second):
    # g(e) = -2e - 4e^2 about 3/4 folds at e = -1/4, the critical point 1/2.
    assert pipe4_second.chart.critical_points.tolist() == [-0.25]
    f = mf.PowerSeries.from_coefficients([0, 1.2 - 0.55j, -0.5 - 1j, -0.15 - 0.3j], order=12)
    chart = mf.pipeline(f, 0.0).chart
    g = chart.frame.shifted_map.derivative()
    assert len(chart.critical_points) == 2
    assert all(abs(g(c)) < 1e-14 for c in chart.critical_points)


def test_pullback_refuses_a_point_left_outside_after_max_time_shift_levels():
    # x -> 0.99 x + x^2 contracts towards 0 so slowly that 64 steps of the
    # map leave -0.1 outside the series radius (0.0052); 0.05 is outside the
    # basin of 0, and its orbit overflows.  Both refusals agree with the
    # scalar rule.
    f = mf.PowerSeries.from_coefficients([0, 0.99, 1.0], order=40)
    chart = mf.pipeline(f, 0.0, r_eval=1.0).chart
    with np.errstate(all="ignore"):
        _, refused = iterate._chart_values(chart, np.array([-0.1, 0.05]))
    assert refused == {
        0: f"the pullback did not bring x within the series radius in {MAX_TIME_SHIFT} levels",
        1: "the pullback reached a value that is not finite",
    }
    assert _ref_chart_value(chart, -0.1)[:2] == (None, "levels")
    assert _ref_chart_value(chart, 0.05)[:2] == (None, "finite")


def test_a_contracting_chart_is_continued_along_the_forward_orbit():
    # For |lambda| < 1, u(x) = lambda^-m u(g^m(x)) once the orbit is inside:
    # u(f(x)) = lambda u(x) holds past the series radius.
    f = mf.PowerSeries.from_coefficients([0, 0.9, 1.0], order=40)
    chart = mf.pipeline(f, 0.0, r_eval=1.0).chart
    for x in (-0.5, -0.3 + 0.2j, 0.05):
        assert abs(x) > chart.forward_radius
        u = chart_value(chart, x)
        assert abs(chart_value(chart, f(x)) - 0.9 * u) < 1e-12 * abs(u)
        assert abs(u - _ref_chart_value(chart, x)[0]) < 1e-14 * abs(u)


def test_a_chart_with_a_unimodular_multiplier_is_not_continued():
    # With |lambda| = 1 the map carries no point nearer x*.
    f = mf.PowerSeries.from_coefficients([0, cmath.exp(2j * math.pi * (math.sqrt(5) - 1) / 2), 1.0], order=40)
    chart = mf.pipeline(f, 0.0, r_eval=1.0).chart
    assert abs(abs(chart.multiplier) - 1) < 1e-15
    assert abs(chart_value(chart, 0.05) - chart.forward(0.05)) == 0
    with pytest.raises(mf.OutOfChart, match=r"\|lambda\| = 1"):
        chart_value(chart, 0.3)


@pytest.mark.parametrize("mu, guess, dim", [
    (4.0, 0.7, 40), (4.0, 0.7, 80), (4.0, 0.7, 160), (4.0, 0.0, 40), (2.0, 0.0, 40),
    (3.7, 0.7, 160), (2.5 + 0.5j, 0.0, 80),
])
def test_trusted_radius_admits_no_argument_the_tail_test_refuses(mu, guess, dim):
    chart = mf.pipeline(mf.logistic_series(mu, dim), guess).chart
    rho = chart.inverse_radius
    assert 0 < rho < math.inf
    rng = np.random.default_rng(dim)
    ws = rho * np.exp(1j * np.linspace(0, 2 * np.pi, 256, endpoint=False))
    ws = [*ws, *(rho * rng.uniform(0.9, 1.0, 64) * np.exp(2j * np.pi * rng.uniform(0, 1, 64)))]
    for w in [complex(w) for w in ws] + [complex(rho), complex(-rho)]:
        if abs(w) <= rho:  # the test that h skips within its radius
            assert evaluate_with_tail(chart.inverse, w)[1] <= EVAL_TAIL_TOL, w


@pytest.mark.parametrize("mu, x_star, radius", [(4.0, 0.0, 5.477), (4.0, 0.75, 2.114),
                                                (2.0, 0.0, 2.34)])
def test_inverse_radius_is_finite_and_the_same_at_every_order(mu, x_star, radius):
    # From dim 40 on the cap of a low-order term sets the radius, while the
    # tail radius grows with the order.  For mu=4 at 0, h(w) = sin^2 sqrt(w)
    # and the cap is sqrt(30) from h_2 = -1/3; at dim 160 the trailing
    # coefficients underflow to 0 and the tail radius reads a polynomial.
    radii = []
    for dim in (40, 80, 160):
        chart = mf.pipeline(mf.logistic_series(mu, dim), x_star).chart
        radii.append(chart.inverse_radius)
        assert radii[-1] < tail_radius(chart.inverse.coeffs)
    assert radii[0] == radii[1] == radii[2]
    assert abs(radii[0] - radius) < 5e-3
    assert math.isinf(tail_radius(chart.inverse.coeffs)) == ((mu, x_star) == (4.0, 0.0))


def test_continuation_refuses_an_iterate_too_large_for_a_float(pipe4_second):
    # The first point's seed preimage h(w / lambda) overflows; the second,
    # the same path from the true u of its seed, converges to u(0.3).
    chart = pipe4_second.chart
    d = np.full(2, 0.3 - chart.x_star)
    seed = d * (PATH_START_FRACTION * chart.forward_radius / abs(d))
    w = np.array([complex(1.5e308, 1.5e308), chart.forward(chart.x_star + seed[1])])
    with np.errstate(all="ignore"):
        u, reasons = iterate._pull_back(chart, d, seed, w)
    assert reasons == {0: "the pullback reached a value that is not finite"}
    assert abs(u[1] - logistic4_chart_second(0.3)) < 1e-12


# --- accuracy against the closed forms -------------------------------------------

# (mu, fixed point, r_eval, closed-form iterate) of the swept charts.
_SWEPT = [
    (4.0, 0.0, 0.95, logistic4_iterate),
    (4.0, 0.75, 0.6, logistic4_iterate_second),
    (2.0, 0.0, 0.45, logistic2_iterate),
]


@pytest.mark.parametrize("mu, x_star, r_eval, closed_form", _SWEPT)
def test_converged_values_are_right_and_do_not_worsen_with_order(mu, x_star, r_eval, closed_form):
    # 400 seeded real x out to r_eval: the chart route as the CLI runs it,
    # and the mode route summed only within the series radius of u.
    # Summing the forward series past its 1e-12 radius once gave converged
    # errors up to 1.3e-5 on the chart route, larger at higher orders; the
    # mode route, summed out to r_eval as the CLI sums it, reaches 7e56.
    # Errors still rise with the order, by up to 3.1e-12 relative (3/4,
    # dim 160, t = 1.9): the direct sum near the edge of its radius and the
    # continuation's Newton tolerance, carried up by lambda^t.
    rng = np.random.default_rng(400)
    xs = list(x_star + r_eval * rng.uniform(-1, 1, 400))
    ts = [0.25, 0.5, 1.0, 1.5, 1.9, -0.5]
    ref = np.array([[complex(closed_form(t, x)) for x in xs] for t in ts])
    scale = np.maximum(1.0, np.abs(ref))
    errors = {}
    for dim in (40, 80, 160):
        p = mf.pipeline(mf.logistic_series(mu, dim), x_star, r_eval=r_eval)
        fact, chart = p.factorization, p.chart
        bound = min(chart.r_eval, chart.forward_radius)
        expansion = mf.build_expansion(fact, fact.frame, r_eval=bound)
        for route, grid in (("chart", mf.evaluate_chart_grid(chart, ts, xs)),
                            ("matrix", mf.evaluate_matrix_grid(expansion, ts, xs))):
            ok = grid.status == mf.PointStatus.OK
            err = np.where(ok, np.abs(grid.values - ref), np.nan)
            assert (err[ok] <= 1e-10 * scale[ok]).all(), (route, dim, np.nanmax(err / scale))
            errors.setdefault(route, []).append(err)
        assert ok.sum() > 0
    for route, (e40, e80, e160) in errors.items():
        for lo, hi in ((e40, e80), (e80, e160), (e40, e160)):
            # No point converged at the lower order is refused at the higher.
            assert not (~np.isnan(lo) & np.isnan(hi)).any(), route
            both = ~np.isnan(lo)
            assert (hi[both] <= lo[both] + 1e-11 * scale[both]).all(), route


@pytest.mark.parametrize("mu, x_star, r_eval, closed_form", _SWEPT)
def test_large_t_chart_values_are_right_and_do_not_worsen_with_order(mu, x_star, r_eval,
                                                                     closed_form):
    # The same 400 x at t from 2.5 to 6.5, on the chart route.  The error is
    # scaled by the problem's own conditioning, max(1, |f^t|) + |x| |f^t'|,
    # the derivative a central difference of the closed form.  When the time
    # shift aimed at the 1e-12 tail radius of h alone, which grows with the
    # order (and is inf for mu=4 at 0 at dim 160), up to 599 of these 2000
    # points were off by more than 1e-9, the worst by 1.2e99.
    rng = np.random.default_rng(400)
    xs = x_star + r_eval * rng.uniform(-1, 1, 400)
    ts = [2.5, 3.5, 4.5, 5.5, 6.5]
    ref = np.array([[complex(closed_form(t, x)) for x in xs] for t in ts])
    eps = 1e-6
    slope = np.array([[(complex(closed_form(t, x + eps)) - complex(closed_form(t, x - eps)))
                       / (2 * eps) for x in xs] for t in ts])
    scale = np.maximum(1.0, np.abs(ref)) + np.abs(xs) * np.abs(slope)
    errors = []
    for dim in (20, 40, 80, 160):
        chart = mf.pipeline(mf.logistic_series(mu, dim), x_star, r_eval=r_eval).chart
        # nan where a point is refused
        errors.append(np.abs(mf.evaluate_chart_grid(chart, ts, list(xs)).values - ref) / scale)
        converged = ~np.isnan(errors[-1])
        assert (errors[-1][converged] <= 1e-9).all(), (dim, np.nanmax(errors[-1]))
        # Every point at 0 and mu=2 converges; at 3/4, 297 x of 400 do.
        assert converged.sum() == (1485 if x_star == 0.75 else 2000), dim
    for lo, hi in zip(errors, errors[1:]):
        both = ~np.isnan(lo)
        assert not np.isnan(hi[both]).any()
        assert (hi[both] <= lo[both] + 1e-11).all(), np.max(hi[both] - lo[both])


@pytest.mark.parametrize("mu, x_star, r_eval, closed_form", _SWEPT)
def test_complex_chart_values_are_right_and_do_not_worsen_with_order(mu, x_star, r_eval,
                                                                     closed_form):
    # 400 seeded complex x in the r_eval disc at non-integer t, where a
    # value from another branch of u shows (at an integer t every branch
    # gives the same f^t).  Every point converges at every order, so none
    # that converges at a lower order is refused at a higher one.
    rng = np.random.default_rng(7)
    xs = x_star + r_eval * np.sqrt(rng.uniform(0, 1, 400)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, 400))
    ts = [0.5, 1.5]
    ref = np.array([[complex(closed_form(t, x)) for x in xs] for t in ts])
    scale = np.maximum(1.0, np.abs(ref))
    for dim in (20, 40, 80, 160):
        chart = mf.pipeline(mf.logistic_series(mu, dim), x_star, r_eval=r_eval).chart
        err = np.abs(mf.evaluate_chart_grid(chart, ts, list(xs)).values - ref)
        assert not np.isnan(err).any(), dim
        assert (err <= 1e-10 * scale).all(), (dim, np.max(err / scale))

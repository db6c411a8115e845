import dataclasses
import math
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

import mapflow as mf
from mapflow.flow import FIELD_DROP_TOL, LYAPUNOV_CHUNK
from mapflow.logistic import logistic2_field, logistic4_field, logistic4_iterate
from mapflow.series import _horner
from mapflow.spectral import fractional_power, matrix_log

from conftest import leading_window

LN2 = math.log(2.0)
DIM = 40


# --- build_field -----------------------------------------------------------------

def test_field_coefficients_mu4(field4):
    c = field4.series.coeffs
    assert abs(c[0]) < 1e-12
    assert abs(c[1] - 2 * LN2) < 1e-12
    assert abs(c[2] + LN2 * 2 / 3) < 1e-12
    assert abs(c[3] + LN2 * 2 * 2 / 15) < 1e-12


def test_field_coefficients_mu2(field2):
    # ln2 * (1-2x) * (-ln(1-2x)/2) = ln2 * (x - x^2 - 2x^3/3 - ...)
    c = field2.series.coeffs
    assert abs(c[1] - LN2) < 1e-12
    assert abs(c[2] + LN2) < 1e-12
    assert abs(c[3] + LN2 * 2 / 3) < 1e-12


def test_field_of_linear_map_is_exact():
    f = mf.PowerSeries.from_coefficients([0, 3.0], order=8)
    field = mf.pipeline(f, 0.0).field
    assert abs(field.series.coeffs[1] - math.log(3.0)) < 1e-14
    assert all(abs(c) < 1e-14 for k, c in enumerate(field.series.coeffs) if k != 1)


def test_field_vanishes_at_fixed_point(field4, field2):
    for field in (field4, field2):
        assert abs(mf.evaluate_field(field, field.x_star)) < 1e-12


def test_field_second_fixed_point_is_complex(logistic4):
    field = mf.pipeline(logistic4, 0.7, r_eval=0.3).field
    assert abs(field.series.coeffs[1] - complex(LN2, math.pi)) < 1e-12


def test_branch_mismatch_detected(logistic4, pipe2_origin):
    fact = mf.pipeline(logistic4, 0.1, r_eval=0.6).factorization
    log = matrix_log(fact)
    wrong_chart = pipe2_origin.chart
    with pytest.raises(mf.BranchMismatch):
        mf.build_field(log, wrong_chart)


def test_build_field_refuses_a_log_row_about_another_point(pipe4_origin, pipe4_second):
    # The log row of mu=4 at 0, with the chart at 3/4.
    with pytest.raises(ValueError) as err:
        mf.build_field(mf.log_row(pipe4_origin.factorization), pipe4_second.chart)
    assert str(err.value) == "log expanded about 0j but chart sits at (0.75+0j)"


# --- evaluate_field ----------------------------------------------------------------

def test_field_values_match_closed_form(field4, field2):
    for field, closed in ((field4, logistic4_field), (field2, logistic2_field)):
        for x in (0.01, 0.05, 0.1, 0.25):
            assert abs(mf.evaluate_field(field, x) - closed(x)) < 1e-6


def test_field_at_half_is_pi_ln2_over_4(logistic4):
    field = mf.pipeline(logistic4, 0.1, r_eval=1.0).field
    v = mf.evaluate_field(field, 0.5)
    assert abs(v - math.pi * LN2 / 4) < 1e-6


def test_field_positive_inside_unit_interval(logistic4):
    field = mf.pipeline(logistic4, 0.1, r_eval=1.0).field
    for x in np.linspace(0.05, 0.95, 19):
        v = mf.evaluate_field(field, x)
        assert v.real > 0
        assert abs(v.imag) < 1e-9


def test_field_out_of_radius_raises(field4):
    for x in (0.9, math.nan, complex(0.0, math.inf)):
        with pytest.raises(mf.OutOfChart):
            mf.evaluate_field(field4, x)


def test_pipeline_objects_share_one_frame(logistic4):
    # A fresh pipeline: the shared fixture may already hold its field.
    p = mf.pipeline(logistic4, 0.1, r_eval=0.6)
    assert "field" not in vars(p)
    frame = p.factorization.frame
    # The chart reads its frame through the pipeline's factorization.
    assert p.chart.frame is p.chart.factorization.frame is frame
    assert p.chart.factorization is p.factorization
    # The field is built once, on first use; a second access gives the same object.
    assert p.field is p.field
    assert p.field.chart is p.chart
    assert p.chart.r_eval == 0.6
    assert (p.chart.x_star, p.chart.multiplier) == (frame.x_star, frame.multiplier)
    # The pipeline holds only its chart: no other factorization can be paired with it.
    assert [f.name for f in dataclasses.fields(p)] == ["chart"]
    with pytest.raises(TypeError):
        mf.Pipeline(p.factorization, p.chart)


def test_pipeline_takes_the_order_from_the_map_and_the_radius_by_keyword(logistic4):
    assert mf.pipeline(logistic4, 0.1).factorization.dim == logistic4.order
    # A third positional argument once was the order; it is not the radius.
    with pytest.raises(TypeError):
        mf.pipeline(logistic4, 0.1, 40)


def test_pipeline_grid_evaluates_one_chart_and_forms_its_series_only_where_used(logistic4):
    p = mf.pipeline(logistic4, 0.1, r_eval=0.6)
    ts, xs = [0.5, -0.5, 2.0], [0.05, 0.3, 0.7]
    # The mode route reads the factorization's rows and forms no chart series.
    matrix = p.grid("matrix", ts, xs)
    assert set(vars(p.chart)) == {"factorization", "r_eval"}
    want = mf.evaluate_matrix_grid(p.chart, ts, xs)
    np.testing.assert_array_equal(matrix.values, want.values)
    np.testing.assert_array_equal(matrix.status, want.status)
    # The field needs the forward series alone.
    assert p.field.chart is p.chart
    assert "forward" in vars(p.chart) and "inverse" not in vars(p.chart)
    chart = p.grid("chart", ts, xs)
    want = mf.evaluate_chart_grid(p.chart, ts, xs)
    np.testing.assert_array_equal(chart.values, want.values)
    np.testing.assert_array_equal(chart.status, want.status)
    # The mode route's own builder gives the unbounded chart.
    unbounded = mf.build_expansion(p.factorization, p.factorization.frame)
    assert type(unbounded) is mf.SchroederChart
    assert unbounded.factorization is p.factorization and unbounded.r_eval == math.inf


def test_every_evaluator_applies_one_chart_radius(pipe4_origin, field4):
    # x* is exactly 0 and r_eval 0.6 on both; the rule allows a relative 1e-12.
    chart = pipe4_origin.chart
    inside, outside = 0.6 * (1 + 5e-13), 0.6 * (1 + 2e-12)
    grids = (mf.evaluate_chart_grid(chart, (0.5,), (inside, outside)),
             mf.evaluate_matrix_grid(chart, (0.5,), (inside, outside)))
    for grid in grids:
        assert grid.status.tolist() == [[mf.PointStatus.OK, mf.PointStatus.OUTSIDE_RADIUS]]
    # Both routes refuse the outside point with the same message.
    chart_error, mode_error = (grid.error(0, 1) for grid in grids)
    assert type(chart_error) is type(mode_error) is mf.OutOfChart
    assert str(chart_error) == str(mode_error) == "|x - x*| = 0.6 exceeds the chart radius 0.6"
    mf.evaluate_field(field4, inside)
    with pytest.raises(mf.OutOfChart):
        mf.evaluate_field(field4, outside)
    # One step back towards x*: only the start is tested against the radius.
    mf.integrate_flow(field4, inside, -1e-3)
    with pytest.raises(mf.ChartEscape) as err:
        mf.integrate_flow(field4, outside, -1e-3)
    assert err.value.t_reached == 0.0


# (mu, fixed point, r_eval) of the charts whose fields the evaluator is tested on
CHARTS = [(4.0, 0.0, 0.6), (4.0, 0.75, 0.3), (2.0, 0.0, 0.45)]


@pytest.fixture(scope="module")
def fields():
    return [
        mf.pipeline(mf.logistic_series(mu, dim), x_star, r_eval=r).field
        for mu, x_star, r in CHARTS
        for dim in (40, 160)
    ]


def test_truncated_sum_is_within_horner_rounding_of_the_full_sum(fields):
    # Horner's own error on the full sum is about 2n * 2**-53 * sum |c_m||z|^m.
    rng = np.random.default_rng(9)
    for field in fields:
        mags = [abs(c) for c in field.series.coeffs]
        r = field.chart.r_eval
        zs = r * np.sqrt(rng.uniform(0, 1, 400)) * np.exp(2j * np.pi * rng.uniform(0, 1, 400))
        for z in zs:
            x = field.x_star + complex(z)
            scale = math.fsum(c * abs(z) ** m for m, c in enumerate(mags))
            assert abs(field.value(x) - field.series(x)) <= 8 * 2.0**-53 * scale, (field, z)


def test_radius_table_bounds_the_dropped_terms(fields):
    for field in fields:
        mags = [Fraction(abs(c)) for c in field.series.coeffs]
        radii, prefixes = field.radius_table
        assert radii == sorted(radii) and radii[-1] == math.inf
        assert prefixes[-1] == field.series.coeffs.tolist()
        for rho, prefix in zip(radii, prefixes):
            if rho == math.inf:
                assert not any(mags[len(prefix):])
                continue
            rho = Fraction(rho)
            tail = Fraction(0)
            for c in reversed(mags[len(prefix):]):
                tail = tail * rho + c
            tail *= rho ** len(prefix)
            assert tail <= Fraction(FIELD_DROP_TOL) * mags[1] * rho, (field, len(prefix))


def test_field_matches_finite_difference_of_iterates(field4, pipe4_origin):
    chart = pipe4_origin.chart
    h = 1e-4
    for x in (0.02, 0.05):
        fd = (
            mf.evaluate_iterate_chart(chart, h, x)
            - mf.evaluate_iterate_chart(chart, -h, x)
        ) / (2 * h)
        assert abs(mf.evaluate_field(field4, x) - fd) < 1e-5


# --- integrate_flow ----------------------------------------------------------------

def test_constant_trajectory_at_fixed_point(field4):
    traj = mf.integrate_flow(field4, 0.0, 1.0, dt=1e-2)
    assert all(abs(x) < 1e-14 for _, x in traj)


def test_unit_time_reproduces_map(field4):
    end = mf.integrate_flow(field4, 0.01, 1.0, dt=1e-3)[-1][1]
    assert abs(end - 0.0396) < 1e-6


def test_mu2_two_time_units(field2):
    end = mf.integrate_flow(field2, 0.05, 2.0, dt=1e-3)[-1][1]
    assert abs(end - 0.5 * (1 - 0.9**4)) < 1e-6


def test_flow_property_of_endpoints(field4):
    s, t = 0.4, 0.6
    one = mf.integrate_flow(field4, 0.01, s + t, dt=1e-3)[-1][1]
    mid = mf.integrate_flow(field4, 0.01, t, dt=1e-3)[-1][1]
    two = mf.integrate_flow(field4, mid, s, dt=1e-3)[-1][1]
    assert abs(one - two) < 1e-6


def test_complex_trajectory_from_second_fixed_point(logistic4):
    field = mf.pipeline(logistic4, 0.7, r_eval=0.3).field
    traj = mf.integrate_flow(field, 0.7, 1.0, dt=1e-3)
    assert any(abs(x.imag) > 1e-3 for _, x in traj)
    assert abs(traj[-1][1] - 0.84) < 1e-5


def test_backward_integration_inverts_forward(field4):
    forward = mf.integrate_flow(field4, 0.01, 1.0, dt=1e-3)[-1][1]
    back = mf.integrate_flow(field4, forward, -1.0, dt=1e-3)[-1][1]
    assert abs(back - 0.01) < 1e-6


def test_integration_to_time_zero_is_the_start_alone(field4):
    # No RK4 step: a step of size 0 used to write the start twice.
    assert mf.integrate_flow(field4, 0.01, 0.0) == [(0.0, 0.01 + 0j)]
    # Any other t_end takes a step, however small.
    assert [t for t, _ in mf.integrate_flow(field4, 0.01, 1e-300)] == [0.0, 1e-300]
    with pytest.raises(mf.ChartEscape) as err:
        mf.integrate_flow(field4, 0.7, 0.0)
    assert err.value.t_reached == 0.0
    assert err.value.trajectory == [(0.0, 0.7 + 0j)]


def _rk4_full_horner(field, x0, t_end, dt, g=None):
    """Reference RK4: the integrate_flow loop in complex arithmetic, with the
    full series sum or the evaluator ``g``."""
    steps = max(1, round(abs(t_end) / dt))
    h = t_end / steps
    g = field.series if g is None else g
    x = complex(x0)
    trajectory = [(0.0, x)]
    for i in range(steps):
        k1 = g(x)
        k2 = g(x + 0.5 * h * k1)
        k3 = g(x + 0.5 * h * k2)
        k4 = g(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trajectory.append(((i + 1) * h, x))
    return trajectory


def _rows(trajectory):
    return [f"{t:.17g},{x.real:.17g},{x.imag:.17g}" for t, x in trajectory]


@pytest.mark.parametrize("mu, x_star, r_eval, ranges, t_end", [
    (4.0, 0.0, 0.6, [(0.005, 0.04)], 1.5),
    (4.0, 0.75, 0.2, [(-0.05, -0.02), (0.02, 0.05)], 1.0),
    (2.0, 0.0, 0.45, [(0.005, 0.04)], 1.5),
], ids=["l4_0", "l4_34", "l2_0"])
def test_trajectory_is_byte_identical_to_the_full_sum(mu, x_star, r_eval, ranges, t_end):
    # The benchmark's flow charts and x0 ranges.  Bit-identity is not
    # guaranteed: on l4_0 about one start in four gets a row that is an ulp
    # off, and the flow then carries that difference (up to 3 ulps by t = 1.5).
    # The next test bounds the difference where many terms are dropped.
    field = mf.pipeline(mf.logistic_series(mu, DIM), x_star, r_eval=r_eval).field
    rng = np.random.default_rng(3)
    for lo, hi in ranges:
        for offset in rng.uniform(lo, hi, 2):
            x0 = x_star + float(offset)
            assert _rows(mf.integrate_flow(field, x0, t_end, 1e-3)) == _rows(
                _rk4_full_horner(field, x0, t_end, 1e-3)
            ), x0


def test_trajectory_far_from_the_fixed_point_is_within_an_ulp_of_the_full_sum(logistic4):
    field = mf.pipeline(logistic4, 0.0, r_eval=0.95).field
    traj = mf.integrate_flow(field, 0.3, 0.4, 1e-3)
    ref = _rk4_full_horner(field, 0.3, 0.4, 1e-3)
    assert len(traj) == len(ref) == 401
    for (t, x), (t_ref, x_ref) in zip(traj, ref):
        assert t == t_ref
        assert abs(x - x_ref) <= 1e-14 * max(1.0, abs(x_ref))


def _complex_value(field):
    """G by the radius table's rule, summed in complex arithmetic from the
    complex coefficients throughout."""
    radii, prefixes = field.radius_table
    coeffs = field.series.coeffs.tolist()

    def g(x):
        z = complex(x) - field.x_star
        return _horner(coeffs[: len(prefixes[bisect_left(radii, abs(z))])], z)

    return g


# (logistic mu or map coefficients, r_eval, x0, t_end, whether the field is
# real); every chart sits at the fixed point 0.
FLOAT_PATH_CASES = {
    "l4_0-backward": (4.0, 0.6, 0.03, -1.0, True),
    "l2_0-backward": (2.0, 0.45, 0.03, -1.5, True),
    "l4_0-complex-x0": (4.0, 0.6, 0.03 + 0.01j, 1.0, True),
    "l4_0-x0-minus-0j": (4.0, 0.6, complex(0.03, -0.0), 1.0, True),
    "l4_0-x0-minus-0": (4.0, 0.6, -0.0, -1.0, True),
    "real-cubic": ([0, 1.5, 0.3, -0.2], 0.3, 0.05, 1.0, True),
    "real-cubic-backward": ([0, 1.5, 0.3, -0.2], 0.3, 0.05, -1.0, True),
    "negative-multiplier-cubic": ([0, -1.5, 0.3, -0.2], 0.3, 0.05, 1.0, False),
    "complex-cubic": ([0, 1.2 + 0.5j, 0.3, -0.2j], 0.3, 0.05, 1.0, False),
}


@pytest.mark.parametrize("f, r_eval, x0, t_end, real", FLOAT_PATH_CASES.values(),
                         ids=FLOAT_PATH_CASES.keys())
def test_float_path_rows_are_those_of_complex_arithmetic(f, r_eval, x0, t_end, real):
    # A real field sums a start with imaginary part +0.0 in floats; the rows
    # must be the bytes that complex arithmetic gives, and the states complex.
    if isinstance(f, list):
        dim, series = 30, mf.PowerSeries.from_coefficients(f, order=30)
    else:
        dim, series = DIM, mf.logistic_series(f, DIM)
    field = mf.pipeline(series, 0.0, r_eval=r_eval).field
    assert field.real is real
    traj = mf.integrate_flow(field, x0, t_end, 1e-3)
    assert all(type(x) is complex for _, x in traj)
    assert _rows(traj) == _rows(_rk4_full_horner(field, x0, t_end, 1e-3, _complex_value(field)))
    for (t, x), (t_ref, x_ref) in zip(traj, _rk4_full_horner(field, x0, t_end, 1e-3)):
        assert t == t_ref
        assert abs(x - x_ref) <= 1e-14 * max(1.0, abs(x_ref))


def test_real_field_value_is_a_float_at_a_float_and_complex_at_a_complex(field4):
    assert type(field4.value(0.03)) is float
    assert type(field4.value(0.03 + 0j)) is complex
    assert field4.value(0.03) == field4.value(0.03 + 0j) == _complex_value(field4)(0.03)
    assert type(mf.evaluate_field(field4, 0.03)) is complex
    # evaluate_field sums an imaginary part of +0.0 in floats, any other in
    # complex arithmetic; either way it gives the complex sum's bits.
    for x in (0.03, -0.2, complex(0.03, -0.0), complex(-0.2, -0.0), 0.03 + 0.01j, -0.2 - 0.1j):
        assert repr(mf.evaluate_field(field4, x)) == repr(_complex_value(field4)(x)), x


@pytest.mark.parametrize("r_eval, x0", [(1e9, 3.0), (math.inf, -1.25)])
def test_a_float_run_that_overflows_escapes_as_complex_arithmetic_does(logistic4, r_eval, x0):
    # Past the series radius the sum overflows.  The float run is not redone:
    # its states before the escape have the bits of complex arithmetic, the
    # escaped state is not finite, and the escape time is that of the complex
    # run (a -0.0 imaginary part makes the start complex).
    field = mf.pipeline(logistic4, 0.0, r_eval=r_eval).field
    assert field.real
    with pytest.raises(mf.ChartEscape) as err:
        mf.integrate_flow(field, x0, 1.0, dt=0.1)
    traj = err.value.trajectory
    assert len(traj) >= 2
    ref = _rk4_full_horner(field, x0, 1.0, 0.1, _complex_value(field))
    assert _rows(traj[:-1]) == _rows(ref[: len(traj) - 1])
    assert all(math.isfinite(abs(x)) for _, x in traj[:-1])
    assert not math.isfinite(abs(traj[-1][1]))
    with pytest.raises(mf.ChartEscape) as complex_err:
        mf.integrate_flow(field, complex(x0, -0.0), 1.0, dt=0.1)
    assert err.value.t_reached == complex_err.value.t_reached == traj[-1][0]
    assert len(complex_err.value.trajectory) == len(traj)
    # The escape names the overflow, not the chart radius.
    message = f"the field sum overflowed at t = {traj[-1][0]:.6g}: the state is not finite"
    assert str(err.value) == str(complex_err.value) == message


def test_chart_escape_carries_partial_trajectory(logistic4):
    # A real field and start: the partial trajectory of the float run holds
    # the complex states of complex arithmetic, up to the first one outside.
    field = mf.pipeline(logistic4, 0.1, r_eval=0.05).field
    assert field.real
    with pytest.raises(mf.ChartEscape) as err:
        mf.integrate_flow(field, 0.03, 2.0, dt=1e-3)
    traj = err.value.trajectory
    assert traj
    assert 0.0 < err.value.t_reached < 2.0
    assert all(type(x) is complex for _, x in traj)
    ref = _rk4_full_horner(field, 0.03, 2.0, 1e-3, _complex_value(field))
    assert _rows(traj) == _rows(ref[: len(traj)])
    assert abs(traj[-1][1]) > 0.05 >= abs(traj[-2][1])
    assert str(err.value) == (
        f"trajectory left the chart at t = {err.value.t_reached:.6g}: "
        f"|x - x*| = {abs(traj[-1][1]):.4g} exceeds the chart radius 0.05"
    )


# --- validity window ---------------------------------------------------------------

def test_validity_window_values():
    assert abs(mf.validity_window(0.5) - 1.0) < 1e-12
    assert mf.validity_window(1.0) == 0.0
    x = 0.5 * (1 - math.cos(math.pi / 4))
    assert abs(mf.validity_window(x) - 2.0) < 1e-12


def test_validity_window_domain():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            mf.validity_window(bad)


def test_field_sign_flips_past_window():
    x = 0.5
    h = 1e-5

    def dfdt(t):
        return (
            logistic4_iterate(t + h, x) - logistic4_iterate(t - h, x)
        ).real / (2 * h)

    inside = abs(dfdt(0.9) - logistic4_field(logistic4_iterate(0.9, x)).real)
    assert inside < 1e-4
    after_fd = dfdt(1.1)
    after_field = logistic4_field(logistic4_iterate(1.1, x)).real
    assert after_fd * after_field < 0


# --- Lyapunov ----------------------------------------------------------------------

def test_lyapunov_two_seeds_near_ln2():
    for seed in (0.123456, 0.654321):
        sigma = mf.lyapunov_logistic(100_000, seed)
        assert abs(sigma - LN2) / LN2 < 0.02


def test_lyapunov_rejects_fixed_point_seed():
    with pytest.raises(ValueError):
        mf.lyapunov_logistic(10_000, 0.0)
    with pytest.raises(ValueError):
        mf.lyapunov_logistic(10_000, 1.0)


def test_lyapunov_rejects_short_runs():
    with pytest.raises(ValueError):
        mf.lyapunov_logistic(10, 0.3)


def test_lyapunov_refuses_an_orbit_through_the_critical_point():
    # x0 = 1/2 maps to 1.0 and then to the fixed point 0; a nearby seed rounds
    # onto 1.0 on its first step.  Both would average towards ln 4, not ln 2.
    with pytest.raises(ValueError, match="critical point 1/2 at step 0"):
        mf.lyapunov_logistic(1000, 0.5)
    with pytest.raises(ValueError, match="fixed point 0 at step 2"):
        mf.lyapunov_logistic(1000, 0.500000001)


def test_lyapunov_names_the_collapse_step_past_the_first_chunk():
    # In floats this orbit rounds onto 1.0 at step 8931 and reaches 0 next.
    x0 = 0.6460515139439528
    assert LYAPUNOV_CHUNK < 8932
    with pytest.raises(ValueError, match="fixed point 0 at step 8932:"):
        mf.lyapunov_logistic(8933, x0)
    assert math.isfinite(mf.lyapunov_logistic(8932, x0))


def _lyapunov_scalar(n, x0):
    """Scalar reference: one math.log per iterate, summed in orbit order."""
    x = float(x0)
    total = 0.0
    for _ in range(n):
        total += math.log(abs(4.0 - 8.0 * x))
        x = 4.0 * x * (1.0 - x)
    return total / n


def _lyapunov_list_chunks(n, x0):
    """Chunked reference: each chunk of the orbit gathered in a Python list
    and copied to numpy, its logs added in orbit order with the running total
    carried into the chunk's first term (no collapse test)."""
    x = float(x0)
    total = 0.0
    buf = [0.0] * LYAPUNOV_CHUNK
    for start in range(0, n, LYAPUNOV_CHUNK):
        m = min(LYAPUNOV_CHUNK, n - start)
        for i in range(m):
            buf[i] = x
            x = 4.0 * x * (1.0 - x)
        terms = np.log(np.abs(4.0 - 8.0 * np.array(buf[:m])))
        terms[0] += total
        total = float(np.add.accumulate(terms, out=terms)[-1])
    return total / n


def test_lyapunov_matches_the_scalar_loop_across_chunk_boundaries():
    seeds = np.random.default_rng(8).uniform(0.05, 0.95, 10)
    lengths = (1000, LYAPUNOV_CHUNK - 1, LYAPUNOV_CHUNK, LYAPUNOV_CHUNK + 1, 100_000)
    identical = 0
    for seed in seeds:
        for n in lengths:
            sigma = mf.lyapunov_logistic(n, float(seed))
            ref = _lyapunov_scalar(n, float(seed))
            assert abs(sigma - ref) <= 1e-12, (seed, n)
            assert repr(sigma) == repr(_lyapunov_list_chunks(n, float(seed))), (seed, n)
            identical += sigma == ref
    print(f"{identical} of {len(seeds) * len(lengths)} estimates bit-identical")


def test_lyapunov_memory_is_bounded():
    # A whole orbit of 200 000 floats would alone take 1.6 MB.
    tracemalloc.start()
    try:
        mf.lyapunov_logistic(200_000, 0.123456)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# --- generator consistency ----------------------------------------------------------

def test_log_row_equals_power_derivative(logistic4):
    dim = 16
    fact = mf.pipeline(logistic4.truncated(dim), 0.1).factorization
    L = matrix_log(fact)
    h = 1e-4
    fd = (
        fractional_power(fact, h).entries - fractional_power(fact, -h).entries
    ) / (2 * h)
    w = leading_window(dim, 2, 1)
    assert np.abs(fd[1, :w] - L.entries[1, :w]).max() < 1e-6


def test_monomial_coordinates_satisfy_linear_system(field4, pipe4_origin, logistic4):
    # For x_j(t) = f^t(x)^j the log matrix is the coefficient matrix of the
    # linear ODE system: dx_j/dt = sum_k L[j,k] x_k.
    fact = pipe4_origin.factorization
    chart = pipe4_origin.chart
    L = matrix_log(fact)
    h = 1e-4
    x = 0.05
    for t in np.linspace(0.05, 0.95, 10):
        ft = mf.evaluate_iterate_chart(chart, t, x)
        powers = ft ** np.arange(DIM)
        for j in (1, 2, 3):
            plus = mf.evaluate_iterate_chart(chart, t + h, x) ** j
            minus = mf.evaluate_iterate_chart(chart, t - h, x) ** j
            lhs = (plus - minus) / (2 * h)
            rhs = L.entries[j] @ powers
            assert abs(lhs - rhs) < 1e-5

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapflow as mf
from mapflow.series import (
    PowerSeries,
    compose,
    evaluate_with_tail,
    find_fixed_point,
    tail_radius,
    trailing_term,
)


def series(coeffs, base=0.0, order=None):
    return PowerSeries.from_coefficients(coeffs, base, order=order)


# --- PowerSeries basics -------------------------------------------------------

def test_coeffs_length_is_order():
    s = series([1, 2, 3], order=7)
    assert s.order == 7
    assert len(s.coeffs) == 7


def test_polynomial_roundtrip_bit_identical():
    coeffs = [0.1, 0.2 + 0.3j, -0.7, 1e-17]
    s = PowerSeries(tuple(coeffs))
    assert list(s.coeffs) == [complex(c) for c in coeffs]


def test_coeffs_are_a_read_only_complex_array():
    s = series([1, 2, 3])
    assert isinstance(s.coeffs, np.ndarray) and s.coeffs.dtype == complex
    with pytest.raises(ValueError):
        s.coeffs[0] = 5


def test_series_keeps_its_own_copy_of_the_callers_array():
    given = np.array([1.0, 2.0, 3.0])
    s = PowerSeries(given)
    padded = series(given, order=5)
    given[0] = 99.0
    assert list(s.coeffs) == [1, 2, 3]
    assert list(padded.coeffs) == [1, 2, 3, 0, 0]
    assert given.flags.writeable


def test_from_coefficients_pads_and_truncates():
    assert list(series([1, 2j, 3], order=5).coeffs) == [1, 2j, 3, 0, 0]
    assert list(series([1, 2j, 3], order=2).coeffs) == [1, 2j]
    assert list(series([1, 2j, 3]).coeffs) == [1, 2j, 3]
    with pytest.raises(ValueError):
        series([1, 2], order=0)


def test_evaluation_at_base_point_is_constant_term():
    s = series([2.5 + 1j, 3, 4], base=0.7)
    assert s(0.7) == 2.5 + 1j


def test_horner_matches_numpy_polyval():
    s = series([1, -2, 0.5, 3, -0.25])
    x = 0.37 - 0.11j
    expected = np.polyval(s.coeffs[::-1], x)
    assert abs(s(x) - expected) < 1e-14


def test_tail_of_an_overflowing_term_is_inf():
    s = series([0.1] * 40)
    assert evaluate_with_tail(s, 0.5)[1] == pytest.approx(0.1 * 0.5**35)
    # 1e10**35 is past the float range: an OverflowError before.
    assert evaluate_with_tail(s, 1e10)[1] == float("inf")
    assert evaluate_with_tail(s, -1e10j)[1] == float("inf")
    # |z| itself overflows here.
    assert trailing_term(s.coeffs, complex(1.5e308, 1.5e308)) == float("inf")
    # Over an array of z, each entry is the value at that point alone.
    zs = np.array([0.5, 1e10, -1e10j, complex(1.5e308, 1.5e308), 0.0, 0.3 - 0.2j])
    tails = trailing_term(s.coeffs, zs)
    assert tails.shape == zs.shape
    assert tails.tolist() == [evaluate_with_tail(s, z)[1] for z in zs]
    assert np.isinf(tails).tolist() == [False, True, True, True, False, False]


def _trailing_terms_loop(coeffs, z):
    """|c_k| |z|^k over the tail window in Python floats: the scalar
    reference for the array helpers."""
    n = len(coeffs)
    return [abs(c) * abs(z) ** k for k, c in enumerate(coeffs)
            if k >= max(1, n // 2, n - 5) and c]


def test_tail_helpers_match_the_scalar_loop():
    # numpy's abs and power may differ from Python's in the last bit, and
    # |z|^k carries an ulp of |z| k times: hence the tolerances.
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 7, 12, 40, 61):
        c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 3, n)
        c[rng.uniform(size=n) < 0.2] = 0
        zs = (rng.standard_normal(25) + 1j * rng.standard_normal(25)) * 10.0 ** rng.uniform(-2, 1, 25)
        got = trailing_term(c, zs)
        for g, z in zip(got.tolist(), zs.tolist()):
            ref = max(_trailing_terms_loop(c.tolist(), z), default=0.0)
            assert g == pytest.approx(ref, rel=2 * (n + 2) * 2.0**-52, abs=0)
        terms_at_one = _trailing_terms_loop(c.tolist(), 1.0)  # the |c_k|
        ks = [k for k in range(max(1, n // 2, n - 5), n) if c[k]]
        radii = [(1e-12 / a) ** (1.0 / k) for a, k in zip(terms_at_one, ks)]
        ref = min(radii, default=math.inf)
        assert tail_radius(c) == pytest.approx(ref, rel=8 * 2.0**-52, abs=0)


def test_derivative():
    s = series([5, 1, 2, 3])
    assert list(s.derivative().coeffs) == [1, 4, 9]
    assert list(series([5]).derivative().coeffs) == [0]


# --- compose ------------------------------------------------------------------

def test_compose_identity_is_neutral():
    f = series([0, 4, -4], order=8)
    ident = PowerSeries.from_coefficients([0, 1], order=8)
    assert np.array_equal(compose(f, ident).coeffs, f.coeffs)
    assert np.array_equal(compose(ident, f).coeffs, f.coeffs)


def test_compose_logistic_self():
    # 4f(1-f) with f = 4x - 4x^2, expanded by hand.
    f = series([0, 4, -4], order=8)
    ff = compose(f, f)
    expected = [0, 16, -80, 128, -64, 0, 0, 0]
    assert np.allclose(ff.coeffs, expected, atol=1e-12)


def test_compose_shift_pair_is_identity():
    x_star = 0.75
    h = series([-x_star, 1], order=6)
    h_inv = series([x_star, 1], order=6)
    out = compose(h, h_inv)
    assert np.allclose(out.coeffs, [0, 1, 0, 0, 0, 0], atol=0)


def test_compose_warns_when_recentering_cannot_be_exact():
    # Full-window tail and an offset constant term: truncation bites.
    outer = series([1.0] * 6)
    inner = series([0.5, 1.0, 0.25], order=6)
    with pytest.warns(mf.ApproximateCompositionWarning):
        compose(outer, inner)


def test_compose_polynomial_recentering_is_silent():
    outer = series([0, 4, -4], order=8)
    inner = series([0.75, 1.0], order=8)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = compose(outer, inner)
    assert abs(g(0.0) - (4 * 0.75 * 0.25)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=4),
    st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=4),
    st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=4),
)
def test_compose_associative_on_zero_constant_cubics(a, b, c):
    order = 12
    fa = series([0, 1] + a, order=order)
    fb = series([0, 1] + b, order=order)
    fc = series([0, 1] + c, order=order)
    left = compose(compose(fa, fb), fc)
    right = compose(fa, compose(fb, fc))
    assert np.abs(left.coeffs - right.coeffs).max() < 1e-12


# --- find_fixed_point ---------------------------------------------------------

def test_fixed_point_origin_multiplier_four():
    f = mf.logistic_series(4.0, 16)
    frame = find_fixed_point(f, 0.1)
    assert abs(frame.x_star) < 1e-12
    assert abs(frame.multiplier - 4.0) < 1e-10
    assert frame.shifted_map.coeffs[0] == 0


def test_fixed_point_second_multiplier_minus_two():
    f = mf.logistic_series(4.0, 16)
    frame = find_fixed_point(f, 0.7)
    assert abs(frame.x_star - 0.75) < 1e-12
    assert abs(frame.multiplier + 2.0) < 1e-10


def test_fixed_point_mu2():
    f = mf.logistic_series(2.0, 16)
    frame = find_fixed_point(f, 0.1)
    assert abs(frame.x_star) < 1e-12
    assert abs(frame.multiplier - 2.0) < 1e-10


def test_fixed_point_frame_invariants():
    f = mf.logistic_series(4.0, 16)
    frame = find_fixed_point(f, 0.7)
    g = frame.shifted_map
    assert abs(g(0.0)) <= 1e-12
    assert g.coeffs[1] == frame.multiplier
    # shifted map agrees with f(x + x*) - x* pointwise
    for d in (0.01, -0.03, 0.05j):
        assert abs(g(d) - (f(d + frame.x_star) - frame.x_star)) < 1e-12


@pytest.mark.parametrize("dim", [8, 40, 160])
@pytest.mark.parametrize(
    "coeffs, guess",
    [
        ([0, 4, -4], 0.1),
        ([0, 4, -4], 0.7),
        ([-0.3, 0.5, 1], -0.3),
        ([0.01, 0.8, 0.3, -0.2], 0.0),
        ([0.1 - 0.05j, 1.8 + 0.9j, 0.5 - 0.4j, 0.2 + 0.1j], 0.0),
    ],
)
def test_shifted_map_is_bit_identical_to_full_length_compose(coeffs, guess, dim):
    # Fixed points 0, 3/4, -0.352, 0.054 and -0.022+0.086i of maps stored
    # zero-padded to dim terms: composing the padding changes no bit.
    f = series(coeffs, order=dim)
    frame = find_fixed_point(f, guess)
    full = compose(f, series([frame.x_star, 1.0], order=dim))
    assert frame.shifted_map.order == dim
    got = np.array(frame.shifted_map.coeffs[1:])
    assert got.tobytes() == np.array(full.coeffs[1:]).tobytes()


def test_fixed_point_nonconvergence_carries_last_iterate():
    f = PowerSeries.from_coefficients([1.0, 0.0, 1.0], order=8)  # x^2 + 1
    with pytest.raises(mf.FixedPointNotFound) as err:
        find_fixed_point(f, 0.0, max_iter=8)
    assert err.value.last_iterate is not None


def test_identity_multiplier_rejected_as_root_of_unity():
    f = PowerSeries.from_coefficients([0, 1, 0.5], order=8)
    with pytest.raises(mf.RestrictiveConditionViolated):
        find_fixed_point(f, 0.0)


def test_superattracting_multiplier_rejected():
    f = PowerSeries.from_coefficients([0, 0, 1.0], order=8)  # x^2
    with pytest.raises(mf.Superattracting):
        find_fixed_point(f, 0.0)

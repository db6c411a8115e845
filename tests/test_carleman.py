import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapflow.carleman import (
    CarlemanMatrix,
    build_matrix,
    build_matrix_quadrature,
    read_matrix_csv,
    scaled_deviation,
    write_matrix_csv,
)
from mapflow.logistic import logistic4_matrix_entry, logistic_series
from mapflow.series import PowerSeries, compose, find_fixed_point

from conftest import leading_window


# --- coefficient builder --------------------------------------------------------

def test_logistic_matrix_matches_closed_form_exactly():
    dim = 8
    M = build_matrix(logistic_series(4.0, dim), dim)
    expected = np.array(
        [[logistic4_matrix_entry(j, k) for k in range(dim)] for j in range(dim)]
    )
    assert np.array_equal(M.entries, expected.astype(complex))


def test_identity_map_gives_identity_matrix():
    M = build_matrix(PowerSeries.from_coefficients([0, 1], order=6), 6)
    assert np.array_equal(M.entries, np.eye(6, dtype=complex))


def test_matrix_keeps_a_copy_of_the_callers_entries():
    e = np.eye(3, dtype=complex)
    M = CarlemanMatrix(e, PowerSeries([0, 1]))
    e[0, 0] = 2
    assert M.entries[0, 0] == 1
    assert not M.entries.flags.writeable


def test_generic_quadratic_row_two():
    # row 2 of the embedding of f0 + f1 x + f2 x^2:
    # (f0^2, 2 f0 f1, 2 f0 f2 + f1^2, 2 f1 f2, ...)
    f0, f1, f2 = 1.0, 2.0, 3.0
    M = build_matrix(PowerSeries.from_coefficients([f0, f1, f2], order=5), 5)
    expected = [f0**2, 2 * f0 * f1, 2 * f0 * f2 + f1**2, 2 * f1 * f2, f2**2]
    assert np.allclose(M.entries[2], expected, atol=0)


def test_row_zero_and_row_one_structure():
    f = PowerSeries.from_coefficients([0.3, 1.1, -0.2, 0.05], order=6)
    M = build_matrix(f, 6)
    assert np.array_equal(M.entries[0], np.eye(6, dtype=complex)[0])
    assert np.array_equal(M.entries[1], f.truncated(6).coeffs)


def test_rows_are_convolution_powers():
    f = PowerSeries.from_coefficients([0.0, 1.2, -0.4, 0.1], order=8)
    M = build_matrix(f, 8)
    row = np.zeros(8, dtype=complex)
    row[0] = 1
    for j in range(1, 8):
        row = np.convolve(row, M.entries[1])[:8]
        assert np.allclose(M.entries[j], row, atol=0)


def test_zero_constant_term_gives_exact_triangularity():
    M = build_matrix(logistic_series(4.0, 12), 12)
    assert np.all(np.tril(M.entries, -1) == 0)
    assert np.allclose(np.diag(M.entries), 4.0 ** np.arange(12), atol=0)


# --- quadrature builder ---------------------------------------------------------

def test_matrices_past_the_float_range_are_refused_without_a_warning():
    too_large = "the powers of the map are too large for floats at this order"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 1e200 squared overflows at (2, 2); inf times 0 is nan in row 3.
        with pytest.raises(ValueError, match=re.escape(
                f"3 matrix entries are not finite, the first at (2, 2): {too_large}")):
            build_matrix(PowerSeries.from_coefficients([0, 1e200]), 4)
        # The truncated powers stay finite; the samples of f^4 reach 1e400.
        f = PowerSeries.from_coefficients([0.5, 0, 0, 1e100])
        assert np.isfinite(build_matrix(f, 5).entries).all()
        with pytest.raises(ValueError, match=re.escape(
                f"5 quadrature matrix entries are not finite, the first at (4, 0): {too_large}")):
            build_matrix_quadrature(f, 5)


def test_quadrature_matches_coefficients_for_logistic():
    dim = 16
    f = logistic_series(4.0, dim)
    a = build_matrix(f, dim)
    b = build_matrix_quadrature(f, dim)
    assert scaled_deviation(a.entries, b.entries) < 1e-10


def test_quadrature_identity_map():
    M = build_matrix_quadrature(PowerSeries.from_coefficients([0, 1], order=6), 6)
    assert np.abs(M.entries - np.eye(6)).max() < 1e-13


def test_quadrature_square_map():
    # f = x^2: powers hop two columns at a time, mostly out of a 3-window.
    f = PowerSeries.from_coefficients([0, 0, 1], order=3)
    M = build_matrix_quadrature(f, 3)
    assert np.abs(M.entries[1] - np.array([0, 0, 1.0])).max() < 1e-13
    assert np.abs(M.entries[2]).max() < 1e-13


def test_the_default_node_count_meets_the_exactness_bound():
    # dim*deg + dim + 1 <= 4*dim*deg for every dim >= 2 and degree >= 1, so
    # the quadrature reproduces the exact matrix of a polynomial map.
    for coeffs in ([0, 1], [0, 4, -4], [0.0, 1.0, 0.25, -0.1, 0.05]):
        for dim in (2, 3, 8):
            f = PowerSeries.from_coefficients(coeffs, order=dim)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                M = build_matrix_quadrature(f, dim)
            assert scaled_deviation(M.entries, build_matrix(f, dim).entries) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.6, 1.4),
    st.lists(st.floats(-0.4, 0.4), min_size=0, max_size=3),
    st.sampled_from([6, 12]),
)
def test_builders_agree_on_modest_polynomials(a1, tail, dim):
    f = PowerSeries.from_coefficients([0.0, a1] + tail, order=dim)
    a = build_matrix(f, dim)
    b = build_matrix_quadrature(f, dim)
    assert scaled_deviation(a.entries, b.entries) < 1e-8


def test_builders_agree_at_dim_32_for_tame_map():
    f = PowerSeries.from_coefficients([0.0, 1.0, 0.25, -0.1, 0.05], order=32)
    a = build_matrix(f, 32)
    b = build_matrix_quadrature(f, 32)
    assert scaled_deviation(a.entries, b.entries) < 1e-10


# --- affine maps ---------------------------------------------------------------

def test_affine_map_matrix_binomial_entries():
    # The matrix of x - x* has entries C(j,k) (-x*)^(j-k): the binomial
    # matrix that conjugates to the fixed-point frame.
    h = PowerSeries.from_coefficients([-0.75, 1.0], order=2)
    T = build_matrix(h, 6).entries
    for j in range(6):
        for k in range(6):
            expected = (
                math.comb(j, k) * (-0.75) ** (j - k) if j >= k else 0.0
            )
            assert abs(T[j, k] - expected) < 1e-14


def test_affine_map_matrix_inverse_is_inverse_map_matrix():
    x_star = 0.75
    h = PowerSeries.from_coefficients([-x_star, 1.0], order=10)
    h_inv = PowerSeries.from_coefficients([x_star, 1.0], order=10)
    direct = build_matrix(h_inv, 10).entries
    inverted = np.linalg.inv(build_matrix(h, 10).entries)
    assert np.abs(direct - inverted).max() < 1e-10


# --- shift conjugation ----------------------------------------------------------

def test_conjugation_triangularizes_second_fixed_point():
    # T M(f) T^-1 with T the matrix of x - x*: row j of T M reaches column 2j,
    # so the product is formed at double size and its leading window kept.
    n = 8
    f = logistic_series(4.0, n)
    frame = find_fixed_point(f, 0.7)
    to_fixed = build_matrix(PowerSeries.from_coefficients([-frame.x_star, 1.0]), 2 * n)
    back = build_matrix(PowerSeries.from_coefficients([frame.x_star, 1.0]), 2 * n)
    conj = (to_fixed.entries @ build_matrix(f, 2 * n).entries @ back.entries)[:n, :n]
    scale = np.abs(conj).max()
    assert np.abs(np.tril(conj, -1)).max() <= 1e-10 * scale
    assert np.allclose(np.diag(conj), (-2.0) ** np.arange(n), atol=1e-9)
    direct = build_matrix(frame.shifted_map, n)
    assert scaled_deviation(conj, direct.entries) < 1e-12


# --- semigroup ------------------------------------------------------------------

def _homomorphism_gap(f, g, dim, window=None):
    """Max-abs gap between M(f o g) and M(f) M(g) on a leading window."""
    composed = compose(f.truncated(dim), g.truncated(dim))
    lhs = build_matrix(composed, dim).entries
    rhs = build_matrix(f, dim).entries @ build_matrix(g, dim).entries
    w = dim if window is None else window
    return float(np.abs(lhs[:w, :w] - rhs[:w, :w]).max())


def test_semigroup_logistic_window():
    f = logistic_series(4.0, 8)
    assert _homomorphism_gap(f, f, 8, window=4) <= 1e-9


def test_semigroup_identity_right_factor():
    # With a zero constant term in the right factor both sides are exact.
    f = PowerSeries.from_coefficients([0.2, 1.5, -0.3], order=8)
    assert _homomorphism_gap(f, PowerSeries.from_coefficients([0, 1], order=8), 8) == 0.0


def test_semigroup_scaling_map():
    f = PowerSeries.from_coefficients([0.1, 0.9, -0.5, 0.2], order=10)
    lam = PowerSeries.from_coefficients([0, 0.8], order=10)
    assert _homomorphism_gap(f, lam, 10) <= 1e-12


def test_integer_matrix_powers_match_composed_maps():
    dim = 16
    f = logistic_series(4.0, dim)
    M = build_matrix(f, dim).entries
    composed = f
    power = M
    for n in (2, 3):
        composed = compose(f, composed)
        power = power @ M
        w = leading_window(dim, 2, n)
        direct = build_matrix(composed, dim).entries
        assert np.abs(direct[:w, :w] - power[:w, :w]).max() < 1e-8


# --- interchange format ---------------------------------------------------------

def test_matrix_csv_roundtrip():
    f = PowerSeries.from_coefficients([0, 4, -4], order=6)
    M = build_matrix(f, 6)
    buf = io.StringIO()
    write_matrix_csv(M, buf)
    buf.seek(0)
    back = read_matrix_csv(buf)
    assert back.dim == 6
    assert np.array_equal(back.entries, M.entries)
    assert np.array_equal(back.source_map.coeffs, f.coeffs)


def test_read_matrix_csv_refuses_another_header():
    with pytest.raises(ValueError, match="^not a carleman matrix dump$"):
        read_matrix_csv(io.StringIO("matrix dim=4\n1+0i\n"))


def test_matrix_csv_header_format():
    M = build_matrix(PowerSeries.from_coefficients([0, 1 + 2j], order=4), 4)
    buf = io.StringIO()
    write_matrix_csv(M, buf)
    header = buf.getvalue().splitlines()[0]
    assert header.startswith("carleman dim=4 map=")
    assert "1+2i" in header

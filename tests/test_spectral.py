import math
import warnings

import numpy as np
import pytest

import mapflow as mf
from mapflow.carleman import build_matrix, scaled_deviation
from mapflow.logistic import (
    logistic2_chart_coefficients,
    logistic4_chart_coefficients,
    logistic_series,
)
from mapflow.series import (
    TOL_RES,
    FixedPointFrame,
    PowerSeries,
    _trunc_div,
    compose,
    find_fixed_point,
)
from mapflow.spectral import (
    _diagonal,
    diagonalize,
    factor_from_series,
    fractional_power,
    log_row,
    matrix_log,
)

from conftest import leading_window


def factor(mu, guess, dim):
    f = logistic_series(mu, dim)
    frame = find_fixed_point(f, guess)
    mg = build_matrix(frame.shifted_map, dim)
    return frame, mg, diagonalize(mg, frame)


# --- diagonalize ----------------------------------------------------------------

def test_hand_computed_chart_entries():
    # (lambda - lambda^2)^{-1} * Mg[1,2] = (4-16)^{-1} * (-4) = 1/3 and the
    # next column gives 8/45.
    _, _, S = factor(4.0, 0.1, 8)
    assert abs(S.chart_matrix[1, 2] - 1 / 3) < 1e-13
    assert abs(S.chart_matrix[1, 3] - 8 / 45) < 1e-13


def test_diagonal_input_gives_identity_factors():
    frame = FixedPointFrame(
        x_star=0.0,
        multiplier=2.0,
        shifted_map=PowerSeries.from_coefficients([0, 2], order=4),
    )
    mg = build_matrix(frame.shifted_map, 4)
    assert np.array_equal(mg.entries, np.diag([1.0, 2.0, 4.0, 8.0]).astype(complex))
    S = diagonalize(mg, frame)
    assert np.array_equal(S.chart_matrix, np.eye(4, dtype=complex))
    assert np.array_equal(S.chart_matrix_inv, np.eye(4, dtype=complex))


def test_mu2_chart_row_matches_log_series():
    _, _, S = factor(2.0, 0.1, 8)
    row = S.chart_row
    expected = [0, 1, 1, 4 / 3, 2, 16 / 5, 16 / 3, 64 / 7]
    assert np.abs(row - np.array(expected)).max() < 1e-12


def test_factorization_invariants():
    dim = 12
    _, mg, S = factor(4.0, 0.1, dim)
    eye = np.eye(dim)
    assert np.abs(S.chart_matrix @ S.chart_matrix_inv - eye).max() < 1e-10
    product = S.chart_matrix @ mg.entries @ S.chart_matrix_inv
    assert scaled_deviation(product, np.diag(S.frame.multiplier ** np.arange(dim))) < 1e-9
    assert np.allclose(np.diag(S.chart_matrix), 1.0, atol=0)
    assert np.allclose(np.diag(S.chart_matrix_inv), 1.0, atol=0)


def test_diagonalization_column_relative_at_large_dim():
    # Verifying diagonality at deep columns cancels huge intermediates, so
    # the meaningful scale there is the column's own eigenvalue.
    dim = 40
    _, mg, S = factor(4.0, 0.1, dim)
    product = S.chart_matrix @ mg.entries @ S.chart_matrix_inv
    dev = scaled_deviation(product.T, np.diag(S.frame.multiplier ** np.arange(dim)).T)
    assert dev < 1e-10


def test_chart_matrix_rows_are_convolution_powers():
    dim = 16
    _, _, S = factor(4.0, 0.1, dim)
    psi = S.chart_matrix[1]
    row = np.zeros(dim, dtype=complex)
    row[0] = 1
    for j in range(1, dim):
        row = np.convolve(row, psi)[:dim]
        assert scaled_deviation(S.chart_matrix[j], row) < 1e-9


def test_left_eigenrow_is_left_eigenvector():
    dim = 16
    _, mg, S = factor(4.0, 0.1, dim)
    psi = S.chart_row
    w = leading_window(dim, 2, 1)
    lhs = (psi @ mg.entries)[:w]
    rhs = (S.frame.multiplier * psi)[:w]
    assert scaled_deviation(lhs, rhs) < 1e-9


def test_left_eigenrow_diagonal_input():
    frame = FixedPointFrame(
        x_star=0.0,
        multiplier=2.0,
        shifted_map=PowerSeries.from_coefficients([0, 2], order=5),
    )
    S = diagonalize(build_matrix(frame.shifted_map, 5), frame)
    assert np.array_equal(S.chart_row, np.eye(5, dtype=complex)[1])


def test_resonant_multiplier_rejected():
    # multiplier i: powers repeat with period 4
    frame = FixedPointFrame(
        x_star=0.0,
        multiplier=1j,
        shifted_map=PowerSeries.from_coefficients([0, 1j, 0.5], order=8),
    )
    mg = build_matrix(frame.shifted_map, 8)
    with pytest.raises(mf.ResonantEigenvalues) as err:
        diagonalize(mg, frame)
    # i^0 = i^4 is the first colliding pair in row-major order.
    assert err.value.pair == (0, 4)


def test_superattracting_rejected():
    frame = FixedPointFrame(
        x_star=0.0,
        multiplier=0.0,
        shifted_map=PowerSeries.from_coefficients([0, 0, 1], order=6),
    )
    mg = build_matrix(frame.shifted_map, 6)
    with pytest.raises(mf.Superattracting):
        diagonalize(mg, frame)


def test_non_triangular_input_rejected():
    f = logistic_series(4.0, 8)
    frame = find_fixed_point(f, 0.7)
    M = build_matrix(f, 8)  # not shifted, not triangular
    with pytest.raises(mf.ShiftInconsistent):
        diagonalize(M, frame)


# --- the series core ---------------------------------------------------------------

CORE_MAPS = [
    ([0, 4, -4], 0.1),
    ([0, 4, -4], 0.7),
    ([0, 2, -2], 0.1),
    ([0, 1.8 + 0.9j, 0.5 - 0.4j, 0.2 + 0.1j], 0.0),
]


@pytest.mark.parametrize("dim", [8, 20, 40])
@pytest.mark.parametrize("coeffs, guess", CORE_MAPS)
def test_series_core_agrees_with_diagonalize(coeffs, guess, dim):
    frame = find_fixed_point(PowerSeries.from_coefficients(coeffs, order=dim), guess)
    S = factor_from_series(frame)
    ref = diagonalize(build_matrix(frame.shifted_map, dim), frame)
    assert scaled_deviation(S.chart_matrix, ref.chart_matrix) < 1e-9
    assert scaled_deviation(S.chart_matrix_inv, ref.chart_matrix_inv) < 1e-9
    assert S.frame is frame and ref.frame is frame


def _paper_function(S, diag):
    """The paper's V^-1 diag V, from the factors that ``S`` holds."""
    return (S.chart_matrix_inv * diag[np.newaxis, :]) @ S.chart_matrix


@pytest.mark.parametrize("coeffs, guess", CORE_MAPS)
def test_log_row_is_row_one_of_the_matrix_log(coeffs, guess):
    # The series core's log M and M^t against the paper's, formed from
    # diagonalize's factors, on the leading half window.
    dim = 20
    frame = find_fixed_point(PowerSeries.from_coefficients(coeffs, order=dim), guess)
    S = factor_from_series(frame)
    ref = diagonalize(build_matrix(frame.shifted_map, dim), frame)
    w = leading_window(dim, 2, 1)
    j = np.arange(dim)
    L = matrix_log(S)
    assert L.source_map.base_point == frame.x_star
    assert np.array_equal(L.source_map.coeffs, log_row(S).coeffs)
    paper = _paper_function(ref, j * frame.log_multiplier)
    assert scaled_deviation(L.entries[:w, :w], paper[:w, :w]) < 1e-11
    for t in (0.5, 1.5):
        P = fractional_power(S, t).entries
        paper = _paper_function(ref, np.exp(j * (t * frame.log_multiplier)))
        assert scaled_deviation(P[:w, :w], paper[:w, :w]) < 1e-11


def test_series_core_factors_to_the_order_of_the_shifted_map():
    frame = find_fixed_point(logistic_series(4.0, 8), 0.1)
    assert frame.shifted_map.order == 8
    S = factor_from_series(frame)
    assert S.dim == len(S.chart_row) == len(S.inverse_row) == 8


def test_series_core_rejects_what_diagonalize_rejects():
    resonant = FixedPointFrame(
        x_star=0.0,
        multiplier=1j,
        shifted_map=PowerSeries.from_coefficients([0, 1j, 0.5], order=8),
    )
    with pytest.raises(mf.ResonantEigenvalues) as err:
        factor_from_series(resonant)
    assert err.value.pair == (0, 4)
    flat = FixedPointFrame(
        x_star=0.0,
        multiplier=0.0,
        shifted_map=PowerSeries.from_coefficients([0, 0, 1], order=6),
    )
    with pytest.raises(mf.Superattracting):
        factor_from_series(flat)


# --- shared powers: Lagrange inversion and the field row ------------------------

def _lagrange_sequential(phi):
    """k u_k = [w^(k-1)] phi^k, forming every power of phi in turn."""
    n = len(phi) + 1
    u = np.zeros(n, dtype=phi.dtype)
    power = phi
    for k in range(1, n):
        u[k] = power[k - 1] / k
        power = np.convolve(power, phi)[: n - 1]
    return u


def _horner_sum(a, u):
    """sum_k a_k u^k by Horner's rule, truncated to len(u) terms."""
    acc = np.zeros(len(u), dtype=np.result_type(a, u))
    for c in a[::-1]:
        acc = np.convolve(acc, u)[: len(u)]
        acc[0] += c
    return acc


SHARED_POWER_MAPS = {
    "l4_0": ([0, 4, -4], 0.1),
    "l4_34": ([0, 4, -4], 0.7),
    "l2_0": ([0, 2, -2], 0.1),
    "cubic": ([0, 1.8 + 0.9j, 0.5 - 0.4j, 0.2 + 0.1j], 0.0),
}


@pytest.mark.parametrize("dim", [20, 40, 80, 160])
@pytest.mark.parametrize("name", sorted(SHARED_POWER_MAPS))
def test_shared_powers_agree_with_sequential_construction(name, dim):
    # Within rounding: each coefficient within dim * eps of the same sum
    # taken over the absolute values of its terms.
    coeffs, guess = SHARED_POWER_MAPS[name]
    frame = find_fixed_point(PowerSeries.from_coefficients(coeffs, order=dim), guess)
    S = factor_from_series(frame)
    eps = dim * np.finfo(float).eps
    one = np.zeros(dim - 1, dtype=complex)
    one[0] = 1.0
    phi = _trunc_div(one, S.inverse_row[1:])
    du = np.abs(S.chart_row - _lagrange_sequential(phi))
    assert np.all(du <= eps * _lagrange_sequential(np.abs(phi)))
    a = S.inverse_row * (np.arange(dim) * S.frame.log_multiplier)
    dg = np.abs(log_row(S).coeffs - _horner_sum(a, S.chart_row))
    assert np.all(dg <= eps * _horner_sum(np.abs(a), np.abs(S.chart_row)))


@pytest.mark.parametrize("dim", [20, 40, 80, 160])
@pytest.mark.parametrize(
    "mu, closed_form",
    [(4.0, logistic4_chart_coefficients), (2.0, logistic2_chart_coefficients)],
)
def test_chart_and_field_rows_match_closed_forms(mu, closed_form, dim):
    mp = pytest.importorskip("mpmath")
    S = factor_from_series(find_fixed_point(logistic_series(mu, dim), 0.1))
    exact = closed_form(dim - 1)
    u = np.array([0.0] + [float(c) for c in exact])
    assert np.all(np.abs(S.chart_row[1:] - u[1:]) <= 1e-10 * u[1:])
    # The field is Log(mu) u/u', divided term by term at 40 digits.
    with mp.workdps(40):
        ue = [mp.mpf(0)] + [mp.mpf(c.numerator) / c.denominator for c in exact]
        due = [k * ue[k] for k in range(1, dim)] + [mp.mpf(0)]
        q = []
        for k in range(dim):
            q.append((ue[k] - mp.fsum(q[i] * due[k - i] for i in range(k))) / due[0])
        ref = np.array([float(mp.log(mu) * c) for c in q])
    g = log_row(S).coeffs
    assert np.all(np.abs(g[1:] - ref[1:]) <= 1e-10 * np.abs(ref[1:]))


def test_construction_shares_powers(monkeypatch):
    # Forming every power in turn took 2 dim - 2 = 318 convolutions.
    dim = 160
    frame = find_fixed_point(logistic_series(4.0, dim), 0.7)
    calls = []
    convolve = np.convolve

    def counted(*args, **kwargs):
        calls.append(1)
        return convolve(*args, **kwargs)

    monkeypatch.setattr(np, "convolve", counted)
    log_row(factor_from_series(frame))
    assert len(calls) <= 4 * (math.isqrt(dim) + 1)


# --- resonance check ----------------------------------------------------------------

def _pairwise_diagonal(lam, n):
    """The resonance check over the full table of pairs (j, k), j < k."""
    if abs(lam) <= TOL_RES:
        raise mf.Superattracting(f"multiplier {lam!r} is numerically zero")
    powers = lam ** np.arange(n)
    diff = powers[:, np.newaxis] - powers[np.newaxis, :]
    gap = np.hypot(diff.real, diff.imag)
    size = np.hypot(powers.real, powers.imag)
    scale = np.maximum(size[:, np.newaxis], size[np.newaxis, :])
    close = np.triu(gap < TOL_RES * scale, k=1)
    if close.any():
        j, k = (int(i) for i in np.argwhere(close)[0])
        raise mf.ResonantEigenvalues(
            f"eigenvalues lambda^{j} and lambda^{k} are "
            f"indistinguishable (gap {gap[j, k]:.3e})",
            pair=(j, k),
        )
    return powers


def _verdict(check, lam, dim):
    try:
        return ("ok", check(complex(lam), dim))
    except mf.ResonantEigenvalues as err:
        return ("resonant", err.pair, str(err))
    except mf.Superattracting as err:
        return ("superattracting", str(err))


def _diagonal_sweep():
    lams = [0.0, TOL_RES, 1e-7, 1j, -1.0]
    # Roots of unity up to order 64, exact and perturbed in modulus and angle
    # on both sides of the tolerance.
    for q in range(1, 65):
        for p in {1, q - 1}:
            root = np.exp(2j * np.pi * p / q)
            for eps in (0.0, 1e-12, 1e-10, 7e-10, 3e-9, 2e-8, 1e-6):
                lams.append(root * (1 + eps) * np.exp((-1) ** q * 1j * eps))
    # Moduli from 1e-7 to 1e3, real and complex: 1e3^159 overflows and
    # 1e-7^159 underflows.
    for r in np.logspace(-7, 3, 31):
        lams += [r, -r, r * np.exp(0.7j), r * np.exp(-2.9j)]
    lams += [1.8 + 0.9j, 0.3 - 1.2j, 1e3 * np.exp(1j), 1e-6 * np.exp(2j)]
    return lams


@pytest.mark.parametrize("dim", [20, 160])
def test_diagonal_matches_pairwise_reference(dim):
    verdicts = {"ok": 0, "resonant": 0, "superattracting": 0}
    for lam in _diagonal_sweep():
        with np.errstate(over="ignore", invalid="ignore"):
            got = _verdict(_diagonal, lam, dim)
            want = _verdict(_pairwise_diagonal, lam, dim)
        if want[0] == "ok":
            assert got[0] == "ok", lam
            np.testing.assert_array_equal(got[1], want[1])
        else:
            assert got == want, lam
        verdicts[want[0]] += 1
    assert min(verdicts.values()) > 0


def test_rows_past_the_float_range_are_refused_without_a_warning():
    # mu=2: u_k = 2^(k-1)/k stays finite to k = 1024, but the block products
    # of Lagrange inversion overflow from k = 868 at dim 1000.
    frame = find_fixed_point(logistic_series(2.0, 1000), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^132 chart coefficients are not finite, "
                                             "the first at k = 868: "):
            factor_from_series(frame)
        # mu=4: the powers 4^k leave the float range from k = 512 (4^512 =
        # 2^1024), where h_k becomes 0; the order-599 chart is still right.
        row = factor_from_series(find_fixed_point(logistic_series(4.0, 600), 0.0)).chart_row
    exact = logistic4_chart_coefficients(599)
    assert max(abs(row[k] - float(c)) / float(c) for k, c in enumerate(exact, start=1)) < 1e-14


# --- fractional powers ----------------------------------------------------------

def test_power_at_zero_is_identity():
    dim = 16
    _, _, S = factor(4.0, 0.1, dim)
    P = fractional_power(S, 0.0)
    assert np.abs(P.entries - np.eye(dim)).max() < 1e-12


def test_power_at_one_reproduces_matrix():
    dim = 16
    f = logistic_series(4.0, dim)
    _, _, S = factor(4.0, 0.1, dim)
    M = build_matrix(f, dim)
    P = fractional_power(S, 1.0)
    w = leading_window(dim, 2, 1)
    assert scaled_deviation(P.entries[:w, :w], M.entries[:w, :w]) < 1e-9


def test_power_at_two_row_one_is_composed_map():
    dim = 16
    f = logistic_series(4.0, dim)
    _, _, S = factor(4.0, 0.1, dim)
    M = build_matrix(f, dim)
    P = fractional_power(S, 2.0)
    ff = compose(f, f)
    w = leading_window(dim, 2, 2)
    assert np.abs(P.entries[1, :w] - ff.coeffs[:w]).max() < 1e-9
    squared = M.entries @ M.entries
    assert scaled_deviation(P.entries[:w, :w], squared[:w, :w]) < 1e-9


def test_power_semigroup_in_t():
    dim = 16
    _, _, S = factor(4.0, 0.1, dim)
    w = 6
    for s, t in ((0.3, 0.7), (0.5, 0.5), (1.2, -0.2)):
        lhs = fractional_power(S, s + t).entries
        rhs = fractional_power(S, s).entries @ fractional_power(S, t).entries
        assert np.abs(lhs[:w, :w] - rhs[:w, :w]).max() < 1e-8


def test_power_output_keeps_embedding_structure():
    dim = 16
    _, _, S = factor(4.0, 0.1, dim)
    P = fractional_power(S, 0.6)
    assert np.abs(P.entries[0] - np.eye(dim)[0]).max() < 1e-12
    w = leading_window(dim, 2, 1)
    row = np.zeros(dim, dtype=complex)
    row[0] = 1
    for j in range(1, w):
        row = np.convolve(row, P.entries[1])[:dim]
        assert scaled_deviation(P.entries[j, :w], row[:w]) < 1e-9


# --- matrix logarithm -----------------------------------------------------------

def test_log_of_diagonal_matrix():
    frame = FixedPointFrame(
        x_star=0.0,
        multiplier=2.0,
        shifted_map=PowerSeries.from_coefficients([0, 2], order=4),
    )
    mg = build_matrix(frame.shifted_map, 4)
    S = diagonalize(mg, frame)
    L = matrix_log(S)
    expected = np.diag([0.0, math.log(2), 2 * math.log(2), 3 * math.log(2)])
    assert np.abs(L.entries - expected).max() < 1e-13


def test_log_row_one_logistic_coefficients():
    _, _, S = factor(4.0, 0.1, 16)
    L = matrix_log(S)
    assert abs(L.entries[1, 1] - math.log(4)) < 1e-12
    assert abs(L.entries[1, 2] + (2 / 3) * math.log(2)) < 1e-12


def test_log_is_time_derivative_of_powers():
    dim = 16
    _, _, S = factor(4.0, 0.1, dim)
    L = matrix_log(S)
    h = 1e-4
    diff = (
        fractional_power(S, h).entries - fractional_power(S, -h).entries
    ) / (2 * h)
    w = leading_window(dim, 2, 1)
    assert np.abs(diff[1, :w] - L.entries[1, :w]).max() < 1e-6
    # whole leading window, scaled: the h^2 error carries (k log lambda)^3
    assert scaled_deviation(diff[:w, :w], L.entries[:w, :w]) < 1e-6


def test_log_without_matrix_argument():
    _, _, S = factor(4.0, 0.1, 8)
    L = matrix_log(S)
    assert abs(L.entries[1, 1] - math.log(4)) < 1e-12
    assert L.source_map.base_point == 0


def test_log_at_second_fixed_point_is_the_shifted_maps_generator():
    # Row 1 is the field about x* = 3/4, with G'(x*) = Log(-2).
    frame, _, S = factor(4.0, 0.7, 12)
    L = matrix_log(S)
    assert L.source_map.base_point == frame.x_star
    assert L.source_map.coeffs[0] == 0
    assert abs(L.source_map.coeffs[1] - complex(math.log(2), math.pi)) < 1e-12


def test_log_at_origin_is_the_chart_core():
    _, _, S = factor(4.0, 0.1, 12)
    core = _paper_function(S, np.arange(12) * S.frame.log_multiplier)
    L = matrix_log(S)
    assert scaled_deviation(L.entries, core) < 1e-12
    assert np.array_equal(L.source_map.coeffs, L.entries[1])


def _exact_field(mu, x_star, n):
    """The closed-form field about x*, Log(lambda) u/u', to n terms at 40 digits.

    At 0, u is the exact chart; at 3/4 (mu=4), u' = (4x(1 - x))^(-1/2) up to a
    scale, which u/u' does not see, expanded by J. C. P. Miller's recurrence.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        if x_star:
            a, alpha = [mp.mpf(3) / 4, -2, -4], mp.mpf(-1) / 2
            du = [a[0] ** alpha]
            for k in range(1, n):
                du.append(mp.fsum(((alpha + 1) * i - k) * a[i] * du[k - i]
                                  for i in range(1, min(k, 2) + 1)) / (k * a[0]))
            log_lambda = mp.mpc(mp.log(2), mp.pi)
        else:
            closed = logistic4_chart_coefficients if mu == 4 else logistic2_chart_coefficients
            du = [k * mp.mpf(c.numerator) / c.denominator
                  for k, c in enumerate(closed(n), start=1)]
            log_lambda = mp.log(mu)
        u = [mp.mpf(0)] + [du[k - 1] / k for k in range(1, n)]
        q = []
        for k in range(n):
            q.append((u[k] - mp.fsum(q[i] * du[k - i] for i in range(k))) / du[0])
        return np.array([complex(log_lambda * c) for c in q])


@pytest.mark.parametrize("dim", [20, 40, 80, 160])
@pytest.mark.parametrize("mu, guess, x_star", [(4.0, 0.1, 0), (4.0, 0.7, 0.75), (2.0, 0.1, 0)])
def test_matrix_log_is_the_derivation_matrix_of_the_exact_field(mu, guess, x_star, dim):
    # Row j of log M holds d(y^j)/dt = j y^(j-1) G(y); a higher order must
    # not lose digits on the leading half window.
    L = matrix_log(mf.pipeline(logistic_series(mu, dim), guess).factorization)
    G = _exact_field(mu, x_star, dim)
    exact = np.zeros((dim, dim), dtype=complex)
    for j in range(1, dim):
        exact[j, j - 1 :] = j * G[: dim - j + 1]
    w = leading_window(dim, 2, 1)
    assert scaled_deviation(L.entries[:w, :w], exact[:w, :w]) < 1e-11


def test_principal_branch_for_negative_multiplier():
    _, _, S = factor(4.0, 0.7, 12)
    assert abs(S.frame.multiplier + 2.0) < 1e-10
    assert abs(S.frame.log_multiplier - complex(math.log(2), math.pi)) < 1e-12


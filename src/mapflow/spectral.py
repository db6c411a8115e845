"""Spectral factorization of the fixed-point Carleman matrix, held as two series.

At a fixed point x* the embedding matrix M(g) of the shifted map
g(d) = f(x* + d) - x* is upper triangular with the multiplier powers
lambda^j on its diagonal.  When those are mutually distinct it is
diagonalized by an upper unitriangular matrix V, V M(g) V^-1 = diag(lambda^j).
V is itself a Carleman matrix: row 1 holds the coefficients of the
linearizing chart u (u o g = lambda u) and row j those of u^j; V^-1 is the
Carleman matrix of the inverse chart h.  The two series u and h therefore
carry the whole factorization, and they are all that
:class:`SpectralFactorization` stores.

:func:`factor_from_series` computes them without building a matrix:

* h from the Poincare equation h(lambda w) = g(h(w)), one coefficient at a
  time: h_k (lambda^k - lambda) = sum_{m>=2} g_m [h^m]_k, whose right side
  involves only h_1 .. h_{k-1};
* u by Lagrange inversion, k u_k = [w^(k-1)] (w / h(w))^k.

Neither step sums large terms of alternating sign, so both series keep
their relative precision at high order, and each takes O(n) numpy calls.
The mode rows h_k u^k and the field row Log(lambda) sum_k k h_k u^k
(:func:`log_row`) follow from the same two series.

:func:`diagonalize` is the paper's construction: it factors a given
triangular matrix by an entrywise O(n^3) recursion.  :func:`fractional_power`
and :func:`matrix_log` form the n x n matrices V^-1 diag V of a
factorization.  No CLI path runs them; the ``paper-matrix`` verify check
does, at order 40, and compares them with the series core.  That check is
why they stay.  Cancellation in the forward recursion of ``diagonalize``
spoils the chart from order ~80 on.

Everything here lives in the fixed-point frame: the powers and the logarithm
are matrices of g's iterates and of g's generator, and their row-1 series
are expanded about x*, which is where the iterate and flow modules evaluate
them; no matrix is ever conjugated back to the coordinates of f.

Branch convention: all non-integer powers use the principal logarithm of the
multiplier, arg in (-pi, pi], applied as lambda^{j t} = exp(j t Log lambda).
This keeps the diagonal a one-parameter semigroup in t (and makes a negative
multiplier produce genuinely complex non-integer iterates).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .carleman import CarlemanMatrix
from .errors import ResonantEigenvalues, ShiftInconsistent, Superattracting
from .series import (
    FixedPointFrame,
    PowerSeries,
    TOL_RES,
    _trunc_div,
    compose,
    convolution_powers,
)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SpectralFactorization:
    """Unitriangular diagonalization of the shifted map's embedding matrix.

    ``chart_row`` holds the coefficients of the linearizing chart u and
    ``inverse_row`` those of its inverse h, both about 0 in the shifted frame
    (zero constant term, unit linear term).  They are row 1 of the factor
    ``chart_matrix`` and of its inverse ``chart_matrix_inv``, which satisfy
    chart_matrix @ M(g) @ chart_matrix_inv = diag(multiplier^j).  The rows
    of both factors are convolution powers of the two rows, formed on first
    use (:func:`diagonalize` supplies its recursion's factors instead).
    ``log_multiplier`` is the principal logarithm of the multiplier used for
    every non-integer power.
    """

    multiplier: complex
    chart_row: np.ndarray
    inverse_row: np.ndarray
    x_star: complex
    log_multiplier: complex

    def __post_init__(self):
        for name in ("chart_row", "inverse_row"):
            object.__setattr__(
                self, name, _read_only(np.array(getattr(self, name), dtype=complex))
            )

    @property
    def dim(self) -> int:
        return len(self.chart_row)

    @cached_property
    def chart_matrix(self) -> np.ndarray:
        """The forward factor: row j holds the coefficients of u^j."""
        return _read_only(convolution_powers(self.chart_row))

    @cached_property
    def chart_matrix_inv(self) -> np.ndarray:
        """The inverse factor: row j holds the coefficients of h^j."""
        return _read_only(convolution_powers(self.inverse_row))


def _diagonal(lam: complex, n: int, tol_res: float) -> np.ndarray:
    """The powers lambda^j for j < n, once the multiplier is checked.

    Raises :class:`Superattracting` when it is numerically zero and
    :class:`ResonantEigenvalues`, with the first colliding index pair in
    row-major order, when two of the powers are indistinguishable.
    """
    if abs(lam) <= tol_res:
        raise Superattracting(f"multiplier {lam!r} is numerically zero")
    powers = lam ** np.arange(n)
    # All pairs j < k at once; hypot on the parts is the scalar abs().
    diff = powers[:, np.newaxis] - powers[np.newaxis, :]
    gap = np.hypot(diff.real, diff.imag)
    size = np.hypot(powers.real, powers.imag)
    scale = np.maximum(size[:, np.newaxis], size[np.newaxis, :])
    close = np.triu(gap < tol_res * scale, k=1)
    if close.any():
        j, k = (int(i) for i in np.argwhere(close)[0])
        raise ResonantEigenvalues(
            f"eigenvalues lambda^{j} and lambda^{k} are "
            f"indistinguishable (gap {gap[j, k]:.3e})",
            pair=(j, k),
        )
    return powers


def _inverse_chart_row(g: PowerSeries, powers: np.ndarray) -> np.ndarray:
    """h with h(lambda w) = g(h(w)), h_0 = 0 and h_1 = 1, to len(powers) terms.

    Row m of ``hp`` holds h^m for m = 1 .. deg g.  Its entry k involves only
    h_1 .. h_{k-1}, so one product per k fills column k of every power, and
    the number of numpy calls does not grow with the degree of g.
    """
    n = len(powers)
    deg = min(g.degree(), n - 1)
    gm = g.coeffs_array[2 : deg + 1]
    hp = np.zeros((deg + 1, n), dtype=complex)
    h = hp[1]
    h[1] = 1.0
    for k in range(2, n):
        hp[2:, k] = hp[1:-1, 1:k] @ h[k - 1 : 0 : -1]
        h[k] = (gm @ hp[2:, k]) / (powers[k] - powers[1])
    return h.copy()


def _chart_row(h: np.ndarray) -> np.ndarray:
    """u = h^-1 by Lagrange inversion: k u_k = [w^(k-1)] (w / h(w))^k."""
    n = len(h)
    one = np.zeros(n - 1, dtype=complex)
    one[0] = 1.0
    phi = _trunc_div(one, h[1:])  # w / h(w)
    u = np.zeros(n, dtype=complex)
    power = phi
    for k in range(1, n):
        u[k] = power[k - 1] / k
        power = np.convolve(power, phi)[: n - 1]
    return u


def factor_from_series(
    frame: FixedPointFrame, dim: int, tol_res: float = TOL_RES
) -> SpectralFactorization:
    """Factorization of the shifted map's dim x dim embedding matrix.

    Computes the inverse chart h by the Poincare recursion and the chart u by
    Lagrange inversion (see the module notes); no matrix is built.  Raises
    :class:`Superattracting` and :class:`ResonantEigenvalues` exactly where
    :func:`diagonalize` does.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    lam = complex(frame.multiplier)
    h = _inverse_chart_row(frame.shifted_map, _diagonal(lam, dim, tol_res))
    return SpectralFactorization(
        multiplier=lam,
        chart_row=_chart_row(h),
        inverse_row=h,
        x_star=complex(frame.x_star),
        log_multiplier=cmath.log(lam),
    )


def diagonalize(
    Mg: CarlemanMatrix, frame: FixedPointFrame, tol_res: float = TOL_RES
) -> SpectralFactorization:
    """Factor an upper-triangular embedding matrix by the entrywise recursion.

    Preconditions checked: ``Mg`` upper triangular, its (1,1) entry matches
    the frame multiplier, the multiplier is not numerically zero
    (:class:`Superattracting`) and no two diagonal powers collide
    (:class:`ResonantEigenvalues` with the offending index pair).

    The two unitriangular factors are filled column by column:
    entry (j, k) of the forward factor is
    (lambda^j - lambda^k)^{-1} * sum_{l=j}^{k-1} V[j,l] Mg[l,k],
    and of the inverse factor
    (lambda^k - lambda^j)^{-1} * sum_{l=j+1}^{k} W[l,k] Mg[j,l]
    (the mirrored denominator is what makes W the exact inverse of V).
    The result keeps both factors as computed: the convolution powers of
    their row 1 agree with them only to rounding amplified by the order,
    while the recursion's own factors diagonalize ``Mg`` to its precision.
    """
    n = Mg.dim
    entries = Mg.entries
    scale = max(1.0, float(np.abs(entries).max()))
    sub = float(np.abs(np.tril(entries, -1)).max())
    if sub > 1e-12 * scale:
        raise ShiftInconsistent(
            f"matrix is not upper triangular (sub-diagonal {sub:.3e}); "
            "shift to the fixed point first"
        )
    lam = complex(frame.multiplier)
    if abs(entries[1, 1] - lam) > 1e-9 * max(1.0, abs(lam)):
        raise ShiftInconsistent(
            f"frame multiplier {lam!r} disagrees with matrix diagonal "
            f"{entries[1, 1]!r}"
        )
    powers = _diagonal(lam, n, tol_res)
    V = np.eye(n, dtype=complex)
    for k in range(1, n):
        for j in range(k - 1, -1, -1):
            acc = V[j, j:k] @ entries[j:k, k]
            V[j, k] = acc / (powers[j] - powers[k])
    # Inverse factor from M W = W Lambda; note the denominator is
    # (lambda^k - lambda^j), the mirror of the forward recursion's.
    W = np.eye(n, dtype=complex)
    for k in range(1, n):
        for j in range(k - 1, -1, -1):
            acc = entries[j, j + 1 : k + 1] @ W[j + 1 : k + 1, k]
            W[j, k] = acc / (powers[k] - powers[j])
    S = SpectralFactorization(
        multiplier=lam,
        chart_row=V[1],
        inverse_row=W[1],
        x_star=complex(frame.x_star),
        log_multiplier=cmath.log(lam),
    )
    # Seed the factors' caches with the recursion's matrices.
    vars(S).update(chart_matrix=_read_only(V), chart_matrix_inv=_read_only(W))
    return S


def _function_of_core(S: SpectralFactorization, diag: np.ndarray) -> CarlemanMatrix:
    """V^-1 diag V, a function of the shifted map's matrix; row 1 about x*."""
    core = (S.chart_matrix_inv * diag[np.newaxis, :]) @ S.chart_matrix
    return CarlemanMatrix(
        entries=core, source_map=PowerSeries.from_coefficients(core[1], S.x_star)
    )


def fractional_power(S: SpectralFactorization, t: float) -> CarlemanMatrix:
    """The real power M(g)^t of the factored matrix of the shifted map g.

    The diagonal is raised entrywise as exp(j * t * Log multiplier) on the
    principal branch, so powers form a semigroup in t and integer t
    reproduces integer matrix powers on the leading window.  Row 1 of the
    result holds the coefficients of g^t, so as a series about x* it is
    f^t(x) - x*.
    """
    j = np.arange(S.dim)
    return _function_of_core(S, np.exp(j * (t * S.log_multiplier)))


def matrix_log(S: SpectralFactorization) -> CarlemanMatrix:
    """Principal logarithm V^-1 diag(j Log lambda) V of the shifted map's matrix.

    Row 1, as a series about x*, holds the coefficients of the
    continuous-time vector field generating the iteration; the flow module
    consumes it.
    """
    return _function_of_core(S, np.arange(S.dim) * S.log_multiplier)


def log_row(S: SpectralFactorization) -> PowerSeries:
    """Row 1 of the logarithm, Log(lambda) * sum_k k h_k u^k, about x*.

    These are the coefficients of the flow field, the same row as that of
    :func:`matrix_log`, summed by Horner's rule as the composition
    (Log(lambda) w h'(w)) o u, with no matrix.
    """
    outer = PowerSeries.from_coefficients(
        S.inverse_row * (np.arange(S.dim) * S.log_multiplier)
    )
    return compose(outer, PowerSeries.from_coefficients(S.chart_row, S.x_star))

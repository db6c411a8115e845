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
their relative precision at high order.  The recursion for h is one small
matrix product per coefficient: n numpy calls and O(n^2 deg g) arithmetic.
Lagrange inversion needs the coefficients of n powers of w / h(w); forming
each power would take n convolutions, O(n^3) arithmetic.  Instead the
powers are split into sqrt(n) baby and sqrt(n) giant steps (Brent and Kung,
1978), about 2 sqrt(n) convolutions and O(n^2.5) arithmetic.  The field
row Log(lambda) sum_k k h_k u^k (:func:`log_row`, summed the same way by
Paterson and Stockmeyer, 1973) and row 1 of the power M^t,
h diag(lambda^(jt)) V (:func:`iterate_rows`, one product with the forward
factor for a list of times), follow from the same two series; the mode
route of :mod:`mapflow.iterate` and :func:`fractional_power` both take
their row from :func:`iterate_rows`.

:func:`diagonalize` is the paper's construction: it factors a given
triangular matrix by an entrywise O(n^3) recursion, and the paper's
matrices are V^-1 diag V of its factors.  Here they are built from their
row-1 series instead, as every Carleman matrix is (Kowalski and Steeb,
1991).  :func:`matrix_log` is the derivation matrix of the field G: row j
holds the coefficients of d(y^j)/dt = j y^(j-1) G(y).
:func:`fractional_power` is the embedding matrix of the iterate, row j the
j-th power of its row 1, sum_k lambda^(kt) h_k u^k.  Neither forms more
than that one row from the factors, so no function here multiplies two
n x n arrays.  No CLI path runs these three; the
``paper-matrix`` verify check forms V^-1 diag V from the factors of
``diagonalize`` at order 40 and holds the series core's matrices to it.
That check is why they stay.  Cancellation in the forward recursion of
``diagonalize`` spoils the chart from order ~80 on.

Everything here lives in the fixed-point frame: the powers and the logarithm
are matrices of g's iterates and of g's generator, and their row-1 series
are expanded about x*, which is where the iterate and flow modules evaluate
them; no matrix is ever conjugated back to the coordinates of f.  Every
non-integer power takes Log lambda from the frame
(:attr:`mapflow.series.FixedPointFrame.log_multiplier`, principal branch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .carleman import CarlemanMatrix, build_matrix
from .errors import ResonantEigenvalues, ShiftInconsistent, Superattracting
from .series import (
    FixedPointFrame,
    PowerSeries,
    TOL_RES,
    _read_only,
    _refuse_non_finite,
    _trunc_div,
    convolution_powers,
)


@dataclass(frozen=True, eq=False)
class SpectralFactorization:
    """Unitriangular diagonalization of the shifted map's embedding matrix.

    ``frame`` is the fixed point it was built at; x*, the multiplier lambda
    and Log lambda are read from it.  ``chart_row`` holds the coefficients
    of the linearizing chart u and ``inverse_row`` those of its inverse h,
    both about 0 in the shifted frame (zero constant term, unit linear
    term).  They are row 1 of the factor ``chart_matrix`` and of its inverse
    ``chart_matrix_inv``, which satisfy
    chart_matrix @ M(g) @ chart_matrix_inv = diag(lambda^j).  The rows of
    both factors are convolution powers of the two rows, formed on first
    use (:func:`diagonalize` supplies its recursion's factors instead).
    """

    frame: FixedPointFrame
    chart_row: np.ndarray
    inverse_row: np.ndarray

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


def _diagonal(lam: complex, n: int) -> np.ndarray:
    """The powers lambda^j for j < n, once the multiplier is checked.

    Raises :class:`Superattracting` when |lambda| <= TOL_RES and
    :class:`ResonantEigenvalues`, with the first colliding index pair in
    row-major order, when two of the powers are indistinguishable (relative
    gap below TOL_RES).  The
    relative gap |lambda^j - lambda^k| / max(|lambda^j|, |lambda^k|) equals
    |1 - lambda^d| / max(1, |lambda|^d) with d = k - j, so the pairs (0, d)
    decide, and the first colliding pair is (0, d) with the least such d.
    """
    if abs(lam) <= TOL_RES:
        raise Superattracting(f"multiplier {lam!r} is numerically zero")
    powers = lam ** np.arange(n)
    # hypot on the parts is the scalar abs().
    diff = 1.0 - powers[1:]
    gap = np.hypot(diff.real, diff.imag)
    size = np.hypot(powers.real[1:], powers.imag[1:])
    close = np.flatnonzero(gap < TOL_RES * np.maximum(1.0, size))
    if close.size:
        d = int(close[0]) + 1
        raise ResonantEigenvalues(
            f"eigenvalues lambda^0 and lambda^{d} are "
            f"indistinguishable (gap {gap[d - 1]:.3e})",
            pair=(0, d),
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
    gm = g.coeffs[2 : deg + 1]
    hp = np.zeros((deg + 1, n), dtype=complex)
    h = hp[1]
    h[1] = 1.0
    for k in range(2, n):
        hp[2:, k] = hp[1:-1, 1:k] @ h[k - 1 : 0 : -1]
        h[k] = (gm @ hp[2:, k]) / (powers[k] - powers[1])
    return h.copy()


def _chart_row(h: np.ndarray) -> np.ndarray:
    """u = h^-1 by Lagrange inversion: k u_k = [w^(k-1)] (w / h(w))^k.

    The powers of phi = w / h(w) are split as phi^(qm + r) with
    m = isqrt(n) and r < m (Brent and Kung, 1978): the baby powers phi^r and
    the giant powers phi^(qm) take about 2 sqrt(n) convolutions, and
    [w^(k-1)] phi^(qm + r) is the dot product of giant row q with baby row r
    reversed, so one matrix-vector product per q gives m coefficients.
    """
    n = len(h)
    N = n - 1
    one = np.zeros(N, dtype=complex)
    one[0] = 1.0
    phi = _trunc_div(one, h[1:])  # w / h(w)
    m = math.isqrt(n)
    baby = convolution_powers(phi, m + 1)
    # Row r holds baby row r reversed and moved right by r, so that the
    # window starting at N - qm pairs giant entry i with [phi^r]_(qm+r-1-i);
    # the zeros on both sides stand for the entries outside 0 .. N - 1.
    reversed_baby = np.zeros((m, 2 * N), dtype=complex)
    for r in range(m):
        reversed_baby[r, r : r + N] = baby[r, ::-1]
    u = np.zeros((N // m + 1) * m, dtype=complex)
    giant = one
    for q in range(N // m + 1):
        if q:
            giant = np.convolve(giant, baby[m])[:N]
        start = N - q * m
        u[q * m : (q + 1) * m] = reversed_baby[:, start : start + N] @ giant
    u = u[:n]
    u[1:] /= np.arange(1, n)
    return u


def factor_from_series(frame: FixedPointFrame) -> SpectralFactorization:
    """Factorization of the shifted map's embedding matrix, of dimension the
    shifted map's truncation order.

    Computes the inverse chart h by the Poincare recursion and the chart u by
    Lagrange inversion (see the module notes); no matrix is built.  Raises
    :class:`Superattracting` and :class:`ResonantEigenvalues` exactly where
    :func:`diagonalize` does, at the fixed resonance tolerance TOL_RES.

    At a high enough order lambda^k or the coefficients of u leave the float
    range, and inf or nan spreads through the rows; a map of such an order
    raises ``ValueError`` naming the first coefficient that is not finite.
    """
    dim = frame.shifted_map.order
    if dim < 2:
        raise ValueError("dim must be at least 2")
    # A row that overflows is refused below; numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        h = _inverse_chart_row(frame.shifted_map, _diagonal(complex(frame.multiplier), dim))
        u = _chart_row(h)
    # u is summed from 1/h, so it is finite only where h is.
    _refuse_non_finite(u, "chart")
    return SpectralFactorization(frame=frame, chart_row=u, inverse_row=h)


def diagonalize(Mg: CarlemanMatrix, frame: FixedPointFrame) -> SpectralFactorization:
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
    powers = _diagonal(lam, n)
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
    S = SpectralFactorization(frame=frame, chart_row=V[1], inverse_row=W[1])
    # Seed the factors' caches with the recursion's matrices.
    vars(S).update(chart_matrix=_read_only(V), chart_matrix_inv=_read_only(W))
    return S


def _sum_of_chart_powers(S: SpectralFactorization, coeffs: np.ndarray) -> PowerSeries:
    """The series sum_k c_k u^k about x*, for ``coeffs`` c_0 .. c_(n-1).

    The sum is the composition (sum_k c_k w^k) o u by Paterson and Stockmeyer
    (1973): with m = isqrt(n), one matrix product of the coefficients, in
    blocks of m, with the baby powers u^0 .. u^(m-1) forms every block
    polynomial, and Horner's rule in u^m combines them, about 2 sqrt(n)
    convolutions in all.
    """
    n = S.dim
    m = math.isqrt(n)
    blocks = -(-n // m)
    padded = np.concatenate([coeffs, np.zeros(blocks * m - n)])
    baby = convolution_powers(S.chart_row, m + 1)
    # A sum that overflows leaves non-finite coefficients, which build_field
    # refuses in a field row; numpy's warnings about it would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        parts = padded.reshape(blocks, m) @ baby[:m]
        acc = parts[-1]
        for part in parts[-2::-1]:
            acc = np.convolve(acc, baby[m])[:n] + part
    return PowerSeries.from_coefficients(acc, S.frame.x_star)


def log_row(S: SpectralFactorization) -> PowerSeries:
    """Row 1 of the logarithm, Log(lambda) * sum_k k h_k u^k, about x*.

    These are the coefficients of the flow field G, the t-derivative of
    f^t = h(lambda^t u) at t = 0: G = Log(lambda) u h'(u).  They fix the
    whole logarithm (:func:`matrix_log`).  No matrix is formed; the sum is
    the composition of :func:`_sum_of_chart_powers`.
    """
    return _sum_of_chart_powers(S, S.inverse_row * (np.arange(S.dim) * S.frame.log_multiplier))


def matrix_log(S: SpectralFactorization) -> CarlemanMatrix:
    """Principal logarithm L of the shifted map's matrix: the derivation of G.

    Row j holds the coefficients of d(y^j)/dt = j y^(j-1) G(y), with G the
    field :func:`log_row`, so L_jk = j G_(k-j+1) and row 1 is G itself, the
    ``source_map`` as a series about x*.  Row 0 is zero.
    """
    G = log_row(S)
    entries = np.zeros((S.dim, S.dim), dtype=complex)
    for j in range(1, S.dim):
        entries[j, j - 1 :] = j * G.coeffs[: S.dim - j + 1]
    return CarlemanMatrix(entries=entries, source_map=G)


def iterate_rows(S: SpectralFactorization, ts) -> np.ndarray:
    """Row 1 of the real power M(g)^t for every t in ``ts``, one row per t.

    Row 1 of M^t = V^-1 diag(lambda^(jt)) V is h diag(lambda^(jt)) V: the
    coefficients of f^t(x) - x* = sum_k lambda^(kt) h_k u^k about x*, with
    lambda^(kt) = exp(k t Log lambda) on the principal branch.  All the
    rows are one product of the weighted inverse rows with the forward
    factor V, ``chart_matrix``, whose row k holds u^k.
    """
    weights = np.exp(np.outer(ts, np.arange(S.dim)) * S.frame.log_multiplier)
    return (weights * S.inverse_row) @ S.chart_matrix


def fractional_power(S: SpectralFactorization, t: float) -> CarlemanMatrix:
    """The real power M(g)^t: the Carleman matrix of the iterate g^t.

    Its row-1 series about x* is f^t(x) - x*, :func:`iterate_rows` at t, so
    powers form a semigroup in t and integer t reproduces integer matrix
    powers on the leading window.  Row j is the j-th power of that series,
    as for every embedding matrix (:func:`mapflow.carleman.build_matrix`).
    """
    row = PowerSeries.from_coefficients(iterate_rows(S, [t])[0], S.frame.x_star)
    return build_matrix(row, S.dim)

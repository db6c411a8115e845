"""Spectral factorization of triangular Carleman matrices.

An upper-triangular embedding matrix (the matrix of a map fixing 0) has the
multiplier powers lambda^j on its diagonal.  When those are mutually distinct
it is diagonalized by an upper unitriangular matrix computed entry by entry
from a short recursion; the factorization then gives arbitrary real powers
and the logarithm by acting on the diagonal alone.

Everything here lives in the fixed-point frame: the factored matrix is that
of the shifted map g(d) = f(x* + d) - x*, and the powers and the logarithm
are matrices of g's iterates and of g's generator.  Their row-1 series are
expanded about x*, which is where the iterate and flow modules evaluate
them; no matrix is ever conjugated back to the coordinates of f.

The unitriangular factor is itself a Carleman matrix: its row 1 holds the
coefficients of the linearizing chart and row j is the j-fold convolution of
row 1.  That observation is what connects the matrix picture to the
functional (chart) picture used by the iterate module.

Branch convention: all non-integer powers use the principal logarithm of the
multiplier, arg in (-pi, pi], applied as lambda^{j t} = exp(j t Log lambda).
This keeps the diagonal a one-parameter semigroup in t (and makes a negative
multiplier produce genuinely complex non-integer iterates).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .carleman import CarlemanMatrix
from .errors import ResonantEigenvalues, ShiftInconsistent, Superattracting
from .series import FixedPointFrame, PowerSeries, TOL_RES


@dataclass(frozen=True, eq=False)
class SpectralFactorization:
    """Unitriangular diagonalization of a triangular embedding matrix.

    ``chart_matrix`` (upper unitriangular) and ``chart_matrix_inv`` satisfy
    chart_matrix @ M(g) @ chart_matrix_inv = diag(multiplier^j), where g is
    the map shifted to the fixed point ``x_star``.  ``log_multiplier`` is the
    principal logarithm of the multiplier used for every non-integer power.
    """

    multiplier: complex
    chart_matrix: np.ndarray
    chart_matrix_inv: np.ndarray
    x_star: complex
    log_multiplier: complex

    def __post_init__(self):
        for name in ("chart_matrix", "chart_matrix_inv"):
            a = np.asarray(getattr(self, name), dtype=complex)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return self.chart_matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """The diagonal: multiplier^j for j = 0 .. dim-1."""
        return self.multiplier ** np.arange(self.dim)


def diagonalize(
    Mg: CarlemanMatrix, frame: FixedPointFrame, tol_res: float = TOL_RES
) -> SpectralFactorization:
    """Factor an upper-triangular embedding matrix.

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
    return SpectralFactorization(
        multiplier=lam,
        chart_matrix=V,
        chart_matrix_inv=W,
        x_star=complex(frame.x_star),
        log_multiplier=cmath.log(lam),
    )


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


def left_eigenrow(S: SpectralFactorization) -> np.ndarray:
    """Row 1 of the unitriangular factor: the multiplier's left eigenvector.

    Its entries are the Taylor coefficients of the linearizing chart, and its
    convolution powers rebuild the deeper rows of the factor.
    """
    return S.chart_matrix[1].copy()

"""Truncated power series over complex coefficients.

A :class:`PowerSeries` stores the first ``order`` Taylor coefficients of an
analytic function about a ``base_point``::

    f(x) = c[0] + c[1]*(x - b) + c[2]*(x - b)**2 + ... + c[order-1]*(x - b)**(order-1)

All coefficients are complex throughout, even for real maps: a negative
multiplier at a fixed point forces complex non-integer powers, so the whole
pipeline works over C.  Values are immutable after construction and all
operations are pure functions of their inputs.  ``coeffs`` is a read-only
complex ``ndarray``, copied from the caller's coefficients once at
construction, and the only form of them, with no tuple or second array
accessor beside it: slice it for numpy, or ``.tolist()`` it for a scalar
loop in Python complex arithmetic.  The array helpers here
(:func:`horner`, :func:`trailing_term` and :func:`tail_radius`) serve every
module.

Composition with an inner series whose constant term sits exactly on the
outer base point is exact to the truncation order; otherwise the result is
the recentered truncated polynomial, which is exact only when the outer
series is a genuine polynomial that fits the window (a warning is emitted
when it is not).

The module also locates fixed points of a map by Newton iteration and builds
the shifted map ``g(x) = f(x + x*) - x*`` whose embedding matrix is upper
triangular.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FixedPointNotFound, RestrictiveConditionViolated, Superattracting

# Fixed-point residual tolerance and Newton iteration cap.
TOL_FIX = 1e-12
MAX_NEWTON_ITER = 64

# Resonance guard: reject multipliers within this relative distance of a
# root of unity of order up to ROOT_OF_UNITY_MAX (covers truncation orders
# up to the desk-scale maximum).
TOL_RES = 1e-8
ROOT_OF_UNITY_MAX = 64


class ApproximateCompositionWarning(UserWarning):
    """Composition result is a truncated approximation, not exact."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    """Horner's rule in Python complex arithmetic on a list of coefficients,
    for scalar calls (a series' value, Newton, RK4), where numpy scalars
    would be slower."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def horner(coeffs: np.ndarray, z) -> np.ndarray:
    """Horner's rule on a complex array.  Axis 0 of ``coeffs`` runs over the
    powers; ``coeffs[m]`` broadcasts against ``z``.  An overflow gives inf or
    nan without a warning, as Python complex arithmetic does."""
    acc = np.zeros(np.broadcast_shapes(coeffs.shape[1:], np.shape(z)), dtype=complex)
    with np.errstate(all="ignore"):
        for c in coeffs[::-1]:
            acc = acc * z + c
    return acc


def _trunc_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two coefficient arrays, truncated to len(a) terms."""
    return np.convolve(a, b)[: len(a)]


def convolution_powers(row: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Array whose row j holds s^j truncated to len(row) terms, for j < ``rows``.

    ``row`` holds the coefficients of the series s.  The default of len(row)
    rows gives the square array of a Carleman matrix.  Row j costs one
    convolution with s.
    """
    n = len(row)
    rows = n if rows is None else rows
    powers = np.zeros((rows, n), dtype=complex)
    powers[0, 0] = 1.0
    for j in range(1, rows):
        powers[j] = np.convolve(powers[j - 1], row)[:n]
    return powers


def _trunc_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Coefficientwise solution q of den*q = num; den must have den[0] != 0."""
    n = len(num)
    q = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = num[k]
        if k:
            acc = acc - np.dot(q[:k], den[k:0:-1])
        q[k] = acc / den[0]
    return q


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Truncated Taylor series; ``coeffs[k]`` multiplies ``(x - base_point)**k``."""

    coeffs: np.ndarray
    base_point: complex = 0j

    def __post_init__(self):
        cs = _read_only(np.array(self.coeffs, dtype=complex))
        if cs.ndim != 1 or not cs.size:
            raise ValueError("a power series needs a 1-D list of at least one coefficient")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "base_point", complex(self.base_point))

    @classmethod
    def from_coefficients(cls, coeffs, base_point=0j, order=None) -> "PowerSeries":
        """Build a series, zero-padding or truncating to ``order`` terms."""
        if order is None:
            return cls(coeffs, base_point)
        if order < 1:
            raise ValueError("order must be at least 1")
        given = np.asarray(coeffs, dtype=complex)[:order]
        cs = np.zeros(order, dtype=complex)
        cs[: len(given)] = given
        return cls(cs, base_point)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int) -> complex:
        return self.coeffs[k]

    def __call__(self, x) -> complex:
        return _horner(self.coeffs.tolist(), complex(x) - self.base_point)

    def degree(self) -> int:
        """Index of the last nonzero coefficient (0 for the zero series)."""
        nonzero = np.flatnonzero(self.coeffs)
        return int(nonzero[-1]) if nonzero.size else 0

    def truncated(self, order: int) -> "PowerSeries":
        return PowerSeries.from_coefficients(self.coeffs, self.base_point, order=order)

    def derivative(self) -> "PowerSeries":
        """The derivative, one term shorter (the series [0] for order 1)."""
        cs = np.arange(1, self.order) * self.coeffs[1:]
        return PowerSeries(cs if cs.size else [0j], self.base_point)


def compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """Coefficients of outer(inner(x)) about inner's base point.

    The result is truncated to the shorter operand.  Exact to the truncation
    order when ``inner``'s constant term equals ``outer``'s base point; with a
    nonzero offset the result is the recentered stored polynomial, which is
    exact only if outer's degree times inner's degree fits the window
    (otherwise an :class:`ApproximateCompositionWarning` is emitted).
    """
    n = min(outer.order, inner.order)
    w = inner.coeffs[:n].copy()
    w[0] = w[0] - outer.base_point
    if w[0] != 0:
        d_in = inner.truncated(n).degree()
        if outer.degree() * max(d_in, 1) > n - 1:
            warnings.warn(
                "inner constant term is off the outer base point and the "
                "window cannot hold the recentered polynomial: result is "
                "approximate",
                ApproximateCompositionWarning,
                stacklevel=2,
            )
    acc = np.zeros(n, dtype=complex)
    for c in outer.coeffs[n - 1 :: -1]:
        acc = _trunc_mul(acc, w)
        acc[0] += c
    return PowerSeries(acc, inner.base_point)


def _tail_window(coeffs: np.ndarray) -> tuple:
    """Magnitudes and indices of the nonzero stored terms at the top of a
    series, never below its midpoint, where its truncation shows."""
    start = max(1, len(coeffs) // 2, len(coeffs) - 5)
    a = np.abs(coeffs[start:])
    k = np.flatnonzero(a)
    return a[k], k + start


def tail_radius(coeffs: np.ndarray, tol: float = 1e-12) -> float:
    """Radius where the top stored coefficients still contribute at most ``tol``.

    A root-test style estimate of how far from the base point the truncated
    series can be trusted: the largest r with |a_k| r^k <= tol over the
    trailing stored coefficients.  The scan window is the top of the series
    (never below its midpoint), so structural zeros of short polynomials are
    not mistaken for a tail; a window of exact zeros means the stored
    function is a polynomial and the radius is infinite.  Heuristic by
    construction; evaluation sites should additionally be tail-checked.
    """
    a, k = _tail_window(coeffs)
    # In Python floats, which overflow to inf without a warning.
    return min(((tol / x) ** (1.0 / j) for x, j in zip(a.tolist(), k.tolist())), default=math.inf)


def evaluate_with_tail(series: PowerSeries, x) -> tuple:
    """Evaluate and estimate the size of the dropped tail at this argument.

    Returns ``(value, tail)`` where ``tail`` is the magnitude of the largest
    of the trailing stored terms (the truncation zone, see
    :func:`trailing_term`); a large value flags that the truncated series
    cannot be trusted at ``x``.  Trailing zeros mean the stored function is
    a polynomial there and the tail is exactly zero.
    """
    return series(x), float(trailing_term(series.coeffs, complex(x) - series.base_point))


def trailing_term(coeffs: np.ndarray, z) -> np.ndarray:
    """Magnitude of the largest trailing stored term ``coeffs[k] * z**k``, at
    every z of an array (a float for a scalar z).

    The trailing terms are those of the :func:`tail_radius` window.  A term
    too large for a float gives ``inf``, so the argument is refused rather
    than trusted.
    """
    a, k = _tail_window(coeffs)
    with np.errstate(over="ignore"):
        az = np.abs(np.asarray(z))
        if not a.size:
            return np.zeros(az.shape)[()]
        return (a * az[..., np.newaxis] ** k).max(axis=-1)


@dataclass(frozen=True)
class FixedPointFrame:
    """A fixed point x*, its multiplier f'(x*), and the shifted map.

    ``shifted_map`` is g(x) = f(x + x*) - x* expanded about 0, so g(0) = 0 and
    g'(0) equals the multiplier.  The constant term is set to exactly zero once
    the Newton residual is below tolerance, so the embedding matrix of g is
    exactly upper triangular.
    """

    x_star: complex
    multiplier: complex
    shifted_map: PowerSeries


def _check_multiplier(lam: complex) -> None:
    if abs(lam) <= TOL_RES:
        raise Superattracting(
            f"multiplier {lam!r} is indistinguishable from zero"
        )
    # Only multipliers near the unit circle can be near a root of unity.
    if abs(abs(lam) - 1.0) < 1e-6:
        power = 1.0 + 0j
        for n in range(1, ROOT_OF_UNITY_MAX + 1):
            power *= lam
            if abs(power - 1.0) <= TOL_RES * n:
                raise RestrictiveConditionViolated(
                    f"multiplier {lam!r} is indistinguishable from a root of "
                    f"unity (order {n})"
                )


def find_fixed_point(
    f: PowerSeries,
    guess,
    tol_fix: float = TOL_FIX,
    max_iter: int = MAX_NEWTON_ITER,
) -> FixedPointFrame:
    """Locate a fixed point of ``f`` by Newton iteration from ``guess``.

    Raises :class:`FixedPointNotFound` (carrying the last iterate) on
    non-convergence and :class:`RestrictiveConditionViolated` when the
    multiplier is numerically zero or a root of unity.
    """
    # Only the polynomial part of f is summed and composed: the zero-padded
    # tail adds nothing, and composing it would cost one convolution per
    # stored term.
    poly = f.truncated(f.degree() + 1)
    fprime = poly.derivative()
    x = complex(guess)
    residual = poly(x) - x
    converged = False
    for _ in range(max_iter):
        if abs(residual) <= tol_fix:
            converged = True
            break
        slope = fprime(x) - 1.0
        if slope == 0:
            raise FixedPointNotFound(
                f"Newton stalled at {x!r}: f'(x) - 1 vanished", last_iterate=x
            )
        x = x - residual / slope
        residual = poly(x) - x
    if converged:
        # Polish: a couple of extra steps push the residual to rounding level,
        # which keeps the multiplier (and every chart coefficient) clean.
        for _ in range(2):
            slope = fprime(x) - 1.0
            if slope == 0:
                break
            candidate = x - residual / slope
            cand_residual = poly(candidate) - candidate
            if abs(cand_residual) < abs(residual):
                x, residual = candidate, cand_residual
            else:
                break
    if abs(residual) > tol_fix:
        raise FixedPointNotFound(
            f"no fixed point within {max_iter} iterations from {guess!r}; "
            f"last iterate {x!r} has residual {abs(residual):.3e}",
            last_iterate=x,
        )
    shift = PowerSeries.from_coefficients([x, 1.0], 0j, order=f.order)
    g = compose(poly, shift).truncated(f.order).coeffs.copy()
    g[0] -= x
    if abs(g[0]) > tol_fix:
        raise FixedPointNotFound(
            f"shifted map has residual {abs(g[0]):.3e} at 0", last_iterate=x
        )
    g[0] = 0j
    lam = complex(g[1])
    _check_multiplier(lam)
    return FixedPointFrame(x_star=x, multiplier=lam, shifted_map=PowerSeries(g, 0j))

"""Exactly solvable logistic-map references.

The logistic family x -> mu * x * (1 - x) supplies the verification anchors
for the whole package: at mu = 4 the map is conjugate to angle doubling and
every quantity the pipeline computes (continuous iterates from both fixed
points, the linearizing charts, the vector field, the Lyapunov exponent) has
a closed form; at mu = 2 the substitution 1 - 2x squares exactly, giving a
second independent family.  Everything here is written directly from those
closed forms and never touches the matrix machinery, so these functions can
serve as oracles for it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .series import PowerSeries

LN2 = math.log(2.0)


def logistic_series(mu, order: int) -> PowerSeries:
    """Coefficient form of x -> mu x (1 - x): [0, mu, -mu], zero padded."""
    mu = complex(mu)
    return PowerSeries.from_coefficients([0.0, mu, -mu], 0j, order=max(order, 3))


def logistic4_iterate(t: float, x) -> complex:
    """Continuous iterate from the fixed point 0 of the mu=4 map.

    f^t(x) = (1 - cos(2^t * arccos(1 - 2x))) / 2, real for x in [0, 1].
    """
    theta = cmath.acos(1.0 - 2.0 * complex(x))
    return 0.5 * (1.0 - cmath.cos(cmath.exp(t * LN2) * theta))


def logistic4_iterate_second(t: float, x) -> complex:
    """Continuous iterate from the second fixed point 3/4 of the mu=4 map.

    Uses (-2)^t on the principal branch, so the value is complex for
    non-integer t; at non-negative integers it coincides with
    :func:`logistic4_iterate`.
    """
    theta = cmath.acos(1.0 - 2.0 * complex(x))
    lam_t = cmath.exp(t * cmath.log(-2.0 + 0j))
    inner = lam_t * (theta - 2.0 * math.pi / 3.0) + 2.0 * math.pi / 3.0
    return 0.5 * (1.0 - cmath.cos(inner))


def logistic2_iterate(t: float, x) -> complex:
    """Continuous iterate of the mu=2 map: (1 - (1 - 2x)^(2^t)) / 2."""
    base = 1.0 - 2.0 * complex(x)
    return 0.5 * (1.0 - cmath.exp(cmath.exp(t * LN2) * cmath.log(base)))


def logistic4_field(x) -> complex:
    """Single-branch vector field of the mu=4 continuous iteration.

    (ln 2 / 2) * sin(arccos(1 - 2x)) * arccos(1 - 2x); equivalently
    2 ln 2 * sqrt(x (1 - x)) * arcsin(sqrt(x)).
    """
    theta = cmath.acos(1.0 - 2.0 * complex(x))
    return 0.5 * LN2 * cmath.sin(theta) * theta


def logistic2_field(x) -> complex:
    """Vector field of the mu=2 continuous iteration:
    -(ln 2 / 2) * (1 - 2x) * ln(1 - 2x)."""
    base = 1.0 - 2.0 * complex(x)
    return -0.5 * LN2 * base * cmath.log(base)


def logistic4_chart(x) -> complex:
    """Unit-derivative linearizing chart at 0 for mu=4:
    arccos(1 - 2x)^2 / 4 (= arcsin(sqrt(x))^2)."""
    theta = cmath.acos(1.0 - 2.0 * complex(x))
    return 0.25 * theta * theta


def logistic4_chart_second(x) -> complex:
    """Unit-derivative linearizing chart at 3/4 for mu=4:
    (sqrt(3)/2) * (arccos(1 - 2x)/2 - pi/3)."""
    theta = cmath.acos(1.0 - 2.0 * complex(x))
    return (math.sqrt(3.0) / 2.0) * (0.5 * theta - math.pi / 3.0)


def logistic2_chart(x) -> complex:
    """Unit-derivative linearizing chart at 0 for mu=2: -ln(1 - 2x)/2."""
    return -0.5 * cmath.log(1.0 - 2.0 * complex(x))


def logistic4_chart_coefficients(n: int) -> list:
    """Exact Taylor coefficients of the mu=4 chart at 0, degrees 1..n.

    arcsin(sqrt(x))^2 = sum_k 4^k x^k / (2 k^2 binom(2k, k)), returned as
    :class:`fractions.Fraction` values for oracle use.
    """
    return [
        Fraction(4**k, 2 * k * k * math.comb(2 * k, k)) for k in range(1, n + 1)
    ]


def logistic2_chart_coefficients(n: int) -> list:
    """Exact Taylor coefficients of the mu=2 chart at 0, degrees 1..n:
    2^(k-1) / k."""
    return [Fraction(2 ** (k - 1), k) for k in range(1, n + 1)]


def logistic4_matrix_entry(j: int, k: int) -> float:
    """Closed-form embedding-matrix entry of the mu=4 logistic map:
    (-1)^(k-j) * binom(j, k-j) * 4^j for 0 <= k-j <= j, else 0 (row 0 is
    the unit row)."""
    if j == 0:
        return 1.0 if k == 0 else 0.0
    m = k - j
    if m < 0 or m > j:
        return 0.0
    return float((-1) ** m * math.comb(j, m) * 4.0**j)

"""Reference values computed apart from the program under test.

Nothing here imports ``mapflow``.  Closed forms of the exactly solvable
logistic maps are evaluated with ``mpmath`` at 30 significant digits, so the
oracle's own rounding stays far below the double-precision values it judges.
Chart and field coefficients come from exact rational formulas where they
exist and from high-precision series recurrences otherwise.

The three logistic charts:

* ``l4_0``: x -> 4x(1-x) at the fixed point 0, multiplier 4;
* ``l4_34``: the same map at the fixed point 3/4, multiplier -2;
* ``l2_0``: x -> 2x(1-x) at the fixed point 0, multiplier 2.
"""

from __future__ import annotations

import math
import mpmath as mp

mp.mp.dps = 30

# (mu, fixed point) of each logistic chart.
CHARTS = {
    "l4_0": (4, 0.0),
    "l4_34": (4, 0.75),
    "l2_0": (2, 0.0),
}


def multiplier(name) -> float:
    mu, x_star = CHARTS[name]
    return mu * (1 - 2 * x_star)


def log_multiplier(name):
    """Principal logarithm of the multiplier, the branch the program uses."""
    return mp.log(mp.mpc(multiplier(name)))


def iterate(name, t, x) -> complex:
    """Closed-form continuous iterate f^t(x) on the principal branch."""
    t = mp.mpf(t)
    x = mp.mpc(x)
    if name == "l2_0":
        return complex((1 - mp.power(1 - 2 * x, mp.power(2, t))) / 2)
    theta = mp.acos(1 - 2 * x)
    if name == "l4_0":
        return complex((1 - mp.cos(mp.power(2, t) * theta)) / 2)
    lam_t = mp.exp(t * log_multiplier("l4_34"))
    third = 2 * mp.pi / 3
    return complex((1 - mp.cos(lam_t * (theta - third) + third)) / 2)


def _exact(num: int, den: int):
    """The rational num/den rounded once to the working precision."""
    return mp.mpf(num) / den


def chart_coefficients(name, n):
    """Taylor coefficients 0..n-1 of the unit-derivative chart u and of its
    inverse h, each expanded about its own base point (x* for u, 0 for h).

    Returned as two lists of ``mpmath`` numbers.
    """
    if name == "l4_0":
        # u = arcsin(sqrt x)^2, h = sin(sqrt w)^2.
        u = [mp.mpf(0)] + [
            _exact(4**k, 2 * k * k * math.comb(2 * k, k)) for k in range(1, n)
        ]
        h = [mp.mpf(0)] + [
            mp.mpf((-1) ** (k + 1) * 2 ** (2 * k - 1)) / mp.factorial(2 * k)
            for k in range(1, n)
        ]
    elif name == "l2_0":
        # u = -log(1 - 2x)/2, h = (1 - exp(-2w))/2.
        u = [mp.mpf(0)] + [_exact(2 ** (k - 1), k) for k in range(1, n)]
        h = [mp.mpf(0)] + [
            mp.mpf((-1) ** (k + 1) * 2 ** (k - 1)) / mp.factorial(k)
            for k in range(1, n)
        ]
    else:
        u = _chart_34(n)
        # h(w) = (1 - cos(2 pi/3 + a w))/2 with a = 4/sqrt(3).
        a = 4 / mp.sqrt(3)
        h = [mp.mpf(3) / 4] + [
            -(a**k) * mp.cos(2 * mp.pi / 3 + k * mp.pi / 2) / (2 * mp.factorial(k))
            for k in range(1, n)
        ]
    return u, h


def _chart_34(n):
    """u(x) = (sqrt 3/2)(arccos(1-2x)/2 - pi/3) about x = 3/4 + y.

    u' = (sqrt 3/4) P(y)^(-1/2) with P = x - x^2 = 3/16 - y/2 - y^2; the
    powers of P come from J. C. P. Miller's recurrence, run at 60 digits.
    """
    with mp.workdps(60):
        p = [mp.mpf(3) / 16, mp.mpf(-1) / 2, mp.mpf(-1)]
        alpha = mp.mpf(-1) / 2
        c = [p[0] ** alpha]
        for m in range(1, n):
            acc = mp.mpf(0)
            for k in (1, 2):
                if k <= m:
                    acc += (k * (alpha + 1) - m) * p[k] * c[m - k]
            c.append(acc / (m * p[0]))
        scale = mp.sqrt(3) / 4
        return [mp.mpf(0)] + [scale * c[k - 1] / k for k in range(1, n)]


def field_coefficients(name, n):
    """Taylor coefficients 0..n-1 of the flow field G = Log(lambda) u/u'."""
    with mp.workdps(60):
        u, _ = chart_coefficients(name, n + 1)
        du = [k * u[k] for k in range(1, n + 1)]
        # u/u' with u[0] = 0 and du[0] = 1: plain series division.
        q = []
        for k in range(n):
            acc = u[k] - mp.fsum(q[j] * du[k - j] for j in range(k))
            q.append(acc / du[0])
        log_lam = log_multiplier(name)
        return [log_lam * c for c in q]


def cubic_apply(coeffs, x, times: int) -> complex:
    """The polynomial map applied ``times`` times by hand, in mpmath."""
    z = mp.mpc(x)
    cs = [mp.mpc(c) for c in coeffs]
    for _ in range(times):
        acc = mp.mpc(0)
        for c in reversed(cs):
            acc = acc * z + c
        z = acc
    return complex(z)

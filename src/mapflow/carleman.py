"""Truncated Carleman embedding matrices of analytic one-dimensional maps.

The N x N embedding matrix of a map f collects the monomial coefficients of
its powers: entry (j, k) is the coefficient of x^k in f(x)^j, so row 0 is
(1, 0, ...), row 1 is the coefficient list of f, and row j is the j-fold
convolution of row 1.  Composition of maps becomes matrix multiplication,
which is what makes non-integer matrix powers a sensible definition of
non-integer map iteration.

Two independent constructions are provided: iterated coefficient convolution
and unit-circle quadrature (a DFT of f(e^{-i phi})^j, exact for polynomial
maps given enough nodes).  Their agreement is one of the package's
verification anchors.

Matrices are built from the coefficient list as stored, i.e. they represent
the map in the chart of its own expansion.  Triangular structure needs the
map shifted to a fixed point first; the pipeline builds that matrix directly
from the shifted map, and :func:`shift_conjugate` is the paper's conjugation
by the binomial matrices of x - x* and x + x*, kept as its check.  The
matrix CSV format is the ``matrix`` command's output.

A note on comparisons: entries grow like multiplier^j times binomials, so
meaningful agreement checks are scaled per row (see
:func:`scaled_deviation`); absolute comparisons at these magnitudes would
only measure double-precision representation noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ShiftInconsistent
from .series import FixedPointFrame, PowerSeries, convolution_powers

# Relative size of sub-diagonal residue tolerated after shift conjugation.
TOL_TRI = 1e-10


@dataclass(frozen=True, eq=False)
class CarlemanMatrix:
    """Dense complex embedding matrix plus the map it was built from.

    For the functions of a factorization (fractional powers, logarithms)
    ``source_map`` is the row-1 series about the fixed point.
    """

    entries: np.ndarray
    source_map: PowerSeries
    quadrature_nodes: int | None = None
    quadrature_exact: bool | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be a square matrix")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def build_matrix(f: PowerSeries, dim: int) -> CarlemanMatrix:
    """Embedding matrix by iterated truncated convolution of the map's row."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if f.order < 1:
        raise ValueError("map needs at least one coefficient")
    row1 = np.zeros(dim, dtype=complex)
    take = min(dim, f.order)
    row1[:take] = f.coeffs_array[:take]
    return CarlemanMatrix(entries=convolution_powers(row1), source_map=f)


def build_matrix_quadrature(
    f: PowerSeries, dim: int, nodes: int | None = None
) -> CarlemanMatrix:
    """Embedding matrix via unit-circle quadrature.

    Entry (j, k) is the trapezoid-rule approximation of
    (1/2 pi) * integral of e^{i k phi} f(e^{-i phi})^j d phi,
    evaluated as an inverse DFT of the sampled powers of f.  For a polynomial
    map of degree d the rule is exact (up to rounding) once
    nodes >= dim*d + dim + 1; below that bound the result carries
    ``quadrature_exact=False`` and a warning is emitted.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    deg = max(f.degree(), 1)
    if nodes is None:
        nodes = 4 * dim * deg
    bound = dim * deg + dim + 1
    exact = nodes >= bound
    if not exact:
        warnings.warn(
            f"{nodes} quadrature nodes is below the exactness bound {bound}; "
            "entries will be aliased",
            stacklevel=2,
        )
    phi = 2.0 * np.pi * np.arange(nodes) / nodes
    z = np.exp(-1j * phi)
    fz = np.zeros(nodes, dtype=complex)
    for c in f.coeffs[::-1]:
        fz = fz * z + c
    entries = np.zeros((dim, dim), dtype=complex)
    power = np.ones(nodes, dtype=complex)
    entries[0] = np.fft.ifft(power)[:dim]
    for j in range(1, dim):
        power = power * fz
        entries[j] = np.fft.ifft(power)[:dim]
    return CarlemanMatrix(
        entries=entries,
        source_map=f,
        quadrature_nodes=nodes,
        quadrature_exact=exact,
    )


def shift_conjugate(
    M: CarlemanMatrix, frame: FixedPointFrame, tol_tri: float = TOL_TRI
) -> CarlemanMatrix:
    """Conjugate to the fixed-point chart: the N x N window of T M T^{-1}.

    Row j of T M has support out to column 2j (for a quadratic map), so the
    window-sized product would truncate every row past N/2; the conjugation
    is therefore carried out at a doubled working size and the leading window
    returned, which makes the result exact up to rounding.

    The result is the embedding matrix of the shifted map and must be upper
    triangular; a sub-diagonal residue above ``tol_tri`` (relative to the
    matrix scale) means the frame and the matrix disagree and raises
    :class:`ShiftInconsistent`.  The verified rounding residue is zeroed so
    downstream triangular algorithms see exact structure.

    Conjugating in floating point still loses relative accuracy in the deep
    rows as the order grows (intermediate products dwarf the entries); for
    large orders build the shifted matrix directly from ``frame.shifted_map``.
    """
    n = M.dim
    big = 2 * n
    wide = build_matrix(M.source_map, big)
    x_star = complex(frame.x_star)
    to_fixed = build_matrix(PowerSeries.from_coefficients([-x_star, 1.0], order=2), big)
    back = build_matrix(PowerSeries.from_coefficients([x_star, 1.0], order=2), big)
    conj = (to_fixed.entries @ wide.entries @ back.entries)[:n, :n]
    scale = max(1.0, float(np.abs(conj).max()))
    sub = float(np.abs(np.tril(conj, -1)).max())
    if sub > tol_tri * scale:
        raise ShiftInconsistent(
            f"sub-diagonal residue {sub:.3e} exceeds {tol_tri:.1e} * scale; "
            "frame does not match the matrix"
        )
    entries = np.triu(conj)
    g = PowerSeries.from_coefficients(frame.shifted_map.coeffs, 0j, order=n)
    return CarlemanMatrix(entries=entries, source_map=g)


def verify_semigroup(
    f: PowerSeries, g: PowerSeries, dim: int, window: int | None = None
) -> float:
    """Max-abs deviation between M(f o g) and M(f) M(g) on a leading window.

    With a zero constant term in ``g`` both sides are exact in exact
    arithmetic (the right factor is upper triangular, so every truncated
    column sum is complete) and the deviation measures rounding only.  The
    optional ``window`` restricts the comparison to the leading block where
    entry magnitudes keep an absolute comparison meaningful.
    """
    composed = compose_pad(f, g, dim)
    lhs = build_matrix(composed, dim).entries
    rhs = build_matrix(f, dim).entries @ build_matrix(g, dim).entries
    w = dim if window is None else min(window, dim)
    return float(np.abs(lhs[:w, :w] - rhs[:w, :w]).max())


def compose_pad(f: PowerSeries, g: PowerSeries, order: int) -> PowerSeries:
    """Composition with both operands padded to ``order`` first."""
    from .series import compose

    fp = PowerSeries.from_coefficients(f.coeffs, f.base_point, order=order)
    gp = PowerSeries.from_coefficients(g.coeffs, g.base_point, order=order)
    return compose(fp, gp)


def leading_window(dim: int, degree: int, power: int) -> int:
    """Rows/columns of an N x N truncation unpolluted by the cut-off tail.

    Comparisons of integer matrix powers (or compositions) against direct
    constructions are trustworthy on the leading block of side
    dim // (power * degree) + 1; beyond it the discarded columns feed back
    into the entries.
    """
    d = max(1, degree)
    p = max(1, power)
    return min(dim, dim // (p * d) + 1)


def scaled_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Row-scaled agreement metric for embedding-matrix comparisons.

    Returns max over rows of (max-abs row difference) / max(1, row scale)
    where the row scale is the largest entry magnitude of either operand in
    that row.  Rows of these matrices span many orders of magnitude, so a
    single absolute or norm-relative number would either drown small rows or
    flag pure representation rounding of the large ones.  Accepts 1-D arrays
    (treated as a single row).
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = np.abs(a - b).max(axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1)))
    return float((diff / scale).max())


# --- matrix CSV interchange -------------------------------------------------

def _format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _parse_complex(text: str) -> complex:
    text = text.strip()
    if text.endswith("i"):
        text = text[:-1] + "j"
        return complex(text)
    return complex(text)


def write_matrix_csv(M: CarlemanMatrix, fh) -> None:
    """Dump row-major complex entries with a one-line header.

    Header: ``carleman dim=N map=<coeff list>`` with coefficients in the same
    re+imi cell format, lowest degree first.
    """
    coeffs = ",".join(_format_complex(c) for c in M.source_map.coeffs)
    fh.write(f"carleman dim={M.dim} map={coeffs}\n")
    for j in range(M.dim):
        fh.write(",".join(_format_complex(z) for z in M.entries[j]) + "\n")


def read_matrix_csv(fh) -> CarlemanMatrix:
    header = fh.readline().strip()
    if not header.startswith("carleman "):
        raise ValueError("not a carleman matrix dump")
    fields = dict(item.split("=", 1) for item in header.split(" ")[1:])
    dim = int(fields["dim"])
    coeffs = [_parse_complex(c) for c in fields["map"].split(",")]
    entries = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        parts = fh.readline().strip().split(",")
        entries[j] = [_parse_complex(p) for p in parts]
    return CarlemanMatrix(
        entries=entries,
        source_map=PowerSeries.from_coefficients(coeffs),
    )

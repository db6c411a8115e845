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
map shifted to a fixed point first, so the matrix of a fixed-point frame is
built from its shifted map.  The matrix CSV format is the ``matrix``
command's output; no command reads it back, but :func:`read_matrix_csv`
stays on purpose as the reader of that format.  Its ``re+imi`` cells
(:func:`format_complex`) also print x* and the multiplier in the headers of
the ``chart`` and ``field`` commands.  A quadrature matrix records only
whether its node count reached the exactness bound (``quadrature_exact``).

A note on comparisons: entries grow like multiplier^j times binomials, so
meaningful agreement checks are scaled per row (see
:func:`scaled_deviation`); absolute comparisons at these magnitudes would
only measure double-precision representation noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .series import PowerSeries, _read_only, _refuse_non_finite, convolution_powers, horner

# Why a matrix with entries that are not finite is refused.
_TOO_LARGE = "the powers of the map are too large for floats at this order"


@dataclass(frozen=True, eq=False)
class CarlemanMatrix:
    """Dense complex embedding matrix plus the map it was built from.

    For the functions of a factorization (fractional powers, logarithms)
    ``source_map`` is the row-1 series about the fixed point.  ``entries``
    is a read-only copy of the caller's array.
    """

    entries: np.ndarray
    source_map: PowerSeries
    quadrature_exact: bool | None = None

    def __post_init__(self):
        e = _read_only(np.array(self.entries, dtype=complex))
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be a square matrix")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def build_matrix(f: PowerSeries, dim: int) -> CarlemanMatrix:
    """Embedding matrix by iterated truncated convolution of the map's row.

    Entries that are not finite, from a map whose powers overflow, raise
    ``ValueError`` naming how many there are and the first.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    entries = convolution_powers(f.truncated(dim).coeffs)
    _refuse_non_finite(entries, "matrix", _TOO_LARGE)
    return CarlemanMatrix(entries=entries, source_map=f)


def build_matrix_quadrature(
    f: PowerSeries, dim: int, nodes: int | None = None
) -> CarlemanMatrix:
    """Embedding matrix via unit-circle quadrature.

    Entry (j, k) is the trapezoid-rule approximation of
    (1/2 pi) * integral of e^{i k phi} f(e^{-i phi})^j d phi,
    evaluated as an inverse DFT of the sampled powers of f.  For a polynomial
    map of degree d the rule is exact (up to rounding) once
    nodes >= dim*d + dim + 1; below that bound the result carries
    ``quadrature_exact=False`` and a warning is emitted.  Fewer than one
    node raises ``ValueError`` before that, and entries that are not finite,
    from samples of f^j that overflow, raise it after.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    deg = max(f.degree(), 1)
    if nodes is None:
        nodes = 4 * dim * deg
    if nodes < 1:
        raise ValueError(f"quadrature needs at least one node, got {nodes}")
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
    fz = horner(f.coeffs, z)
    entries = np.zeros((dim, dim), dtype=complex)
    power = np.ones(nodes, dtype=complex)
    # An overflow is refused below; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(dim):
            entries[j] = np.fft.ifft(power)[:dim]
            power = power * fz
    _refuse_non_finite(entries, "quadrature matrix", _TOO_LARGE)
    return CarlemanMatrix(entries=entries, source_map=f, quadrature_exact=exact)


def scaled_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Row-scaled agreement metric for embedding-matrix comparisons.

    Returns max over rows of (max-abs row difference) / max(1, row scale)
    where the row scale is the largest entry magnitude of either operand in
    that row.  Rows of these matrices span many orders of magnitude, so a
    single absolute or norm-relative number would either drown small rows or
    flag pure representation rounding of the large ones.  Accepts 1-D arrays
    (treated as a single row).
    """
    a, b = (np.atleast_2d(np.asarray(m, dtype=complex)) for m in (a, b))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = np.abs(a - b).max(axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1)))
    return float((diff / scale).max())


# --- matrix CSV interchange -------------------------------------------------

def format_complex(z: complex) -> str:
    """A complex number as one ``re+imi`` cell, each part to 17 digits."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _parse_complex(text: str) -> complex:
    text = text.strip()
    if text.endswith("i"):
        text = text[:-1] + "j"
    return complex(text)


def write_matrix_csv(M: CarlemanMatrix, fh) -> None:
    """Dump row-major complex entries with a one-line header.

    Header: ``carleman dim=N map=<coeff list>`` with coefficients in the same
    re+imi cell format, lowest degree first.
    """
    coeffs = ",".join(format_complex(c) for c in M.source_map.coeffs)
    fh.write(f"carleman dim={M.dim} map={coeffs}\n")
    for j in range(M.dim):
        fh.write(",".join(format_complex(z) for z in M.entries[j]) + "\n")


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

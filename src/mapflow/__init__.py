"""Continuous iterates and continuous-time flows of analytic 1-D maps.

The pipeline: expand a map as a truncated power series and shift it to a
fixed point, where its Carleman matrix (whose rows are the coefficient lists
of the map's powers) is upper triangular.  That matrix is diagonalized by a
unitriangular factor whose row 1 is the linearizing chart u and whose
inverse has row 1 the inverse chart h; the pipeline computes just these two
series, by the Poincare recursion and Lagrange inversion, and reads off, in
the fixed-point frame,

* non-integer iterates f^t (linearizing chart / spectral modes h_k u^k),
* the vector field G with df^t/dt = G(f^t) (row 1 of the matrix logarithm),

with everything cross-checked against exactly solvable logistic references.
:func:`pipeline` runs these steps for one map and fixed point; its
:class:`Pipeline` holds the factorization and the chart, which both routes
evaluate, and builds the field on first use.
"""

from .carleman import (
    CarlemanMatrix,
    build_matrix,
    build_matrix_quadrature,
    read_matrix_csv,
    scaled_deviation,
    write_matrix_csv,
)
from .errors import (
    BranchMismatch,
    ChartEscape,
    FixedPointNotFound,
    MapflowError,
    NonConvergent,
    OutOfChart,
    ResonantEigenvalues,
    RestrictiveConditionViolated,
    ShiftInconsistent,
    Superattracting,
)
from .flow import (
    FlowField,
    Pipeline,
    build_field,
    evaluate_field,
    integrate_flow,
    lyapunov_logistic,
    pipeline,
    validity_window,
)
from .iterate import (
    IterateGrid,
    PointStatus,
    SchroederChart,
    build_chart,
    build_expansion,
    chart_value,
    default_chart_radius,
    evaluate_chart_grid,
    evaluate_iterate_chart,
    evaluate_iterate_matrix,
    evaluate_matrix_grid,
)
from .logistic import (
    logistic2_chart,
    logistic2_field,
    logistic2_iterate,
    logistic4_chart,
    logistic4_chart_second,
    logistic4_field,
    logistic4_iterate,
    logistic4_iterate_second,
    logistic_series,
)
from .series import (
    ApproximateCompositionWarning,
    FixedPointFrame,
    PowerSeries,
    compose,
    evaluate_with_tail,
    find_fixed_point,
    tail_radius,
)
from .spectral import (
    SpectralFactorization,
    diagonalize,
    factor_from_series,
    fractional_power,
    log_row,
    matrix_log,
)

__version__ = "0.1.0"

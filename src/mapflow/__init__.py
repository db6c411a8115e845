"""Continuous iterates and continuous-time flows of analytic 1-D maps.

The pipeline: expand a map as a truncated power series, embed it as a dense
Carleman matrix whose rows are the coefficient lists of the map's powers,
shift to a fixed point so the matrix is upper triangular, diagonalize it by
a short unitriangular recursion, and read off, in the fixed-point frame,

* non-integer iterates f^t (matrix powers / linearizing chart),
* the vector field G with df^t/dt = G(f^t) (matrix logarithm),

with everything cross-checked against exactly solvable logistic references.
"""

from .carleman import (
    CarlemanMatrix,
    build_matrix,
    build_matrix_quadrature,
    leading_window,
    read_matrix_csv,
    scaled_deviation,
    shift_conjugate,
    verify_semigroup,
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
    build_field,
    evaluate_field,
    field_pipeline,
    integrate_flow,
    lyapunov_logistic,
    validity_window,
)
from .iterate import (
    IterateExpansion,
    IterateGrid,
    PointStatus,
    SchroederChart,
    build_chart,
    build_expansion,
    chart_pipeline,
    chart_value,
    default_chart_radius,
    evaluate_chart_grid,
    evaluate_iterate_chart,
    evaluate_iterate_matrix,
    evaluate_matrix_grid,
    verify_linearization,
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
    revert,
    tail_radius,
)
from .spectral import (
    SpectralFactorization,
    diagonalize,
    fractional_power,
    left_eigenrow,
    matrix_log,
)

__version__ = "0.1.0"

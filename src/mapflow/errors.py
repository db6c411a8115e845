"""Exception types shared across the package."""


class MapflowError(Exception):
    """Base class for all library errors."""


class FixedPointNotFound(MapflowError):
    """Newton iteration for a fixed point did not converge.

    Carries the last iterate so callers can inspect or restart.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class RestrictiveConditionViolated(MapflowError):
    """The multiplier violates the conditions the spectral construction needs.

    Raised when the multiplier is (numerically) zero or a root of unity, in
    which case the eigenvalues of the triangular embedding matrix collide and
    the diagonalizing recursion divides by zero.
    """


class Superattracting(RestrictiveConditionViolated):
    """Multiplier indistinguishable from zero."""


class ResonantEigenvalues(RestrictiveConditionViolated):
    """Two eigenvalue powers coincide; carries the offending index pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class ShiftInconsistent(MapflowError):
    """A matrix to factor is not the triangular matrix of the frame's map.

    The fixed-point frame and the matrix disagree (e.g. the frame was built
    from a different map, or the matrix was not shifted to the fixed point).
    """


class OutOfChart(MapflowError):
    """An evaluation left the region where the chart series are trustworthy.

    Raised instead of silently returning a value a divergent truncated series
    would produce.
    """


class NonConvergent(MapflowError):
    """A truncated series sum failed its tail test; carries the last-term size."""

    def __init__(self, message, last_term=None):
        super().__init__(message)
        self.last_term = last_term


class ChartEscape(MapflowError):
    """ODE integration left the chart; carries the partial trajectory."""

    def __init__(self, message, t_reached=None, trajectory=None):
        super().__init__(message)
        self.t_reached = t_reached
        self.trajectory = trajectory or []


class BranchMismatch(MapflowError):
    """Two routes to the vector field disagree, typically a wrong log branch."""

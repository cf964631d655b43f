"""hullsolve: linear systems via convex hull membership.

A square system A x = b is recast as asking whether the origin lies in the
convex hull of the matrix columns joined with -b (shifted when the solution
has negative components). The Triangle Algorithm answers the hull question
with either an approximate convex combination, from which a solution with a
certified relative residual is recovered, or a witness certificate of
non-membership that drives the shift upward.
"""

from .bounds import SystemAnalysis, analyze_system
from .hull import (
    CAP_EXCEEDED,
    IN_HULL_APPROX,
    NOT_IN_HULL,
    DegeneratePivot,
    HullConfig,
    HullInstance,
    HullOutcome,
    run_hull,
)
from .incremental import solve_incremental
from .system import (
    CONVERGED,
    INFEASIBLE_NONNEG,
    LinearSystem,
    SingularMatrixError,
    SolveConfig,
    SolveOutcome,
)
from .two_phase import solve_nonneg

__version__ = "0.1.0"

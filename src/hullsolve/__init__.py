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
    Iterate,
    Witness,
    apply_step,
    find_pivot,
    initial_iterate,
    make_iterate,
    run_hull,
    step_size,
)
from .incremental import (
    NoPositiveQuadratic,
    build_quadratics,
    next_shift,
    optimize_shift_tau0,
    solve_incremental,
)
from .system import (
    CONVERGED,
    INFEASIBLE_NONNEG,
    SOLVE_CAP_EXCEEDED,
    AlphaBVanishes,
    LinearSystem,
    SingularMatrixError,
    SolveConfig,
    SolveOutcome,
    recover_solution,
)
from .two_phase import (
    select_inner_epsilon,
    sensitivity_epsilon_prime,
    solve_nonneg,
)

__version__ = "0.1.0"

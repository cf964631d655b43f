"""Two-phase solver for A x = b when the solution is nonnegative.

Phase 2 adjoins -b to the columns of A and drives an iterate toward the
origin with the Triangle Algorithm, by default from the centroid of the
n + 1 points (system.start_coeffs), where Phase 1 starts from the nearest
column; the convex coefficients of the iterate
recover an approximate solution x0 = alpha / alpha_b, whose residual is
A x0 - b = p' / alpha_b. The solver exits as soon as the recovered residual
passes, by the stop rule both solvers share (system.checked_solution).

Phase 1 runs the Triangle Algorithm on the columns of A against the origin
to obtain a witness, whose distance to the origin yields a lower bound
delta0' on the hull-to-origin distance, from which the paper chooses Phase
2's inner tolerance so that reaching it guarantees the requested relative
residual (sensitivity argument). It runs first only when solve_nonneg is
called with phase1=True, to report delta0' and what the paper derives
from it; the exact residual decides the stop either way. Otherwise it runs
only when Phase 2's iterate carries no weight on -b near the origin, where
it tells whether A is singular.

Each phase takes at most config.max_iterations steps: the paper's Phase 2
bound (48 / epsilon0^2) (rho / delta0')^2 is a worst case, not a cap.

Both phases take pairwise steps: each step is the better of the Triangle
step toward the pivot and a transfer of weight to the pivot from the active
point of least margin, -b included (hull.apply_step with every point a
donor). Both read the system's one A^T A (LinearSystem.gram): Phase 1 as
it is, on a copy of A its hull instance makes, and Phase 2 through the
system's one shifted hull (system.hull), the block of its Gram matrix
that -b's products border, with -b(0) placed by shifted_instance.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .hull import (
    CAP_EXCEEDED,
    IN_HULL_APPROX,
    HullConfig,
    HullInstance,
    HullOutcome,
    TraceRecord,
    apply_step,
    find_pivot,
    initial_iterate,
    run_hull,
    step_size,
    witness_of,
)
from .system import (
    ALPHA_FLOOR,
    CONVERGED,
    INFEASIBLE_NONNEG,
    LinearSystem,
    SingularMatrixError,
    SolveConfig,
    SolveOutcome,
    checked_solution,
    shifted_instance,
    solve_outcome,
    start_coeffs,
)

__all__ = [
    "select_inner_epsilon",
    "sensitivity_epsilon_prime",
    "solve_nonneg",
]

# Phase 1 only needs its epsilon as a near-singularity threshold: the
# approximate-membership exit can never fire while epsilon * rho stays
# below the hull-to-origin distance, so it is kept well under any
# realistic conditioning rather than tied to the residual target.
PHASE1_EPSILON_CEIL = 1e-6


def _phase1_outcome(system: LinearSystem, config: SolveConfig) -> HullOutcome:
    """Phase 1's hull run on the columns of A, Gram matrix system.gram,
    against the origin from the nearest column (config.init_coeffs starts
    Phase 2 only), under config's step cap and trace setting, with epsilon
    min(epsilon0, PHASE1_EPSILON_CEIL).

    A witness gives delta0' = gap / 2, a lower bound on the hull-to-origin
    distance by the factor-two property of witnesses. An approximate
    membership means the origin is within epsilon of the column hull, so A
    is singular or nearly so: SingularMatrixError.
    """
    hull_cfg = HullConfig(
        epsilon=min(config.epsilon0, PHASE1_EPSILON_CEIL),
        max_iterations=config.max_iterations,
        record_trace=config.record_trace,
    )
    columns = HullInstance(system.a, np.zeros(system.n), gram=system.gram)
    phase1 = run_hull(columns, hull_cfg)
    if phase1.status == IN_HULL_APPROX:
        raise SingularMatrixError(
            "origin lies in the convex hull of the columns to tolerance "
            f"(gap {system.unscaled(phase1.iterate.gap):.3e}); the matrix is singular"
        )
    return phase1


def select_inner_epsilon(
    epsilon0: float, delta0_prime: float, system: LinearSystem
) -> float:
    """Inner hull tolerance guaranteeing an epsilon0-approximate solution.

    Returns (delta0' / 2) * min(1 / rho, epsilon0 / (delta0' + ||b||)),
    with delta0' in the system's stored units, as rho and ||b|| are.
    By construction the result is at most delta0' / (2 rho), which is the
    precondition of the sensitivity guarantee.
    """
    if delta0_prime <= 0.0:
        raise ValueError("delta0_prime must be positive")
    return 0.5 * delta0_prime * min(
        1.0 / system.rho, epsilon0 / (delta0_prime + system.norm_b)
    )


def sensitivity_epsilon_prime(
    epsilon: float, delta0_prime: float, b_norm: float
) -> float:
    """Guaranteed relative residual 2 (1 + ||b|| / delta0') epsilon.

    Valid when epsilon <= delta0' / (2 rho) was enforced upstream; reported
    in diagnostics.
    """
    return 2.0 * (1.0 + b_norm / delta0_prime) * epsilon


def solve_nonneg(
    system: LinearSystem, config: SolveConfig, *, phase1: bool = False
) -> SolveOutcome:
    """Solve A x = b assuming x >= 0, to relative residual epsilon0.

    Phase 2 iterates the Triangle Algorithm on conv({a_1, ..., a_n, -b})
    against the origin, starting from config.init_coeffs over the n + 1
    points, or from their centroid when None (start_coeffs). It stops
    with x0 once ||A x0 - b|| <= epsilon0 * rho, by
    system.checked_solution, which forms that residual only when its
    estimate gap / alpha_b nears the target and once every n steps. A
    witness means no nonnegative solution exists.

    phase1=True runs Phase 1 first, the paper's path. Its witness gives
    delta0', a lower bound on the hull-to-origin distance, which is
    reported with the inner epsilon the sensitivity theorem selects from
    it and the relative residual epsilon_prime that epsilon guarantees.
    config.max_iterations caps each phase.

    When Phase 1 has not run and Phase 2's iterate loses its weight on -b
    (alpha_b < ALPHA_FLOOR) within epsilon0 * rho of the origin, where no
    residual can be checked, Phase 1 runs once: it raises
    SingularMatrixError if the origin lies in the column hull, and Phase 2
    goes on otherwise. Phase 1's steps count in iterations and
    phase1_iterations, and its trace rows (alpha_b None) sit where it ran.
    """
    eps0 = config.epsilon0

    phase1_run = _phase1_outcome(system, config) if phase1 else None
    diagnostics: dict = {"phase1_iterations": 0, "delta0_source": "unavailable"}
    delta0_prime = inner_eps = None
    trace = ([] if phase1_run is None else phase1_run.trace) if config.record_trace else None
    steps = 0

    def record(value, alpha_b, pivot=None, witness=False):
        iteration = diagnostics["phase1_iterations"] + steps
        trace.append(TraceRecord(iteration, 0.0, value, alpha_b, pivot, witness))

    def outcome(status, x=None, residual=None, witness=None):
        return solve_outcome(
            system, status, diagnostics["phase1_iterations"] + steps, residual, x=x,
            phase1_delta0_prime=delta0_prime, inner_epsilon=inner_eps, witness=witness,
            trace=trace, diagnostics=diagnostics,
        )

    if phase1_run is None:
        diagnostics["guarantee"] = "direct residual check only"
    else:
        diagnostics["phase1_iterations"] = phase1_run.iterations
        if phase1_run.status == CAP_EXCEEDED:
            diagnostics["phase1"] = (
                f"phase 1 exceeded {phase1_run.iterations} iterations without a verdict"
            )
            return outcome(CAP_EXCEEDED)
        diagnostics["delta0_source"] = "phase1_witness"
        delta0_prime = 0.5 * phase1_run.iterate.gap
        inner_eps = select_inner_epsilon(eps0, delta0_prime, system)
        diagnostics["epsilon_prime"] = sensitivity_epsilon_prime(
            inner_eps, delta0_prime, system.norm_b
        )

    instance = shifted_instance(system, 0.0)
    iterate = initial_iterate(instance, start_coeffs(config.init_coeffs, system.n))
    donors = instance.n_points  # -b gives weight as the columns do

    while True:
        alpha_b = iterate.coeffs.item(-1)
        if alpha_b < ALPHA_FLOOR:
            if phase1_run is None and iterate.gap <= eps0 * system.rho:
                # No residual can be checked, and the origin is within
                # epsilon0 * rho of the column hull: Phase 1 raises if it
                # lies in it. Steps from here may still restore alpha_b.
                phase1_run = _phase1_outcome(system, config)
                if trace is not None:
                    trace.extend(
                        replace(r, iteration=steps + r.iteration) for r in phase1_run.trace
                    )
                diagnostics["phase1_iterations"] = phase1_run.iterations
        elif (stop := checked_solution(system, iterate, eps0, steps)) is not None:
            if trace is not None:
                record(stop[1], alpha_b)
            return outcome(CONVERGED, *stop)

        j = find_pivot(instance, iterate)
        if j is None:
            witness = witness_of(iterate)
            if trace is not None:
                record(iterate.gap, alpha_b, witness=True)
            return outcome(INFEASIBLE_NONNEG, witness=witness)
        if steps >= config.max_iterations:
            diagnostics["last_gap"] = iterate.gap
            return outcome(CAP_EXCEEDED)
        alpha = step_size(instance, iterate, j)
        iterate = apply_step(instance, iterate, j, alpha, donors)
        steps += 1
        if trace is not None:
            record(iterate.gap, iterate.coeffs.item(-1), j)

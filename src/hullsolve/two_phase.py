"""Two-phase solver for A x = b when the solution is nonnegative.

Phase 1 runs the Triangle Algorithm on the columns of A against the origin
to obtain a witness, whose distance to the origin yields a lower bound
delta0' on the hull-to-origin distance. Phase 2 adjoins -b to the point set
and drives an iterate toward the origin; the convex coefficients of the
iterate recover an approximate solution x0 = alpha / alpha_b, whose residual
is A x0 - b = p' / alpha_b. The inner tolerance is chosen from delta0' so
that reaching it guarantees the requested relative residual (sensitivity
argument); in practice the solver exits as soon as the recovered residual
passes, computed exactly whenever its O(1) estimate gap / alpha_b comes
within rounding of the target and at least once every n steps.

Both phases take pairwise steps: each step is the better of the Triangle
step toward the pivot and a transfer of weight to the pivot from the active
point of least margin (hull.apply_step with pairwise=True). Phase 2's Gram
matrix borders the A^T A of Phase 1 with -A^T b and ||b||^2.
"""

from __future__ import annotations

import numpy as np

from . import bounds
from .hull import (
    CAP_EXCEEDED,
    IN_HULL_APPROX,
    HullConfig,
    HullInstance,
    HullOutcome,
    Iterate,
    TraceRecord,
    apply_step,
    check_witness,
    find_pivot,
    initial_iterate,
    iteration_cap_from_bound,
    make_iterate,
    run_hull,
    step_size,
)
from .system import (
    ALPHA_FLOOR,
    CONVERGED,
    INFEASIBLE_NONNEG,
    SOLVE_CAP_EXCEEDED,
    LinearSystem,
    SingularMatrixError,
    SolveConfig,
    SolveOutcome,
)

__all__ = [
    "DELTA0_FROM_PHASE1",
    "DELTA0_USER",
    "DELTA0_SKIP",
    "AlphaBVanishes",
    "select_inner_epsilon",
    "sensitivity_epsilon_prime",
    "recover_solution",
    "solve_nonneg",
]

DELTA0_FROM_PHASE1 = "phase1"
DELTA0_USER = "user"
DELTA0_SKIP = "skip"

# Fallback iteration cap for hull runs whose theoretical bound is unknown
# or impractically large.
DEFAULT_PHASE_CAP = 10**6

# Phase 1 only needs its epsilon as a near-singularity threshold: the
# approximate-membership exit can never fire while epsilon * rho stays
# below the hull-to-origin distance, so it is kept well under any
# realistic conditioning rather than tied to the residual target.
PHASE1_EPSILON_CEIL = 1e-6

# The exact residual ||A x0 - b|| costs O(n^2), its estimate gap / alpha_b
# O(1). They are equal in exact arithmetic; on column-normalised Gaussian
# systems of n = 12 to 800 at epsilon0 = 0.001 to 0.005 they differed by at
# most 7.5e-13 of the target epsilon0 * rho over every Phase 2 step. An
# estimate above the target by more than this relative margin therefore
# hides no passing residual; one that did would only delay the stop to the
# next backstop check.
PROXY_MARGIN = 1e-6


class AlphaBVanishes(ValueError):
    """The iterate places (numerically) no weight on -b; x0 is unrecoverable."""


def _phase1_outcome(columns: HullInstance, config: SolveConfig) -> HullOutcome:
    """Phase 1's hull run on columns, the columns of A against the origin,
    in pairwise steps, under the user's init rule and iteration cap
    (DEFAULT_PHASE_CAP when unset), with epsilon
    min(epsilon0, PHASE1_EPSILON_CEIL) and no trace.

    A witness gives delta0' = gap / 2, a lower bound on the hull-to-origin
    distance by the factor-two property of witnesses; an approximate
    membership means the origin is within epsilon of the column hull, so A
    is singular or nearly so.
    """
    hull_cfg = HullConfig(
        epsilon=min(config.epsilon0, PHASE1_EPSILON_CEIL),
        max_iterations=config.max_iterations or DEFAULT_PHASE_CAP,
        init_rule=config.init_rule,
        init_coeffs=config.init_coeffs,
    )
    return run_hull(columns, hull_cfg, pairwise=True)


def select_inner_epsilon(
    epsilon0: float, delta0_prime: float, system: LinearSystem
) -> float:
    """Inner hull tolerance guaranteeing an epsilon0-approximate solution.

    Returns (delta0' / 2) * min(1 / rho, epsilon0 / (delta0' + ||b||)).
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


def recover_solution(iterate: Iterate, system: LinearSystem) -> np.ndarray:
    """x0 = (alpha_1, ..., alpha_n) / alpha_b from an iterate over
    conv({a_1, ..., a_n, -b}), where alpha_b is the coefficient of -b.

    Raises AlphaBVanishes when alpha_b < ALPHA_FLOOR: the hull
    approximation then carries no usable weight on -b and the residual
    guarantee is unavailable.
    """
    alpha_b = float(iterate.coeffs[-1])
    if alpha_b < ALPHA_FLOOR:
        raise AlphaBVanishes(f"coefficient of -b is {alpha_b:.3e}")
    return iterate.coeffs[:-1] / alpha_b


def _resolve_delta0(
    system: LinearSystem, config: SolveConfig, columns: HullInstance, delta0_policy, delta0_user
) -> tuple[float | None, HullOutcome | None, dict]:
    """delta0' per policy, and Phase 1's outcome on columns when it ran;
    no delta0' when Phase 1 reached its cap without a witness.

    Raises SingularMatrixError when Phase 1 ends in an approximate
    membership, and ValueError, before Phase 1, on an unknown policy, a
    user delta0' missing, not finite and positive, or above rho: the
    hull-to-origin distance is at most ||b|| <= rho.
    """
    diagnostics: dict = {"phase1_iterations": 0}
    if delta0_policy == DELTA0_USER:
        if delta0_user is None or not 0.0 < delta0_user < np.inf:
            raise ValueError("delta0_policy 'user' requires a finite positive delta0_user")
        if delta0_user > system.rho:
            raise ValueError(
                f"delta0 {delta0_user!r} exceeds rho = {system.rho!r}, "
                "an upper bound on the hull-to-origin distance"
            )
        diagnostics["delta0_source"] = "user"
        return delta0_user, None, diagnostics
    if delta0_policy == DELTA0_SKIP:
        eigen = bounds.analyze_system(system).delta0_lower
        if eigen > 0.0:
            diagnostics["delta0_source"] = "eigenvalue_bound"
            return eigen, None, diagnostics
        diagnostics["delta0_source"] = "unavailable"
        diagnostics["guarantee"] = "direct residual check only"
        return None, None, diagnostics
    if delta0_policy != DELTA0_FROM_PHASE1:
        raise ValueError(f"unknown delta0 policy {delta0_policy!r}")
    phase1 = _phase1_outcome(columns, config)
    if phase1.status == IN_HULL_APPROX:
        raise SingularMatrixError(
            "origin lies in the convex hull of the columns to tolerance "
            f"(gap {phase1.iterate.gap:.3e}); the matrix is singular"
        )
    diagnostics["phase1_iterations"] = phase1.iterations
    if phase1.status == CAP_EXCEEDED:
        diagnostics["delta0_source"] = "unavailable"
        diagnostics["phase1"] = (
            f"phase 1 exceeded {phase1.iterations} iterations without a verdict"
        )
        return None, phase1, diagnostics
    diagnostics["delta0_source"] = "phase1_witness"
    return 0.5 * phase1.iterate.gap, phase1, diagnostics


def solve_nonneg(
    system: LinearSystem,
    config: SolveConfig,
    *,
    delta0_policy: str = DELTA0_FROM_PHASE1,
    delta0_user: float | None = None,
    residual_first: bool = True,
) -> SolveOutcome:
    """Solve A x = b assuming x >= 0, to relative residual epsilon0.

    delta0' bounds the hull-to-origin distance from below: Phase 1's
    witness gives it (DELTA0_FROM_PHASE1), delta0_user, finite and
    positive (DELTA0_USER), or, without Phase 1, the eigenvalue bound
    (DELTA0_SKIP). Phase 2 then iterates the Triangle Algorithm on
    conv({a_1, ..., a_n, -b}) against the origin; both phases take
    pairwise steps (hull.apply_step), start per config's init rule and
    stop at config.max_iterations steps when set. A user delta0' above rho
    raises ValueError: no hull-to-origin distance exceeds ||b||. When
    residual_first (the default), the solver recovers x0 and tests
    ||A x0 - b|| <= epsilon0 * rho directly, returning early on success,
    whenever the O(1) estimate gap / alpha_b of that residual comes within
    PROXY_MARGIN of the target and, as a backstop, once every n steps: O(n)
    a step amortised, and the exact residual stays the only stop test. The
    theoretically selected inner epsilon governs the iteration cap
    cap = ceil((48 / epsilon0^2) (rho / delta0')^2), DEFAULT_PHASE_CAP
    without delta0'; a bound that is not finite raises ValueError. A
    witness means no nonnegative solution exists.
    """
    rho = system.rho
    eps0 = config.epsilon0
    n = system.n

    columns = HullInstance(system.a, np.zeros(n))
    delta0_prime, phase1, diagnostics = _resolve_delta0(
        system, config, columns, delta0_policy, delta0_user
    )
    phase1_steps = diagnostics["phase1_iterations"]
    inner_eps: float | None = None
    trace: list[TraceRecord] | None = None
    steps = 0

    def outcome(status, x=None, residual=None, witness=None):
        return SolveOutcome(
            status=status,
            iterations=phase1_steps + steps,
            x=x,
            residual_norm=residual,
            relative_residual=None if residual is None else residual / rho,
            phase1_delta0_prime=delta0_prime,
            inner_epsilon=inner_eps,
            witness=witness,
            trace=trace,
            diagnostics=diagnostics,
        )

    if phase1 is not None and phase1.status == CAP_EXCEEDED:
        return outcome(SOLVE_CAP_EXCEEDED)

    if delta0_prime is not None:
        inner_eps = select_inner_epsilon(eps0, delta0_prime, system)
        diagnostics["epsilon_prime"] = sensitivity_epsilon_prime(
            inner_eps, delta0_prime, system.norm_b
        )

    if config.max_iterations is not None:
        cap = config.max_iterations
    elif delta0_prime is not None:
        cap = iteration_cap_from_bound(eps0, rho / delta0_prime)
    else:
        cap = DEFAULT_PHASE_CAP
    diagnostics["phase2_cap"] = cap

    # The Gram matrix of [A, -b] borders the A^T A Phase 1 computed, if it
    # did, with -A^T b and ||b||^2.
    instance = columns.with_point(-system.b, np.append(-system.at_b, system.b @ system.b))
    if phase1 is not None:
        # Embed the witness in the enlarged hull: coefficient of -b starts at 0.
        iterate = make_iterate(instance, np.append(phase1.iterate.coeffs, 0.0))
    else:
        iterate = initial_iterate(instance, config.init_rule, config.init_coeffs)

    if config.record_trace:
        trace = []
    threshold = eps0 * rho
    proxy_gate = threshold * (1.0 + PROXY_MARGIN)

    while True:
        alpha_b = float(iterate.coeffs[-1])
        # Theoretical target: the sensitivity bound now guarantees the
        # recovered residual, provided delta0' really was a lower bound.
        at_target = inner_eps is not None and iterate.gap <= inner_eps * rho
        if alpha_b < ALPHA_FLOOR:
            if at_target:
                diagnostics["alpha_b_vanished"] = True
                return outcome(SOLVE_CAP_EXCEEDED)
        elif at_target or (
            residual_first
            and (iterate.gap / alpha_b <= proxy_gate or steps % n == 0)
        ):
            x0 = recover_solution(iterate, system)
            residual = system.residual_norm(x0)
            if residual <= threshold:
                if trace is not None:
                    trace.append(TraceRecord(steps, 0.0, residual, alpha_b, None, False))
                return outcome(CONVERGED, x0, residual)
            if at_target:
                # Only reachable when the supplied delta0' overstated the
                # hull distance; keep iterating on the direct check instead.
                diagnostics["hull_target_residual_miss"] = True

        j = find_pivot(instance, iterate)
        if j is None:
            witness = check_witness(instance, iterate)
            if trace is not None:
                trace.append(TraceRecord(steps, 0.0, iterate.gap, alpha_b, None, True))
            return outcome(INFEASIBLE_NONNEG, witness=witness)
        if steps >= cap:
            diagnostics["last_gap"] = iterate.gap
            return outcome(SOLVE_CAP_EXCEEDED)
        alpha = step_size(instance.target, iterate, instance.points[:, j])
        iterate = apply_step(instance, iterate, j, alpha, pairwise=True)
        steps += 1
        if trace is not None:
            trace.append(
                TraceRecord(steps, 0.0, iterate.gap, float(iterate.coeffs[-1]), j, False)
            )

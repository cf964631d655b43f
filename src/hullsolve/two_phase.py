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
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import bounds
from .hull import (
    CAP_EXCEEDED,
    IN_HULL_APPROX,
    NOT_IN_HULL,
    HullConfig,
    HullInstance,
    HullOutcome,
    Iterate,
    Witness,
    apply_step,
    check_witness,
    find_pivot,
    initial_iterate,
    make_iterate,
    run_hull,
    step_size,
)
from .system import (
    ALPHA_FLOOR,
    CONVERGED,
    DELTA0_FROM_PHASE1,
    DELTA0_SKIP,
    DELTA0_USER,
    INFEASIBLE_NONNEG,
    SOLVE_CAP_EXCEEDED,
    LinearSystem,
    SolveConfig,
    SolveOutcome,
    SolveTraceRecord,
)

__all__ = [
    "ZeroInColumnHull",
    "AlphaBVanishes",
    "HullCapExceeded",
    "phase1_witness",
    "select_inner_epsilon",
    "sensitivity_epsilon_prime",
    "recover_solution",
    "solve_nonneg",
]

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


class ZeroInColumnHull(Exception):
    """The origin lies in conv(columns of A) to tolerance, so A is singular."""


class AlphaBVanishes(Exception):
    """The iterate places (numerically) no weight on -b; x0 is unrecoverable."""


class HullCapExceeded(Exception):
    """A hull run hit its iteration cap before producing a verdict."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


def _phase_hull_config(config: SolveConfig, epsilon: float) -> HullConfig:
    """Hull settings for an internal phase run: the user's pivot and init
    rules and iteration cap, with the phase's own epsilon and no trace."""
    base = config.hull if config.hull is not None else HullConfig()
    cap = base.max_iterations if base.max_iterations is not None else DEFAULT_PHASE_CAP
    return dataclasses.replace(
        base, epsilon=epsilon, max_iterations=cap, record_trace=False
    )


def _phase1_outcome(system: LinearSystem, config: SolveConfig) -> HullOutcome:
    instance = HullInstance(system.a, np.zeros(system.n))
    epsilon = min(config.epsilon0, PHASE1_EPSILON_CEIL)
    return run_hull(instance, _phase_hull_config(config, epsilon=epsilon))


def _phase1_decision(
    system: LinearSystem, config: SolveConfig
) -> tuple[Witness, float, int]:
    outcome = _phase1_outcome(system, config)
    if outcome.status == IN_HULL_APPROX:
        raise ZeroInColumnHull(
            "origin lies in the convex hull of the columns to tolerance "
            f"(gap {outcome.iterate.gap:.3e}); the matrix is singular"
        )
    if outcome.status == CAP_EXCEEDED:
        raise HullCapExceeded(
            f"phase 1 exceeded {outcome.iterations} iterations without a verdict",
            iterations=outcome.iterations,
        )
    witness = outcome.witness
    assert witness is not None
    return witness, 0.5 * witness.iterate.gap, outcome.iterations


def phase1_witness(system: LinearSystem, config: SolveConfig) -> tuple[Witness, float]:
    """Witness that the origin is outside conv(columns of A), plus delta0'.

    delta0' = 0.5 * ||p'|| is a valid lower bound on the hull-to-origin
    distance by the factor-two property of witnesses. Raises
    ZeroInColumnHull when the hull run instead reaches an approximate
    membership (the origin is within epsilon of the column hull, i.e. A is
    singular or nearly so), and HullCapExceeded on an inconclusive run.
    """
    witness, delta0_prime, _ = _phase1_decision(system, config)
    return witness, delta0_prime


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
    system: LinearSystem, config: SolveConfig
) -> tuple[float | None, Iterate | None, int, dict]:
    """delta0' per policy, plus the Phase 2 warm start when Phase 1 ran."""
    diagnostics: dict = {"phase1_iterations": 0}
    if config.delta0_policy == DELTA0_USER:
        diagnostics["delta0_source"] = "user"
        return config.delta0_user, None, 0, diagnostics
    if config.delta0_policy == DELTA0_SKIP:
        eigen = bounds.analyze_system(system).delta0_lower
        if eigen > 0.0:
            diagnostics["delta0_source"] = "eigenvalue_bound"
            return eigen, None, 0, diagnostics
        diagnostics["delta0_source"] = "unavailable"
        diagnostics["guarantee"] = "direct residual check only"
        return None, None, 0, diagnostics
    witness, delta0_prime, iterations = _phase1_decision(system, config)
    diagnostics["delta0_source"] = "phase1_witness"
    diagnostics["phase1_iterations"] = iterations
    # Embed the witness in the enlarged hull: coefficient of -b starts at 0.
    start = np.append(witness.iterate.coeffs, 0.0)
    return delta0_prime, start, iterations, diagnostics


def solve_nonneg(system: LinearSystem, config: SolveConfig) -> SolveOutcome:
    """Solve A x = b assuming x >= 0, to relative residual epsilon0.

    Runs Phase 1 per the delta0 policy, then iterates the Triangle
    Algorithm on conv({a_1, ..., a_n, -b}) against the origin. When
    residual_first (the default), the solver recovers x0 and tests
    ||A x0 - b|| <= epsilon0 * rho directly, returning early on success,
    whenever the O(1) estimate gap / alpha_b of that residual comes within
    PROXY_MARGIN of the target and, as a backstop, once every n steps: O(n)
    a step amortised, and the exact residual stays the only stop test. The
    theoretically selected inner epsilon governs the iteration cap
    cap = ceil((48 / epsilon0^2) (rho / delta0')^2), or DEFAULT_PHASE_CAP
    where that overflows. A witness means no nonnegative solution exists.
    """
    rho = system.rho
    eps0 = config.epsilon0
    n = system.n

    try:
        delta0_prime, start_coeffs, phase1_steps, diagnostics = _resolve_delta0(
            system, config
        )
    except HullCapExceeded as exc:
        return SolveOutcome(
            status=SOLVE_CAP_EXCEEDED,
            iterations=exc.iterations,
            diagnostics={"phase1": str(exc)},
        )

    inner_eps: float | None = None
    eps_prime: float | None = None
    if delta0_prime is not None and delta0_prime > 0.0:
        inner_eps = select_inner_epsilon(eps0, delta0_prime, system)
        eps_prime = sensitivity_epsilon_prime(inner_eps, delta0_prime, system.norm_b)
        diagnostics["epsilon_prime"] = eps_prime

    hull_cfg = _phase_hull_config(config, epsilon=eps0)
    if config.hull is not None and config.hull.max_iterations is not None:
        cap = config.hull.max_iterations
    elif delta0_prime is not None and delta0_prime > 0.0:
        bound = (48.0 / (eps0 * eps0)) * (rho / delta0_prime) ** 2
        cap = math.ceil(bound) if math.isfinite(bound) else DEFAULT_PHASE_CAP
    else:
        cap = DEFAULT_PHASE_CAP
    diagnostics["phase2_cap"] = cap

    points = np.hstack([system.a, -system.b[:, None]])
    instance = HullInstance(points, np.zeros(n))
    if start_coeffs is not None:
        iterate = make_iterate(instance, start_coeffs)
    else:
        iterate = initial_iterate(instance, hull_cfg)

    trace: list[SolveTraceRecord] | None = [] if config.record_trace else None
    threshold = eps0 * rho
    proxy_gate = threshold * (1.0 + PROXY_MARGIN)
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
            config.residual_first
            and (iterate.gap / alpha_b <= proxy_gate or steps % n == 0)
        ):
            x0 = iterate.coeffs[:-1] / alpha_b
            residual = system.residual_norm(x0)
            if residual <= threshold:
                if trace is not None:
                    trace.append(
                        SolveTraceRecord(steps, 0.0, residual, alpha_b, None, False)
                    )
                return outcome(CONVERGED, x0, residual)
            if at_target:
                # Only reachable when the supplied delta0' overstated the
                # hull distance; keep iterating on the direct check instead.
                diagnostics["hull_target_residual_miss"] = True

        j = find_pivot(instance, iterate, hull_cfg.pivot_rule)
        if j is None:
            witness = check_witness(instance, iterate)
            if trace is not None:
                trace.append(
                    SolveTraceRecord(steps, 0.0, iterate.gap, alpha_b, None, True)
                )
            return outcome(INFEASIBLE_NONNEG, witness=witness)
        if steps >= cap:
            diagnostics["last_gap"] = iterate.gap
            return outcome(SOLVE_CAP_EXCEEDED)
        alpha = step_size(instance.target, iterate, instance.points[:, j])
        iterate = apply_step(instance, iterate, j, alpha)
        steps += 1
        if trace is not None:
            trace.append(
                SolveTraceRecord(
                    steps, 0.0, iterate.gap, float(iterate.coeffs[-1]), j, False
                )
            )

"""Incremental shift solver for a general square system A x = b.

No sign information about the solution is needed: the system is replaced by
A x = b + t u with u = A e, whose solution is nonnegative once t is large
enough. Starting from t = 0, the solver alternates Triangle Algorithm steps
on conv({a_1, ..., a_n, -b(t)}) with shift increases driven by witnesses.
Each step is the better of the Triangle step and a pairwise transfer of
weight to the pivot from a column (hull.apply_step with the n columns as
donors): -b(t) never gives weight, so a transfer never lowers alpha_b,
which x0 = alpha / alpha_b and the residual estimate gap / alpha_b divide
by.
When the iterate is a witness at the current shift, each point of the set
induces a quadratic g_i(t) in the shift whose sign tells whether the same
iterate stays a witness at shift t; build_quadratics gives their
coefficients as three arrays, one entry per point, and the smallest root
beyond the current shift (next_shift), its increase rounded up to a whole
number, gives the next shift to try. That holds at alpha_b = 0 too: the
iterate's point then does not move with t, the column quadratics are
negative constants, and -b(t)'s is a line that rises, since u^T p' is the
sum of the columns' products a_i^T p' > ||p'||^2 / 2 at a witness; its
root is the next shift. The solver starts at the centroid, weight
1 / (n + 1) on each point: A y = b + t u is solved by y = x* + t e, so
once t > t* the origin's weights over the set are (x* + t e, 1) / Z,
which tend to equal weights as t grows. While alpha_b < ALPHA_FLOOR,
where no x0 can be recovered, a pass takes its step without the shift
re-optimisation or the residual check. The final answer is x = x0 - t e.

A change of shift moves only the last point, -b(t), so the solver runs on
the system's one shifted hull (shifted_instance returns system.hull with
-b(0) placed) and carries it, and the iterate's maintained products and
||p'||^2, to each new shift (move_shift): -b(t) and its Gram border are
written in place by system.place_shift, which places -b(0) too, the
iterate's products with the columns take one scaled add of A^T u, and
its product with -b(t) and ||p'||^2 follow in O(1) from u^T p'. The
shift re-optimisation reads that same u^T p' from the coefficients in
O(n): the iterate's point is p'(t) = alpha_b (A x0 - b(t)), so the best
shift and its residual E follow from u^T p' and the moved gap. That E is
an estimate; the exact residual at the shift moved to decides the stop,
by the rule both solvers share (system.checked_solution), which forms it
only when the estimate nears the target and once every n steps.
"""

from __future__ import annotations

import math

import numpy as np

from .hull import (
    CAP_EXCEEDED,
    Iterate,
    TraceRecord,
    apply_step,
    find_pivot,
    initial_iterate,
    recursed_iterate,
    step_size,
)
from .system import (
    ALPHA_FLOOR,
    CONVERGED,
    LinearSystem,
    SingularMatrixError,
    SolveConfig,
    SolveOutcome,
    checked_solution,
    place_shift,
    shifted_instance,
    solve_outcome,
)

__all__ = [
    "NoPositiveQuadratic",
    "move_shift",
    "optimize_shift_tau0",
    "build_quadratics",
    "next_shift",
    "solve_incremental",
]

# Floor on the shift increase per escalation, guarding against a root that
# lands on the current shift through roundoff.
ROOT_TINY = 1e-12


class NoPositiveQuadratic(ValueError):
    """No shift quadratic has a root beyond the current shift. At a
    witness one always has in exact arithmetic, so only rounding can
    raise this."""


def move_shift(
    system: LinearSystem, iterate: Iterate, t0: float, t: float, u_point: float
) -> Iterate:
    """Move the system's shifted hull and an iterate on it from shift t0
    to t, in O(n).

    place_shift writes -b(t) and its Gram border into system.hull, as it
    does for shifted_instance(system, t). The iterate keeps its
    coefficients c and forms no point: with drift = (t - t0) alpha_b,
    p'(t) = p'(t0) - drift u, so its products with the columns move by
    -drift A^T u, and its product with -b(t) and ||p'(t)||^2 = ||p'||^2 -
    2 drift u^T p' + drift^2 ||u||^2 follow in O(1) from u_point, u^T p'
    at t0 (_shift_product). point_sq_scale takes the magnitudes of both new
    terms, so a move that cancels is formed again from V c. A move is not
    a step: the iterate's age is kept, and so is its donor floor, the same
    array, which the kept weights decide. -b(t)'s point is written only
    when the hull's points are next read (see place_shift).
    """
    coeffs, dots = iterate.coeffs, iterate.dot_cache
    place_shift(system, t)
    step = t - t0
    drift = step * coeffs.item(-1)
    moved = system.at_u.base * -drift  # A^T u and a trailing 0
    moved += dots
    # -b(t)^T p'(t) = (-b(t0) - step u)^T (p'(t0) - drift u), with
    # -b(t0)^T u = -(u^T b + t0 ||u||^2).
    moved[-1] = dots.item(-1) + drift * (system.u_b + t * system.u_sq) - step * u_point
    lift = -2.0 * drift * u_point
    square = drift * drift * system.u_sq
    point_sq = iterate.point_sq + lift + square
    scale = iterate.point_sq_scale + abs(lift) + square
    return recursed_iterate(
        system.hull, coeffs, moved, point_sq, scale, iterate.age,
        iterate.floor, iterate.donors, iterate.least,
    )


def _shift_product(system: LinearSystem, coeffs: np.ndarray, t0: float) -> float:
    """u^T p' for the iterate of these coefficients at shift t0, in O(n):
    p' = A alpha - alpha_b b(t0), so u^T p' = (A^T u)^T alpha - alpha_b
    (u^T b + t0 ||u||^2)."""
    alpha_b = coeffs.item(-1)
    return float(system.at_u.dot(coeffs[:-1])) - alpha_b * (system.u_b + t0 * system.u_sq)


def _optimal_shift(system: LinearSystem, iterate: Iterate, t0: float) -> tuple[float, float]:
    """(tau0, u^T p'): optimize_shift_tau0's tau0 for the iterate's x0, in
    O(n), and the product it is read from, which move_shift takes.

    The iterate's point at shift t0 is p' = alpha_b (A x0 - b(t0)), and
    b(t) = b(t0) + (t - t0) u, so E(t) is least at
    t0 + u^T p' / (alpha_b ||u||^2), clamped below at t0.
    """
    u_point = _shift_product(system, iterate.coeffs, t0)
    lift = u_point / (iterate.coeffs.item(-1) * system.u_sq)
    return (t0 + lift if lift > 0.0 else t0), u_point


def optimize_shift_tau0(
    system: LinearSystem, x0: np.ndarray, t_floor: float
) -> tuple[float, float]:
    """Shift minimizing E(t) = ||A x0 - (b + t u)|| subject to t >= t_floor.

    E^2 is a convex quadratic in t with unconstrained minimizer
    u^T (A x0 - b) / ||u||^2; the constrained optimum clamps it at t_floor.
    Returns (tau0, E(tau0)).
    """
    r0 = system.a @ x0 - system.b
    u = system.u
    u_sq = float(u @ u)
    t_hat = float(u @ r0) / u_sq if u_sq > 0.0 else t_floor
    tau0 = max(t_floor, t_hat)
    err = float(np.linalg.norm(r0 - tau0 * u))
    return tau0, err


def build_quadratics(
    system: LinearSystem, iterate: Iterate
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (c2, c1, c0) of the shift quadratics
    g_i(t) = (c2[i] t + c1[i]) t + c0[i], one entry per point of the
    shifted hull, -b(t)'s last.

    g_i(t) is twice the pivot margin of point i at shift t for a fixed
    iterate, so the iterate stays a witness while every g_i is negative.
    The iterate's point is p'(t) = p' - t alpha_b u, with
    p' = A alpha - alpha_b b its shift-independent base point. For a
    column a_i: c2 = alpha_b^2 ||u||^2, c1 = -2 alpha_b (p' - a_i)^T u,
    c0 = ||p'||^2 - 2 p'^T a_i, so a column opens upward, or is constant
    at alpha_b = 0. The right-hand-side entry expands
    ||p'(t)||^2 + 2 p'(t)^T (b + t u): it opens downward, or is the line
    2 u^T p' t + c0 at alpha_b = 0, and is positive between its real
    roots, where -b(t) is a pivot.
    """
    alpha_b = iterate.coeffs.item(-1)
    base = system.a @ iterate.coeffs[:-1] - alpha_b * system.b
    base_sq = float(base @ base)
    base_u = float(base @ system.u)
    c2 = np.full(system.n + 1, alpha_b * alpha_b * system.u_sq)
    c2[-1] = alpha_b * (alpha_b - 2.0) * system.u_sq
    rhs_c1 = 2.0 * (1.0 - alpha_b) * base_u - 2.0 * alpha_b * system.u_b
    c1 = np.append(-2.0 * alpha_b * (base_u - system.at_u), rhs_c1)
    c0 = np.append(base_sq - 2.0 * (system.a.T @ base), base_sq + 2.0 * float(base @ system.b))
    return c2, c1, c0


def next_shift(c2: np.ndarray, c1: np.ndarray, c0: np.ndarray, t0: float) -> float:
    """Smallest shift beyond t0 >= 0 at which some quadratic of
    build_quadratics becomes nonnegative.

    Each upward column contributes its larger root, in the
    cancellation-free form the sign of c1 picks, or, where the
    discriminant sits within roundoff of zero, the Cauchy upper bound
    1 + max(|c1|, |c0|) / c2 on its roots; constant columns
    (alpha_b = 0) contribute none. The right-hand side, downward or a
    line and negative at t0, contributes its smaller root when that lies
    beyond t0: there -b(t) becomes a pivot. Its slope 2 c2 t + c1 is at
    most c1 for t >= 0, so it has such a root only when c1 > 0.
    NoPositiveQuadratic is raised when no quadratic has a root beyond t0.
    """
    a, b, c = c2[:-1], c1[:-1], c0[:-1]
    with np.errstate(all="ignore"):  # rows and branches not picked are not read
        disc = b * b - 4.0 * a * c
        s = np.sqrt(np.maximum(disc, 0.0))
        roots = np.where(b >= 0.0, -2.0 * c / (b + s), (s - b) / (2.0 * a))
        scale = np.maximum(np.maximum(b * b, np.abs(4.0 * a * c)), 1e-300)
        cauchy = 1.0 + np.maximum(np.abs(b), np.abs(c)) / a
        roots = np.where(disc <= 1e-12 * scale, cauchy, roots)
    raw = float(roots[a > 0.0].min(initial=math.inf))
    a, b, c = c2.item(-1), c1.item(-1), c0.item(-1)
    disc = b * b - 4.0 * a * c
    if a <= 0.0 and b > 0.0 and disc >= 0.0:
        root = -2.0 * c / (math.sqrt(disc) + b)
        if t0 < root < raw:
            raw = root
    if raw == math.inf:
        raise NoPositiveQuadratic(f"no shift quadratic has a root beyond t = {t0!r}")
    return raw


# diagnostics["policy"] of each increment spec solve_incremental takes.
_POLICIES = {"quantized": "quantized", "quantized:1": "quantized", "double": "double_plus_one"}


def solve_incremental(
    system: LinearSystem,
    config: SolveConfig,
    *,
    increment: str = "quantized:1",
    tau_hook=None,
) -> SolveOutcome:
    """Solve A x = b with no sign assumption, to relative residual epsilon0.

    The run starts from config.init_coeffs as given, or, when None, at
    the centroid: weight 1/(n + 1) on each column and on -b(0). The loop
    per pass, while alpha_b >= ALPHA_FLOOR: recover x0 from the iterate,
    move the shift t to the tau0 >= t minimizing E(t) = ||A x0 - (b + t u)||,
    in O(n) from the iterate, and stop with x = x0 - tau0 e once
    ||A x - b|| <= epsilon0 * rho, by system.checked_solution: that
    residual is formed, once, only when the estimate E = gap / alpha_b at
    tau0 nears the target or, as a backstop, every n steps; it is the only
    stop test. While alpha_b < ALPHA_FLOOR there is no x0, and
    a pass skips all of this. Then it takes one step at the shift it holds,
    the better of the Triangle step and a transfer from a column (see
    hull.apply_step), or, when the iterate is a witness, whatever its
    alpha_b, raises the shift by the increment rule and warm-starts from
    the same coefficients: "quantized" (also spelt "quantized:1", the
    default that reports echo) moves to the next quadratic root (see
    next_shift), its increase rounded up to a whole number, at least 1,
    and "double" to 2 t + 1. The report's diagnostics["policy"] names the
    rule: "quantized" or "double_plus_one".

    tau_hook, when given, post-processes that same tau0 (clamped below by
    the current shift), and the pass stops by the same test at the shift
    it returns; it exists to reproduce hand-worked shift sequences in
    tests.

    Another increment spec raises ValueError before the first step. A e = 0
    raises SingularMatrixError: then b(t) = b for every t, and e is a null
    vector of A. So does A e = 0 to working precision, 2^511 or more below
    the largest entry, where ||A e||^2 is subnormal in stored units.
    config.max_iterations caps the steps and, separately, the escalations:
    the a-priori shift bound tau'_* is a worst case, not a cap.
    """
    policy = _POLICIES.get(increment)
    if policy is None:
        raise ValueError(f"bad increment spec {increment!r}; use quantized or double")
    # A ||u||^2 below the smallest normal double puts A e 2^511 or more
    # below the largest stored entry: A e = 0 to working precision. The
    # shift re-optimisation's alpha_b ||u||^2 would round to 0 there.
    if system.u_sq < np.finfo(float).tiny:
        raise SingularMatrixError("A e = 0: the all-ones vector is a null vector; A is singular")
    n = system.n

    t0 = 0.0
    instance = shifted_instance(system, t0)
    init_coeffs = config.init_coeffs
    if init_coeffs is None:
        init_coeffs = np.full(n + 1, 1.0 / (n + 1))
    iterate = initial_iterate(instance, init_coeffs)
    trace: list[TraceRecord] | None = [] if config.record_trace else None
    steps = 0
    escalations = 0
    shifts = [t0]
    diagnostics: dict = {"policy": policy}

    def outcome(status, x=None, residual=None):
        # reseeds is always 0 and kept because perfbench's workloads read
        # it; it goes with the benchmark change of ROADMAP item 6.
        diagnostics.update(escalations=escalations, reseeds=0, shifts=shifts)
        return solve_outcome(
            system, status, steps, residual, x=x, shift_t=t0, trace=trace, diagnostics=diagnostics
        )

    while True:
        # Step 1: re-optimize the shift for the current x0, test the stop
        # rule; with no weight on -b(t) there is no x0, and the pass steps.
        alpha_b = iterate.coeffs.item(-1)
        if alpha_b >= ALPHA_FLOOR:
            tau0, u_point = _optimal_shift(system, iterate, t0)
            if tau_hook is not None:
                tau0 = max(t0, float(tau_hook(tau0)))
            if tau0 != t0:
                iterate = move_shift(system, iterate, t0, tau0, u_point)
                t0 = tau0
            # x = x0 - t0 e; the move kept the coefficients.
            stop = checked_solution(system, iterate, config.epsilon0, steps, t0)
            if stop is not None:
                if trace is not None:
                    trace.append(TraceRecord(steps, t0, stop[1], alpha_b, None, False))
                return outcome(CONVERGED, *stop)

        # Step 2: witness check via pivot search; Step 3: shift escalation.
        j = find_pivot(instance, iterate)
        while j is None:
            if policy == "quantized":
                raw = next_shift(*build_quadratics(system, iterate), t0)
                new_t = t0 + math.ceil(max(raw - t0, ROOT_TINY))
            else:
                new_t = 2.0 * t0 + 1.0
            escalations += 1
            if escalations > config.max_iterations:
                return outcome(CAP_EXCEEDED)
            u_point = _shift_product(system, iterate.coeffs, t0)
            iterate = move_shift(system, iterate, t0, new_t, u_point)
            t0 = new_t
            shifts.append(t0)
            if trace is not None:
                trace.append(
                    TraceRecord(steps, t0, iterate.gap, float(iterate.coeffs[-1]), None, True)
                )
            j = find_pivot(instance, iterate)

        if steps >= config.max_iterations:
            return outcome(CAP_EXCEEDED)
        alpha = step_size(instance, iterate, j)
        iterate = apply_step(instance, iterate, j, alpha, donors=n)
        steps += 1
        if trace is not None:
            # ||p'(t)|| / alpha_b equals the residual of the recovered x0.
            new_ab = float(iterate.coeffs[-1])
            estimate = (
                iterate.gap / new_ab if new_ab >= ALPHA_FLOOR else iterate.gap
            )
            trace.append(TraceRecord(steps, t0, estimate, new_ab, j, False))

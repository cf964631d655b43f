"""Incremental shift solver for a general square system A x = b.

No sign information about the solution is needed: the system is replaced by
A x = b + t u with u = A e, whose solution is nonnegative once t is large
enough. Starting from t = 0, the solver alternates Triangle Algorithm steps
on conv({a_1, ..., a_n, -b(t)}) with shift increases driven by witnesses.
When the iterate is a witness at the current shift, each point of the set
induces a quadratic g_i(t) in the shift whose sign tells whether the same
iterate stays a witness at shift t; the smallest root beyond the current
shift gives the next shift to try. The final answer is x = x0 - t e.

A change of shift moves only the last point, -b(t), so the solver builds
its hull instance once and carries it, and the iterate's maintained
products, to each new shift in O(n) (move_shift). The shift re-optimisation
is O(n) too: the iterate's point is p'(t) = alpha_b (A x0 - b(t)), so the
best shift and its residual E follow from u^T p'(t) and the moved gap. That
E is an estimate; the exact residual, computed only when the estimate nears
the target and once every n steps, decides the stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .hull import (
    HullInstance,
    Iterate,
    TraceRecord,
    apply_step,
    find_pivot,
    initial_iterate,
    make_iterate,
    step_size,
    vector_norm,
)
from .system import (
    ALPHA_FLOOR,
    CONVERGED,
    SOLVE_CAP_EXCEEDED,
    LinearSystem,
    SolveConfig,
    SolveOutcome,
)
from .two_phase import DEFAULT_PHASE_CAP, PROXY_MARGIN, AlphaBVanishes, recover_solution

__all__ = [
    "POLICY_QUANTIZED",
    "POLICY_DOUBLE_PLUS_ONE",
    "NoPositiveQuadratic",
    "ShiftQuadratic",
    "shifted_instance",
    "move_shift",
    "optimize_shift_tau0",
    "build_quadratics",
    "next_shift",
    "solve_incremental",
]

POLICY_QUANTIZED = "quantized"
POLICY_DOUBLE_PLUS_ONE = "double_plus_one"

# Floor on the shift increase per escalation, guarding against a root that
# lands on the current shift through roundoff.
ROOT_TINY = 1e-12


class NoPositiveQuadratic(ValueError):
    """No column quadratic opens upward (the -b coefficient vanished)."""


@dataclass
class ShiftQuadratic:
    """g_i(t) = c2 t^2 + c1 t + c0 for one point of the shifted hull.

    g_i(t) is twice the pivot margin of point i at shift t for a fixed
    iterate, so the iterate stays a witness while every g_i is negative.
    Column quadratics (is_rhs False) open upward whenever the -b(t)
    coefficient is positive. The right-hand-side quadratic opens downward
    and is negative at a witness's own shift, but it is positive between
    its real roots when it has any: there -b(t) is a pivot.
    """

    index: int
    c2: float
    c1: float
    c0: float
    is_rhs: bool = False

    def value(self, t: float) -> float:
        return (self.c2 * t + self.c1) * t + self.c0


def shifted_instance(system: LinearSystem, t0: float) -> HullInstance:
    """Hull instance for conv({a_1, ..., a_n, -b(t0)}) against the origin."""
    rhs = -system.rhs_shifted(t0)
    return HullInstance(np.hstack([system.a, rhs[:, None]]), np.zeros(system.n))


def _rebase(system: LinearSystem, iterate: Iterate, t0: float) -> np.ndarray:
    """Shift-independent part of the iterate's point."""
    return iterate.point + (t0 * float(iterate.coeffs[-1])) * system.u


def move_shift(
    system: LinearSystem, instance: HullInstance, iterate: Iterate, t0: float, t: float
) -> Iterate:
    """Move a shifted hull and its iterate from shift t0 to t, in O(n).

    The instance, built by shifted_instance, gets -b(t) as its last point in
    place. The iterate keeps its coefficients; its point becomes
    p_base - t alpha_b u, so its products with the columns move by
    (t0 - t) alpha_b A^T u, and its product with -b(t) is recomputed.
    Each array is built in place, in the same arithmetic as
    -system.rhs_shifted(t) and _rebase.
    """
    u = system.u
    n = system.n
    rhs = u * -t
    rhs -= system.b
    products = np.empty(n + 1)  # -b(t)^T a_i = -(A^T b + t A^T u)_i
    np.multiply(system.at_u, -t, out=products[:n])
    products[:n] -= system.at_b
    products[n] = rhs.dot(rhs)
    instance.move_last_point(rhs, products)
    alpha_b = float(iterate.coeffs[-1])
    point = u * (t0 * alpha_b)
    point += iterate.point
    point -= u * (t * alpha_b)
    dots = np.empty(n + 1)
    np.multiply(system.at_u, (t0 - t) * alpha_b, out=dots[:n])
    dots[:n] += iterate.dot_cache[:n]
    dots[n] = rhs.dot(point)
    return Iterate(coeffs=iterate.coeffs, point=point, gap=vector_norm(point), dot_cache=dots)


def _optimal_shift(
    system: LinearSystem, iterate: Iterate, t0: float, u_sq: float
) -> float:
    """optimize_shift_tau0's tau0 for the iterate's x0, in O(n).

    The iterate's point at shift t0 is p' = alpha_b (A x0 - b(t0)), and
    b(t) = b(t0) + (t - t0) u, so E(t) is least at
    t0 + u^T p' / (alpha_b ||u||^2), clamped below at t0.
    """
    if u_sq <= 0.0:
        return t0
    lift = float(system.u.dot(iterate.point)) / (float(iterate.coeffs[-1]) * u_sq)
    return t0 + lift if lift > 0.0 else t0


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
    system: LinearSystem, iterate: Iterate, t0: float
) -> list[ShiftQuadratic]:
    """Shift quadratics g_i(t) for an iterate over the hull at shift t0.

    The iterate's point is p'(t) = p' - t alpha_b u, with p' its
    shift-independent base point. For a column a_i: c2 = alpha_b^2 ||u||^2,
    c1 = -2 alpha_b (p' - a_i)^T u, c0 = ||p'||^2 - 2 p'^T a_i. The
    right-hand-side entry expands ||p'(t)||^2 + 2 p'(t)^T (b + t u).
    """
    alpha_b = float(iterate.coeffs[-1])
    if alpha_b < ALPHA_FLOOR:
        raise AlphaBVanishes(f"coefficient of -b(t) is {alpha_b:.3e}")
    base = _rebase(system, iterate, t0)
    u = system.u
    n = system.n
    u_sq = float(u @ u)
    base_sq = float(base @ base)
    base_u = float(base @ u)
    col_u = system.at_u
    col_base = system.a.T @ base
    c2 = alpha_b * alpha_b * u_sq
    quads = [
        ShiftQuadratic(
            index=i,
            c2=c2,
            c1=-2.0 * alpha_b * (base_u - float(col_u[i])),
            c0=base_sq - 2.0 * float(col_base[i]),
        )
        for i in range(n)
    ]
    quads.append(
        ShiftQuadratic(
            index=n,
            c2=alpha_b * (alpha_b - 2.0) * u_sq,
            c1=2.0 * (1.0 - alpha_b) * base_u - 2.0 * alpha_b * float(u @ system.b),
            c0=base_sq + 2.0 * float(base @ system.b),
            is_rhs=True,
        )
    )
    return quads


def _larger_root(c2: float, c1: float, c0: float) -> float:
    """Larger real root of an upward quadratic known to dip negative.

    Uses the sign of c1 to pick the cancellation-free form; when the
    discriminant sits within roundoff of zero, falls back to the Cauchy
    upper bound 1 + max(|c1|, |c0|) / c2 on the roots.
    """
    disc = c1 * c1 - 4.0 * c2 * c0
    scale = max(c1 * c1, abs(4.0 * c2 * c0), 1e-300)
    if disc <= 1e-12 * scale:
        return 1.0 + max(abs(c1), abs(c0)) / c2
    s = math.sqrt(disc)
    if c1 >= 0.0:
        return -2.0 * c0 / (c1 + s)
    return (s - c1) / (2.0 * c2)


def _smaller_root(c2: float, c1: float, c0: float) -> float | None:
    """Smaller real root of a downward quadratic, or None without one.

    Works on the negated, upward quadratic and uses the sign of its linear
    coefficient to pick the cancellation-free form.
    """
    c2, c1, c0 = -c2, -c1, -c0
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    if c1 >= 0.0:
        return -(c1 + s) / (2.0 * c2)
    return 2.0 * c0 / (s - c1)


def next_shift(
    quadratics: list[ShiftQuadratic], t0: float, quantum: int | None = 1
) -> float:
    """Smallest shift beyond t0 at which some quadratic becomes nonnegative.

    Each column quadratic contributes its larger root. The downward
    right-hand-side quadratic, negative at t0, contributes its smaller
    root when that root lies beyond t0: there -b(t) becomes a pivot.
    quantum = None returns the raw minimal root; otherwise the increase
    over t0 is rounded up to a positive multiple of quantum so that
    consecutive shifts differ by a natural number.
    """
    upward = [q for q in quadratics if not q.is_rhs and q.c2 > 0.0]
    if not upward:
        raise NoPositiveQuadratic(
            "no column quadratic opens upward; the -b(t) coefficient is zero"
        )
    raw = min(_larger_root(q.c2, q.c1, q.c0) for q in upward)
    for q in quadratics:
        if q.is_rhs and q.c2 < 0.0:
            root = _smaller_root(q.c2, q.c1, q.c0)
            if root is not None and t0 < root < raw:
                raw = root
    if quantum is None:
        return raw
    if quantum < 1:
        raise ValueError("quantum must be a positive integer")
    excess = max(raw - t0, ROOT_TINY)
    return t0 + quantum * math.ceil(excess / quantum)


def _reseed(instance: HullInstance, iterate: Iterate) -> Iterate:
    """Move half the mass onto -b(t0) when its coefficient vanished.

    Keeps the point inside the hull while restoring a positive -b(t)
    coefficient, which the shift quadratics need.
    """
    coeffs = 0.5 * iterate.coeffs
    coeffs[-1] += 0.5
    return make_iterate(instance, coeffs)


def _default_escalation_cap(system: LinearSystem) -> int:
    analysis = bounds.analyze_system(system)
    log_prime = analysis.log_tau_star_prime
    if analysis.near_singular or not math.isfinite(log_prime):
        return DEFAULT_PHASE_CAP
    if log_prime < math.log(DEFAULT_PHASE_CAP / 10.0):
        return math.ceil(10.0 * max(math.exp(log_prime), 1.0))
    return DEFAULT_PHASE_CAP


def solve_incremental(
    system: LinearSystem,
    config: SolveConfig,
    *,
    policy: str = POLICY_QUANTIZED,
    quantum: int | None = 1,
    tau_hook=None,
) -> SolveOutcome:
    """Solve A x = b with no sign assumption, to relative residual epsilon0.

    The loop per pass: recover x0 from the iterate, move the shift t to the
    tau0 >= t minimizing E(t) = ||A x0 - (b + t u)||, in O(n) from the
    iterate, and stop with x = x0 - tau0 e once ||A x - b|| <= epsilon0 * rho.
    That residual costs O(n^2), so it is computed only when the estimate
    E = gap / alpha_b comes within PROXY_MARGIN of the target at t or at
    tau0 and, as a backstop, once every n steps; it is the only stop
    test. When the estimate at t was near and tau0 != t, the residual
    at t is computed too, and t is kept when it passes and tau0's residual
    is not smaller. Otherwise take one Triangle step at tau0, or, when the
    iterate is a witness, raise the shift to the next quadratic root
    (policy "quantized", increase rounded up to a multiple of quantum) or
    to 2 t + 1 (policy "double_plus_one") and warm-start from the same
    coefficients.

    tau_hook, when given, post-processes that same tau0 (clamped below by
    the current shift) and skips the estimate at the current shift; it
    exists to reproduce hand-worked shift sequences in tests.

    Another policy, or a quantum below 1, raises ValueError before the
    first step. Steps are capped by config.max_iterations
    (DEFAULT_PHASE_CAP when unset), escalations by a cap from the a-priori
    shift bound tau'_*, computed at the first escalation;
    diagnostics["max_escalations"] stays None in a solve that never
    escalates.
    """
    if policy not in (POLICY_QUANTIZED, POLICY_DOUBLE_PLUS_ONE):
        raise ValueError(f"unknown increment policy {policy!r}")
    if quantum is not None and quantum < 1:
        raise ValueError("quantum must be a positive integer")
    n = system.n
    rho = system.rho
    eps0 = config.epsilon0
    threshold = eps0 * rho
    proxy_gate = threshold * (1.0 + PROXY_MARGIN)
    u_sq = float(system.u @ system.u)

    max_steps = config.max_iterations or DEFAULT_PHASE_CAP

    t0 = 0.0
    instance = shifted_instance(system, t0)
    iterate = initial_iterate(instance, config.init_rule, config.init_coeffs)
    trace: list[TraceRecord] | None = [] if config.record_trace else None
    steps = 0
    escalations = 0
    reseeds = 0
    shifts = [t0]
    diagnostics: dict = {
        "policy": policy,
        "max_escalations": None,
        "max_steps": max_steps,
    }

    def outcome(status, x=None, residual=None):
        diagnostics.update(escalations=escalations, reseeds=reseeds, shifts=shifts)
        if status == SOLVE_CAP_EXCEEDED:
            diagnostics["last_t"] = t0
        return SolveOutcome(
            status=status,
            iterations=steps,
            x=x,
            residual_norm=residual,
            relative_residual=None if residual is None else residual / rho,
            shift_t=t0,
            trace=trace,
            diagnostics=diagnostics,
        )

    while True:
        # Step 1: re-optimize the shift for the current x0, test the stop rule.
        if float(iterate.coeffs[-1]) < ALPHA_FLOOR:
            iterate = _reseed(instance, iterate)
            reseeds += 1
        alpha_b = float(iterate.coeffs[-1])
        t = t0
        near = tau_hook is None and iterate.gap / alpha_b <= proxy_gate
        tau0 = _optimal_shift(system, iterate, t0, u_sq)
        if tau_hook is not None:
            tau0 = max(t0, float(tau_hook(tau0)))
        if tau0 != t0:
            iterate = move_shift(system, instance, iterate, t0, tau0)
            t0 = tau0
        if near or iterate.gap / alpha_b <= proxy_gate or steps % n == 0:
            # x = x0 - t0 e; the move kept the coefficients.
            x0 = recover_solution(iterate, system)
            x = x0 - t0
            residual = system.residual_norm(x)
            if near and t != t0:
                # Once x0 solves the system, u^T p' is rounding noise, so
                # tau0 replaces a passing shift t only with a smaller residual.
                x_t = x0 - t
                residual_t = system.residual_norm(x_t)
                if residual_t <= min(residual, threshold):
                    x, residual, t0 = x_t, residual_t, t
            if residual <= threshold:
                if trace is not None:
                    trace.append(TraceRecord(steps, t0, residual, alpha_b, None, False))
                return outcome(CONVERGED, x, residual)

        # Step 2: witness check via pivot search; Step 3: shift escalation.
        j = find_pivot(instance, iterate)
        while j is None:
            if policy == POLICY_DOUBLE_PLUS_ONE:
                new_t = 2.0 * t0 + 1.0
            else:
                try:
                    new_t = next_shift(build_quadratics(system, iterate, t0), t0, quantum)
                except NoPositiveQuadratic:
                    iterate = _reseed(instance, iterate)
                    reseeds += 1
                    j = find_pivot(instance, iterate)
                    continue
            escalations += 1
            if diagnostics["max_escalations"] is None:
                diagnostics["max_escalations"] = _default_escalation_cap(system)
            if escalations > diagnostics["max_escalations"]:
                return outcome(SOLVE_CAP_EXCEEDED)
            iterate = move_shift(system, instance, iterate, t0, new_t)
            t0 = new_t
            shifts.append(t0)
            if trace is not None:
                trace.append(
                    TraceRecord(steps, t0, iterate.gap, float(iterate.coeffs[-1]), None, True)
                )
            j = find_pivot(instance, iterate)

        if steps >= max_steps:
            return outcome(SOLVE_CAP_EXCEEDED)
        alpha = step_size(instance.target, iterate, instance.points[:, j])
        iterate = apply_step(instance, iterate, j, alpha)
        steps += 1
        if trace is not None:
            # ||p'(t)|| / alpha_b equals the residual of the recovered x0.
            new_ab = float(iterate.coeffs[-1])
            estimate = (
                iterate.gap / new_ab if new_ab >= ALPHA_FLOOR else iterate.gap
            )
            trace.append(TraceRecord(steps, t0, estimate, new_ab, j, False))

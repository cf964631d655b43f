"""Shared types for the linear system solvers.

A square system A x = b is viewed through its columns: solving it reduces to
asking whether the origin lies in conv({a_1, ..., a_n, -b}) (after a shift of
the right-hand side in the general case). The quantities rho and u = A e are
the scale and shift direction used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hull import (
    MAX_ITERATIONS,
    HullInstance,
    TraceRecord,
    Witness,
    check_run_settings,
    check_scale,
)

__all__ = [
    "SingularMatrixError",
    "LinearSystem",
    "shifted_instance",
    "place_shift",
    "SolveConfig",
    "SolveOutcome",
    "CONVERGED",
    "INFEASIBLE_NONNEG",
    "SOLVE_CAP_EXCEEDED",
    "ALPHA_FLOOR",
]

CONVERGED = "converged"
INFEASIBLE_NONNEG = "infeasible_nonneg"
SOLVE_CAP_EXCEEDED = "cap_exceeded"

# A coefficient of -b below this carries no usable weight: x0 = alpha / alpha_b
# is then unrecoverable and the shift quadratics degenerate.
ALPHA_FLOOR = 1e-12


class SingularMatrixError(ValueError):
    """The coefficient matrix is singular (or numerically indistinguishable)."""


class LinearSystem:
    """Square system A x = b held in column view.

    Exposes the column norms, rho = max(||a_1||, ..., ||a_n||, ||b||), the
    shift direction u = A e, and the scalars ||b||^2, u^T b and ||u||^2
    that the shifted right-hand side b(t) = b + t u is priced from; A^T A,
    A^T b and A^T u are formed once, at first use, for every reader. A
    system with no unknowns is refused, and a zero column is rejected
    outright since it makes A singular; data whose
    squared norms overflow, or whose nonzero columns' squared norms
    underflow, are rejected as out of scale, and so is a shift direction
    u = A e whose squared norm overflows or, with u nonzero, underflows.
    """

    def __init__(self, a, b):
        a = np.ascontiguousarray(a, dtype=float)
        b = np.ascontiguousarray(b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 1:
            raise ValueError("matrix must be square and right-hand side 1-d")
        n = a.shape[0]
        if n == 0:
            raise ValueError("system must have at least one unknown")
        if b.size != n:
            raise ValueError(f"matrix is {n}x{n}, right-hand side has length {b.size}")
        if not np.isfinite(a).all() or not np.isfinite(b).all():
            raise ValueError("matrix and right-hand side must be finite")
        if not a.any(axis=0).all():
            raise SingularMatrixError("matrix has a zero column")
        column_norms = np.sqrt(check_scale(a, "matrix"))
        check_scale(b[:, None], "right-hand side")
        self.a = a
        self.b = b
        self.column_norms = column_norms
        self.norm_b = float(np.linalg.norm(b))
        self.rho = max(float(column_norms.max()), self.norm_b)
        self.u = u = a @ np.ones(n)
        check_scale(u[:, None], "A e")
        self.b_sq = float(b @ b)
        self.u_b = float(u @ b)
        self.u_sq = float(u @ u)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def gram(self) -> np.ndarray:
        """A^T A, the columns' Gram matrix. Do not modify it."""
        return self.a.T @ self.a

    @cached_property
    def at_u(self) -> np.ndarray:
        """A^T u, the columns' products with the shift direction."""
        return self.a.T @ self.u

    @cached_property
    def at_b(self) -> np.ndarray:
        """A^T b, the columns' products with the right-hand side."""
        return self.a.T @ self.b

    def shift_border(self, t: float) -> np.ndarray:
        """-b(t)'s products with the columns and itself, in O(n): -(A^T b +
        t A^T u) and ||b(t)||^2 = ||b||^2 + 2 t u^T b + t^2 ||u||^2, clamped
        at 0. Each is accurate to a few eps of its terms' magnitudes, not of
        its value, which cancels where b(t) nearly vanishes."""
        border = np.empty(self.b.size + 1)
        head = border[:-1]
        np.multiply(self.at_u, -t, out=head)
        head -= self.at_b
        border[-1] = max(0.0, self.b_sq + t * (2.0 * self.u_b + t * self.u_sq))
        return border

    def residual_norm(self, x: np.ndarray) -> float:
        """||A x - b||."""
        return float(np.linalg.norm(self.a @ x - self.b))


def shifted_instance(system: LinearSystem, t: float) -> HullInstance:
    """Hull instance for conv({a_1, ..., a_n, -b(t)}) against the origin:
    [A | 0] with a copy of system.gram padded by a zero border, into
    which place_shift writes -b(t) and its border."""
    points = np.hstack([system.a, np.zeros((system.n, 1))])
    gram = np.pad(system.gram, (0, 1))
    instance = HullInstance(points, np.zeros(system.n), gram=gram)
    place_shift(system, instance, t)
    return instance


def place_shift(system: LinearSystem, instance: HullInstance, t: float) -> None:
    """Write -b(t) = -t u - b into the instance's last point in place, and
    its Gram border shift_border(t) through move_last_point: the one
    writer of -b(t), for a build and for every shift move alike."""
    last = instance.points[:, -1]
    np.multiply(system.u, -t, out=last)
    last -= system.b
    instance.move_last_point(system.shift_border(t))


@dataclass
class SolveConfig:
    """Settings both solvers read.

    epsilon0 is the target relative residual: the solvers stop once
    ||A x - b|| <= epsilon0 * rho. max_iterations, MAX_ITERATIONS unless
    set, caps the Triangle steps (solve_nonneg: each phase;
    solve_incremental: all of them, and separately its escalations).
    init_coeffs are convex weights over the n + 1 points a_1, ..., a_n, -b
    to start from, used as they are; None starts solve_nonneg at the point
    nearest the origin, as in HullConfig, and solve_incremental half on
    that point and half on -b(0) (the nonneg Phase 1 always starts from
    the nearest column). record_trace keeps the per-step rows. The
    settings of one solver alone are its keyword arguments.
    """

    epsilon0: float = 1e-8
    max_iterations: int = MAX_ITERATIONS
    init_coeffs: np.ndarray | None = None
    record_trace: bool = False

    def __post_init__(self):
        check_run_settings(self)
        if not 0.0 < self.epsilon0 < 1.0:
            raise ValueError("epsilon0 must lie strictly between 0 and 1")


@dataclass
class SolveOutcome:
    """Result of a linear system solve.

    On CONVERGED, x holds the approximate solution with
    relative_residual = residual_norm / rho <= epsilon0. On
    INFEASIBLE_NONNEG, witness certifies that the origin is outside
    conv({a_1, ..., a_n, -b(shift_t)}).
    """

    status: str
    iterations: int
    x: np.ndarray | None = None
    residual_norm: float | None = None
    relative_residual: float | None = None
    shift_t: float = 0.0
    phase1_delta0_prime: float | None = None
    inner_epsilon: float | None = None
    witness: Witness | None = None
    trace: list[TraceRecord] | None = None
    diagnostics: dict = field(default_factory=dict)

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

from .hull import HullConfig, Witness

__all__ = [
    "SingularMatrixError",
    "LinearSystem",
    "SolveConfig",
    "SolveOutcome",
    "SolveTraceRecord",
    "DELTA0_FROM_PHASE1",
    "DELTA0_USER",
    "DELTA0_SKIP",
    "CONVERGED",
    "INFEASIBLE_NONNEG",
    "SOLVE_CAP_EXCEEDED",
    "ALPHA_FLOOR",
]

DELTA0_FROM_PHASE1 = "phase1"
DELTA0_USER = "user"
DELTA0_SKIP = "skip"

CONVERGED = "converged"
INFEASIBLE_NONNEG = "infeasible_nonneg"
SOLVE_CAP_EXCEEDED = "cap_exceeded"

# A coefficient of -b below this carries no usable weight: x0 = alpha / alpha_b
# is then unrecoverable and the shift quadratics degenerate.
ALPHA_FLOOR = 1e-12


class SingularMatrixError(Exception):
    """The coefficient matrix is singular (or numerically indistinguishable)."""


class LinearSystem:
    """Square system A x = b held in column view.

    Exposes the column norms, rho = max(||a_1||, ..., ||a_n||, ||b||), the
    shift direction u = A e, and the shifted scale rho(t) with b replaced by
    b + t u. A zero column is rejected outright since it makes A singular.
    """

    def __init__(self, a, b):
        a = np.ascontiguousarray(a, dtype=float)
        b = np.ascontiguousarray(b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        n = a.shape[0]
        if b.shape != (n,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},)")
        if not np.isfinite(a).all() or not np.isfinite(b).all():
            raise ValueError("matrix and right-hand side must be finite")
        column_norms = np.sqrt(np.einsum("ij,ij->j", a, a))
        if (column_norms == 0.0).any():
            raise SingularMatrixError("matrix has a zero column")
        self.a = a
        self.b = b
        self.column_norms = column_norms
        self.max_column_norm = float(column_norms.max())
        self.norm_b = float(np.linalg.norm(b))
        self.rho = max(self.max_column_norm, self.norm_b)
        self.u = a @ np.ones(n)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def at_u(self) -> np.ndarray:
        """A^T u, the columns' products with the shift direction."""
        return self.a.T @ self.u

    @cached_property
    def at_b(self) -> np.ndarray:
        """A^T b, the columns' products with the right-hand side."""
        return self.a.T @ self.b

    def rhs_shifted(self, t: float) -> np.ndarray:
        """b(t) = b + t u."""
        return self.b + t * self.u

    def rho_of_t(self, t: float) -> float:
        """max(||a_1||, ..., ||a_n||, ||b + t u||); equals rho at t = 0."""
        return max(self.max_column_norm, float(np.linalg.norm(self.rhs_shifted(t))))

    def residual_norm(self, x: np.ndarray) -> float:
        """||A x - b||."""
        return float(np.linalg.norm(self.a @ x - self.b))


@dataclass
class SolveConfig:
    """Settings shared by the nonnegative-solution and incremental solvers.

    epsilon0 is the target relative residual: the solvers stop once
    ||A x - b|| <= epsilon0 * rho. delta0_policy controls where the lower
    bound on the hull-to-origin distance comes from: a Phase 1 witness, a
    user-supplied value, or skipped entirely (eigenvalue-bound fallback,
    with the direct residual check standing alone as the guarantee).
    """

    epsilon0: float = 1e-8
    delta0_policy: str = DELTA0_FROM_PHASE1
    delta0_user: float | None = None
    hull: HullConfig | None = None
    residual_first: bool = True
    record_trace: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon0 < 1.0:
            raise ValueError("epsilon0 must lie strictly between 0 and 1")
        if self.delta0_policy not in (DELTA0_FROM_PHASE1, DELTA0_USER, DELTA0_SKIP):
            raise ValueError(f"unknown delta0 policy {self.delta0_policy!r}")
        if self.delta0_policy == DELTA0_USER:
            if self.delta0_user is None or self.delta0_user <= 0.0:
                raise ValueError("delta0_policy 'user' requires a positive delta0_user")


@dataclass
class SolveTraceRecord:
    iteration: int
    t: float
    value: float  # hull gap or current residual estimate, by context
    alpha_b: float | None
    pivot: int | None
    witness: bool


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
    trace: list[SolveTraceRecord] | None = None
    diagnostics: dict = field(default_factory=dict)

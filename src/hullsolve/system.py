"""Shared types for the linear system solvers, their one stop rule and
their one scale rule.

A square system A x = b is viewed through its columns: solving it reduces to
asking whether the origin lies in conv({a_1, ..., a_n, -b}) (after a shift of
the right-hand side in the general case). The quantities rho and u = A e are
the scale and shift direction used throughout.

Both solvers stop by checked_solution: it recovers x = alpha / alpha_b - t
from an iterate's convex coefficients (recover_solution) and stops once
||A x - b|| <= epsilon0 * rho, forming that O(n^2) residual only when its
O(1) estimate gap / alpha_b comes within PROXY_MARGIN of the target and,
as a backstop, once every n steps.

A LinearSystem stores A and b times the power of two that puts their
largest |entry| in [1/2, 1). That scaling is exact and changes no decision
of either solver, so both run on the stored system, and both build their
outcome by solve_outcome, which takes each value with units back to the
units of A and b, once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hull import (
    MAX_ITERATIONS,
    HullInstance,
    Iterate,
    TraceRecord,
    Witness,
    check_run_settings,
    check_scale,
)

__all__ = [
    "AlphaBVanishes",
    "SingularMatrixError",
    "LinearSystem",
    "shifted_instance",
    "place_shift",
    "SolveConfig",
    "start_coeffs",
    "SolveOutcome",
    "recover_solution",
    "checked_solution",
    "solve_outcome",
    "CONVERGED",
    "INFEASIBLE_NONNEG",
    "ALPHA_FLOOR",
]

CONVERGED = "converged"
INFEASIBLE_NONNEG = "infeasible_nonneg"

# A coefficient of -b below this carries no usable weight: x0 = alpha / alpha_b
# is then unrecoverable and the shift quadratics degenerate.
ALPHA_FLOOR = 1e-12

# The exact residual ||A x0 - b|| costs O(n^2), its estimate gap / alpha_b
# O(1). They are equal in exact arithmetic; on column-normalised Gaussian
# systems of n = 12 to 800 at epsilon0 = 0.001 to 0.005 they differed by at
# most 7.5e-13 of the target epsilon0 * rho over every Phase 2 step. An
# estimate above the target by more than this relative margin therefore
# hides no passing residual; one that did would only delay the stop to the
# next backstop check.
PROXY_MARGIN = 1e-6


class SingularMatrixError(ValueError):
    """The coefficient matrix is singular (or numerically indistinguishable)."""


class AlphaBVanishes(ValueError):
    """The iterate places (numerically) no weight on -b; x0 is unrecoverable."""


class LinearSystem:
    """Square system A x = b held in column view, stored times one power
    of two.

    exponent is the k that puts the largest |entry| of A and b in [1/2, 1)
    once multiplied by 2^k (from math.frexp), and a and b hold 2^k A and
    2^k b, scaled by np.ldexp: exactly, all-subnormal data included, for
    every entry that stays a normal number. x, the shift t, alpha_b and
    every decision of the Triangle Algorithm, the stop test ||A x - b||
    <= epsilon0 * rho included, are the same for the stored system as for
    A and b, so the solvers and the kernel run on it as it is, and no
    square of an entry overflows. Everything below is in stored units;
    unscaled takes a norm or a square back to the units of A and b, as
    each outcome (solve_outcome) and report does once, on the way out.

    Exposes ||b||, rho = max(||a_1||, ..., ||a_n||, ||b||), the shift
    direction u = A e, and the scalars ||b||^2, u^T b and ||u||^2 that the
    shifted right-hand side b(t) = b + t u is priced from; A^T A, A^T b
    and A^T u are formed once, at first use, for every reader. A system
    with no unknowns or with an entry that is not finite is refused, and a
    zero column of the stored A is rejected outright since it makes A
    singular. What stays of scale is one spread check: a nonzero column, b
    or A e whose squared norm underflows to 0 in stored units, about 2^537
    or more below the largest entry, is refused as "too small".

    The system writes 2^k A once, into the first n columns of an n x (n +
    1) array whose last column holds -b(t), and forms A^T A into the
    leading block of an (n + 1) x (n + 1) array whose last row and column
    hold -b(t)'s products: a and gram are views of them, and hull is the
    one HullInstance on both, conv({a_1, ..., a_n, -b(t)}) against the
    origin, which place_shift moves from shift to shift in place. at_u and
    at_b are the first n entries of (n + 1)-long arrays whose last entry is
    0, so that a shift writes the Gram border, and moves an iterate's
    products, as whole rows. So two solves on one system must not run at
    the same time, as in two threads; solves one after another are safe,
    since each places -b(t) for itself.
    """

    def __init__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 1:
            raise ValueError("matrix must be square and right-hand side 1-d")
        n = a.shape[0]
        if n == 0:
            raise ValueError("system must have at least one unknown")
        if b.size != n:
            raise ValueError(f"matrix is {n}x{n}, right-hand side has length {b.size}")
        # NaN and inf carry into the largest |entry|.
        top = float(np.max([a.max(), -a.min(), b.max(), -b.min()]))
        if not math.isfinite(top):
            raise ValueError("matrix and right-hand side must be finite")
        self.n = n
        self.exponent = k = -math.frexp(top)[1]
        self.a = np.ldexp(a, k, out=np.zeros((n, n + 1))[:, :n])
        self.b = b = np.ldexp(b, k)
        if not self.a.any(axis=0).all():
            raise SingularMatrixError("matrix has a zero column")
        # The spread check: in stored units no square overflows, and one
        # that underflows to 0 lies next to a largest entry in [1/2, 1).
        column_sq = check_scale(self.a, "matrix")
        check_scale(b[:, None], "right-hand side")
        self.u = u = self.a @ np.ones(n)
        check_scale(u[:, None], "A e")
        self.b_sq = float(b @ b)
        self.u_b = float(u @ b)
        self.u_sq = float(u @ u)
        self.norm_b = math.sqrt(self.b_sq)
        self.rho = max(math.sqrt(float(column_sq.max())), self.norm_b)

    def unscaled(self, value, power: int = 1):
        """value, a norm (power 1) or a square (power 2) formed on the
        stored system, or an array of them, in the units of A and b: exact
        wherever it is representable, and inf beyond double range."""
        with np.errstate(over="ignore"):
            scaled = np.ldexp(value, -power * self.exponent)
        return scaled if isinstance(value, np.ndarray) else float(scaled)

    @cached_property
    def gram(self) -> np.ndarray:
        """A^T A, the columns' Gram matrix: the leading block of hull's
        Gram matrix. Do not modify it."""
        n = self.n
        return np.matmul(self.a.T, self.a, out=np.zeros((n + 1, n + 1))[:n, :n])

    @cached_property
    def hull(self) -> ShiftedHull:
        """The system's one shifted hull, its last point -b(t) where
        place_shift last put it (0 before the first); shifted_instance
        places it."""
        return ShiftedHull(self)

    @cached_property
    def at_u(self) -> np.ndarray:
        """A^T u, the columns' products with the shift direction."""
        return np.matmul(self.a.T, self.u, out=np.zeros(self.n + 1)[: self.n])

    @cached_property
    def at_b(self) -> np.ndarray:
        """A^T b, the columns' products with the right-hand side."""
        return np.matmul(self.a.T, self.b, out=np.zeros(self.n + 1)[: self.n])

    def residual_norm(self, x: np.ndarray) -> float:
        """||A x - b||."""
        return float(np.linalg.norm(self.a @ x - self.b))


class ShiftedHull(HullInstance):
    """A LinearSystem's one hull, conv({a_1, ..., a_n, -b(t)}) against the
    origin, on the system's [2^k A | -b(t)] and bordered Gram matrix.

    row and column are the views of the Gram matrix's last row and column
    that place_shift writes -b(t)'s products into. shift is the t whose
    point place_shift has placed and not yet written: points writes it,
    -t u - b into its last column, when it is next read, so a shift move,
    which reads no point, does not write one.
    """

    def __init__(self, system: LinearSystem):
        gram = system.gram.base
        super().__init__(system.a.base, np.zeros(system.n), gram=gram)
        self.u, self.b = system.u, system.b
        self.row, self.column = gram[-1], gram[:, -1]
        self.shift: float | None = None

    @property
    def points(self) -> np.ndarray:
        if self.shift is not None:
            last = self._points[:, -1]
            np.multiply(self.u, -self.shift, last)
            last -= self.b
            self.shift = None
        return self._points

    @points.setter
    def points(self, points: np.ndarray) -> None:
        self._points = points


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


def checked_solution(
    system: LinearSystem, iterate: Iterate, epsilon0: float, steps: int, t: float = 0.0
) -> tuple[np.ndarray, float] | None:
    """The stop rule of both solvers, for an iterate over conv({a_1, ...,
    a_n, -b(t)}) with alpha_b >= ALPHA_FLOOR after steps steps: (x,
    ||A x - b||) for x = x0 - t e once that residual is at most epsilon0 *
    rho, else None.

    The residual costs O(n^2) and is the only stop test, so it is formed
    only when its O(1) estimate gap / alpha_b comes within PROXY_MARGIN of
    the target or, as a backstop, when steps is a multiple of n: O(n) a
    step amortised.
    """
    threshold = epsilon0 * system.rho
    estimate = math.sqrt(iterate.point_sq) / iterate.coeffs.item(-1)
    if estimate <= threshold * (1.0 + PROXY_MARGIN) or steps % system.n == 0:
        x = recover_solution(iterate, system) - t
        residual = system.residual_norm(x)
        if residual <= threshold:
            return x, residual
    return None


def shifted_instance(system: LinearSystem, t: float) -> HullInstance:
    """system.hull, conv({a_1, ..., a_n, -b(t)}) against the origin, with
    -b(t) placed by place_shift. Allocates nothing after the first call."""
    place_shift(system, t)
    return system.hull


def place_shift(system: LinearSystem, t: float) -> None:
    """Move system.hull to shift t in place, in O(n): -b(t)'s squared norm
    and the last row and column of the Gram matrix now, -(A^T b + t A^T u)
    and ||b(t)||^2 = ||b||^2 + 2 t u^T b + t^2 ||u||^2 clamped at 0, and
    its point -b(t) = -t u - b, from the t it records, at the next read of
    the hull's points (see ShiftedHull), which only an iterate formed from
    V c or a certificate makes. The one function that places -b(t), for a
    build and for every shift move alike. Each product is accurate to a
    few eps of its terms' magnitudes, not of its value, which cancels
    where b(t) nearly vanishes."""
    hull = system.hull
    row = hull.row
    np.multiply(system.at_u.base, -t, row)  # A^T u and A^T b with their trailing 0
    row -= system.at_b.base
    b_t_sq = max(0.0, system.b_sq + t * (2.0 * system.u_b + t * system.u_sq))
    row[-1] = hull.sq_norms[-1] = b_t_sq
    hull.column[:] = row
    hull.shift = t


def start_coeffs(init_coeffs: np.ndarray | None, n: int) -> np.ndarray:
    """The weights over a_1, ..., a_n, -b that a solve starts from:
    init_coeffs, or the centroid, 1/(n + 1) on each, when None."""
    if init_coeffs is None:
        return np.full(n + 1, 1.0 / (n + 1))
    return init_coeffs


@dataclass
class SolveConfig:
    """Settings both solvers read.

    epsilon0 is the target relative residual: the solvers stop once
    ||A x - b|| <= epsilon0 * rho. max_iterations, MAX_ITERATIONS unless
    set, caps the Triangle steps (solve_nonneg: each phase;
    solve_incremental: all of them, and separately its escalations).
    init_coeffs are convex weights over the n + 1 points a_1, ..., a_n, -b
    to start from, used as they are; None starts both solvers at their
    centroid, weight 1/(n + 1) on each (start_coeffs; the nonneg Phase 1
    always starts from the nearest column). record_trace keeps the
    per-step rows. The settings of one solver alone are its keyword
    arguments.
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


def solve_outcome(
    system: LinearSystem, status: str, iterations: int, residual: float | None = None, **fields
) -> SolveOutcome:
    """The SolveOutcome of a solve on system, from values formed in stored
    units: relative_residual = residual / rho, and every value with units
    taken back to those of A and b by system.unscaled, here and nowhere
    else. These are the residual, phase1_delta0_prime, diagnostics'
    last_gap, the trace's values, and the witness: its margins and its
    iterate's products and squared norm as squares, its distance bracket.
    x, the shift, alpha_b, the counts and the relative values have none."""
    unscaled = system.unscaled
    outcome = SolveOutcome(status, iterations, **fields)
    if residual is not None:
        outcome.residual_norm = unscaled(residual)
        outcome.relative_residual = residual / system.rho
    if outcome.phase1_delta0_prime is not None:
        outcome.phase1_delta0_prime = unscaled(outcome.phase1_delta0_prime)
    if "last_gap" in outcome.diagnostics:
        outcome.diagnostics["last_gap"] = unscaled(outcome.diagnostics["last_gap"])
    if outcome.trace:
        values = unscaled(np.array([record.value for record in outcome.trace]))
        for record, value in zip(outcome.trace, values.tolist()):
            record.value = value
    if (witness := outcome.witness) is not None:
        witness.margins = unscaled(witness.margins, 2)
        witness.distance_bracket = tuple(unscaled(d) for d in witness.distance_bracket)
        iterate = witness.iterate
        iterate.dot_cache = unscaled(iterate.dot_cache, 2)
        iterate.point_sq = unscaled(iterate.point_sq, 2)
        iterate.point_sq_scale = unscaled(iterate.point_sq_scale, 2)
    return outcome

"""A-priori bounds derived from Q = A^T A.

Two families of quantities are computed here: an eigenvalue lower bound on
the distance from the origin to the convex hull of the columns of A, and
overflow-safe upper bounds on the shift needed to make the solution of the
shifted system nonnegative (Hadamard / Cramer determinant bounds). Products
of n column norms overflow doubles for modest n, so the shift bounds are
evaluated in log space and only materialized linearly when representable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .system import LinearSystem

__all__ = ["SystemAnalysis", "analyze_system", "delta0_lower_bound", "tau_star_bounds"]

log = logging.getLogger(__name__)

# lambda_min below this fraction of lambda_max is treated as numerically zero.
NEAR_SINGULAR_RATIO = 1e-14

# exp() overflows just above 709; stay a little under.
LINEAR_REPRESENTABLE_LOG = 700.0

RAYLEIGH_TOL = 1e-10


@dataclass
class SystemAnalysis:
    """Spectral and determinant-based diagnostics for a system.

    delta0_lower is the bound actually safe to use downstream:
    min(lambda_min, sqrt(lambda_min)) / sqrt(n). delta0_lower_stated is the
    plain lambda_min / sqrt(n) form, which can exceed the true distance when
    lambda_min > 1; the two are both reported and a discrepancy is flagged
    rather than silently corrected.
    """

    lambda_min: float
    lambda_max: float
    det_q: float | None
    log_det_q: float
    q_norms: np.ndarray
    q_min: float
    w_norm: float
    delta0_lower: float
    delta0_lower_stated: float
    bound_discrepancy: bool
    log_tau_star: float
    log_tau_star_prime: float
    tau_star: float | None
    tau_star_prime: float | None
    near_singular: bool


def _rayleigh(q: np.ndarray, z: np.ndarray) -> float:
    return float(z @ (q @ z)) / float(z @ z)


def _power_iteration_max(q: np.ndarray, cap: int) -> float:
    """Largest eigenvalue of symmetric positive semidefinite q.

    Starts from the all-ones vector unless q maps it to zero (A e = 0), and
    then from the unit vector on q's largest diagonal entry, which q cannot
    map to zero.
    """
    n = q.shape[0]
    z = np.ones(n) / math.sqrt(n)
    if not (q @ z).any():
        z = np.zeros(n)
        z[int(np.argmax(np.diag(q)))] = 1.0
    lam = _rayleigh(q, z)
    for _ in range(cap):
        y = q @ z
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        z = y / norm
        new = _rayleigh(q, z)
        if abs(new - lam) <= RAYLEIGH_TOL * abs(new):
            return new
        lam = new
    return lam


def _inverse_iteration_min(q: np.ndarray, cap: int) -> float | None:
    """Smallest eigenvalue of q via inverse power iteration.

    Two deterministic seeds are probed (all-ones and an index ramp) and the
    smaller Rayleigh quotient is kept: a seed exactly orthogonal to the
    minimal eigenvector would otherwise converge to a larger eigenvalue.
    In exact arithmetic the quotient never rises from one iterate to the
    next, so a rise means rounding dominates and the iteration stops; the
    relative test alone can lie below that rounding when lambda_min is tiny.
    Returns None when q is not numerically positive definite.
    """
    n = q.shape[0]
    try:
        factor = cho_factor(q, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    best = math.inf
    for seed in (np.ones(n), np.arange(1.0, n + 1.0)):
        z = seed / np.linalg.norm(seed)
        lam = _rayleigh(q, z)
        for _ in range(cap):
            y = cho_solve(factor, z, check_finite=False)
            norm = np.linalg.norm(y)
            if norm == 0.0 or not np.isfinite(norm):
                break
            z = y / norm
            new = _rayleigh(q, z)
            if abs(new - lam) <= RAYLEIGH_TOL * abs(new) or new >= lam:
                lam = new
                break
            lam = new
        best = min(best, lam)
    return best


def analyze_system(system: LinearSystem) -> SystemAnalysis:
    """Full a-priori report: eigenvalue bound plus shift upper bounds."""
    a = system.a
    n = system.n
    q = a.T @ a
    q = 0.5 * (q + q.T)  # symmetrize roundoff
    cap = 10 * n

    lambda_max = _power_iteration_max(q, cap)
    lambda_min = _inverse_iteration_min(q, cap)

    q_norms = np.sqrt(np.einsum("ij,ij->j", q, q))
    q_min = float(q_norms.min())
    w = a.T @ system.b
    w_norm = float(np.linalg.norm(w))

    near_singular = lambda_min is None or lambda_min < NEAR_SINGULAR_RATIO * lambda_max
    if lambda_min is None:
        lambda_min = 0.0

    if near_singular:
        log_det = -math.inf
        det_q: float | None = None
        stated = 0.0
        safe = 0.0
        log_tau_star = math.inf
        log_tau_prime = math.inf
    else:
        # det(Q) from factoring Q itself; Cholesky gives log det = 2 sum log L_ii.
        chol = np.linalg.cholesky(q)
        log_det = 2.0 * float(np.log(np.diag(chol)).sum())
        det_q = math.exp(log_det) if log_det < LINEAR_REPRESENTABLE_LOG else None
        # The Rayleigh estimate approaches lambda_min from above; cap it by the
        # geometric mean of the eigenvalues so that n*log(lambda_min) never
        # exceeds log det(Q).
        lambda_min = min(lambda_min, math.exp(log_det / n))
        stated = lambda_min / math.sqrt(n)
        safe = min(lambda_min, math.sqrt(lambda_min)) / math.sqrt(n)
        log_num = float(np.log(q_norms).sum()) + (
            math.log(w_norm) if w_norm > 0.0 else -math.inf
        )
        log_tau_prime = log_num - math.log(q_min) - log_det
        log_tau_star = log_num - math.log(q_min) - n * math.log(lambda_min)

    discrepancy = stated != safe
    if discrepancy:
        log.info(
            "eigenvalue bound %.6g exceeds the provable form %.6g "
            "(lambda_min > 1); using the smaller value",
            stated,
            safe,
        )

    def materialize(value: float) -> float | None:
        if value == -math.inf:
            return 0.0
        if value < LINEAR_REPRESENTABLE_LOG:
            return math.exp(value)
        return None

    return SystemAnalysis(
        lambda_min=lambda_min,
        lambda_max=lambda_max,
        det_q=det_q,
        log_det_q=log_det,
        q_norms=q_norms,
        q_min=q_min,
        w_norm=w_norm,
        delta0_lower=safe,
        delta0_lower_stated=stated,
        bound_discrepancy=discrepancy,
        log_tau_star=log_tau_star,
        log_tau_star_prime=log_tau_prime,
        tau_star=materialize(log_tau_star) if not near_singular else None,
        tau_star_prime=materialize(log_tau_prime) if not near_singular else None,
        near_singular=near_singular,
    )


def delta0_lower_bound(system: LinearSystem) -> float:
    """Lower bound on the distance from the origin to conv(columns of A).

    Returns min(lambda_min, sqrt(lambda_min)) / sqrt(n) with lambda_min the
    smallest eigenvalue of A^T A, or 0.0 when the matrix is numerically
    singular (lambda_min below 1e-14 of lambda_max).
    """
    return analyze_system(system).delta0_lower


def tau_star_bounds(system: LinearSystem) -> tuple[float, float, dict]:
    """(log tau'_*, log tau_*, flags): shift upper bounds in log space.

    tau'_* uses det(Q) (Cramer + Hadamard), tau_* replaces det(Q) by
    lambda_min^n, so log tau_* >= log tau'_* always. flags reports
    near-singularity and which linear values overflowed.
    """
    analysis = analyze_system(system)
    flags = {
        "near_singular": analysis.near_singular,
        "tau_star_overflow": not analysis.near_singular and analysis.tau_star is None,
        "tau_star_prime_overflow": not analysis.near_singular
        and analysis.tau_star_prime is None,
    }
    return analysis.log_tau_star_prime, analysis.log_tau_star, flags

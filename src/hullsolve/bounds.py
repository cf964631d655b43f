"""A-priori bounds derived from Q = A^T A.

One dense symmetric eigenvalue call on Q gives lambda_min, lambda_max and
log det(Q) = sum log lambda_i. From them come two families of quantities:
an eigenvalue lower bound on the distance from the origin to the convex
hull of the columns of A, and overflow-safe upper bounds on the shift
needed to make the solution of the shifted system nonnegative (Hadamard /
Cramer determinant bounds). Products of n column norms overflow doubles for
modest n, so the shift bounds are evaluated in log space and only
materialized linearly when representable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .system import LinearSystem

__all__ = ["SystemAnalysis", "analyze_system"]

log = logging.getLogger(__name__)

# lambda_min below this fraction of lambda_max is treated as numerically zero.
NEAR_SINGULAR_RATIO = 1e-14

# exp() overflows just above 709; stay a little under.
LINEAR_REPRESENTABLE_LOG = 700.0


@dataclass
class SystemAnalysis:
    """Spectral and determinant-based diagnostics for a system.

    lambda_min, lambda_max and log_det_q are the extreme eigenvalues of Q
    and the log of its determinant; a negative lambda_min from rounding is
    reported as 0. near_singular is set when lambda_min is below
    NEAR_SINGULAR_RATIO * lambda_max; the bounds are then 0 or unavailable
    (None, log +inf) and log_det_q is -inf.

    delta0_lower is the bound actually safe to use downstream:
    min(lambda_min, sqrt(lambda_min)) / sqrt(n). delta0_lower_stated is the
    plain lambda_min / sqrt(n) form, which can exceed the true distance when
    lambda_min > 1; the two are both reported and a discrepancy is flagged
    rather than silently corrected. tau'_* divides by det(Q), tau_* by
    lambda_min^n, so log_tau_star >= log_tau_star_prime; tau_star and
    tau_star_prime are None where the linear value would overflow.
    """

    lambda_min: float
    lambda_max: float
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


def analyze_system(system: LinearSystem) -> SystemAnalysis:
    """Full a-priori report: eigenvalue bound plus shift upper bounds."""
    a = system.a
    n = system.n
    q = a.T @ a
    q = 0.5 * (q + q.T)  # symmetrize roundoff
    eigenvalues = np.linalg.eigvalsh(q)
    lambda_max = float(eigenvalues[-1])
    # Q is positive semidefinite; a negative eigenvalue is rounding.
    lambda_min = max(float(eigenvalues[0]), 0.0)

    q_norms = np.sqrt(np.einsum("ij,ij->j", q, q))
    q_min = float(q_norms.min())
    w_norm = float(np.linalg.norm(system.at_b))

    near_singular = lambda_min < NEAR_SINGULAR_RATIO * lambda_max

    if near_singular:
        log_det = -math.inf
        stated = 0.0
        safe = 0.0
        log_tau_star = math.inf
        log_tau_prime = math.inf
    else:
        log_det = float(np.log(eigenvalues).sum())
        # Rounding in the sum can leave n*log(lambda_min) a hair above
        # log det(Q); capping lambda_min by the geometric mean of the
        # eigenvalues keeps tau_* from falling below tau'_*.
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

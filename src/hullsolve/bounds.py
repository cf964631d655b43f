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


def _exponent(values: np.ndarray) -> int:
    """k with 2^k within a factor of two of max |values| (0 for all zeros)."""
    return math.frexp(float(np.abs(values).max()))[1]


def analyze_system(system: LinearSystem) -> SystemAnalysis:
    """Full a-priori report: eigenvalue bound plus shift upper bounds."""
    a = system.a
    n = system.n
    q = a.T @ a
    q = 0.5 * (q + q.T)  # symmetrize roundoff
    # Everything is computed from Q / 2^kq and A^T b / 2^kw, scaled by
    # powers of two near their largest entries, so that no square
    # underflows or overflows at any representable scale of A and b. The
    # scaling is exact, and the bounds' factors 2^kq and 2^kw cancel to
    # (kw - kq) log 2: the log bounds do not depend on the scale.
    kq = _exponent(q)
    q_scaled = np.ldexp(q, -kq)
    eigenvalues = np.linalg.eigvalsh(q_scaled)
    lambda_max = math.ldexp(float(eigenvalues[-1]), kq)
    # Q is positive semidefinite; a negative eigenvalue is rounding.
    lambda_min_scaled = max(float(eigenvalues[0]), 0.0)
    lambda_min = math.ldexp(lambda_min_scaled, kq)
    scaled_norms = np.sqrt(np.einsum("ij,ij->j", q_scaled, q_scaled))
    q_norms = np.ldexp(scaled_norms, kq)
    q_min = float(q_norms.min())
    w = system.at_b
    kw = _exponent(w)
    w_scaled = np.ldexp(w, -kw)
    w_norm_scaled = math.sqrt(float(w_scaled.dot(w_scaled)))
    w_norm = math.ldexp(w_norm_scaled, kw)

    near_singular = lambda_min_scaled < NEAR_SINGULAR_RATIO * float(eigenvalues[-1])

    if near_singular:
        log_det = -math.inf
        stated = 0.0
        safe = 0.0
        log_tau_star = math.inf
        log_tau_prime = math.inf
    else:
        log_det_scaled = float(np.log(eigenvalues).sum())
        log_det = log_det_scaled + n * kq * math.log(2.0)
        # Rounding in the sum can leave n*log(lambda_min) a hair above
        # log det(Q); capping lambda_min by the geometric mean of the
        # eigenvalues keeps tau_* from falling below tau'_*.
        lambda_min_scaled = min(lambda_min_scaled, math.exp(log_det_scaled / n))
        lambda_min = math.ldexp(lambda_min_scaled, kq)
        stated = lambda_min / math.sqrt(n)
        safe = min(lambda_min, math.sqrt(lambda_min)) / math.sqrt(n)
        # log(prod_i ||q_i|| * ||w|| / q_min), less its n factors 2^kq.
        log_num = (
            float(np.log(scaled_norms).sum())
            + (math.log(w_norm_scaled) if w_norm > 0.0 else -math.inf)
            - math.log(float(scaled_norms.min()))
            + (kw - kq) * math.log(2.0)
        )
        log_tau_prime = log_num - log_det_scaled
        log_tau_star = log_num - n * math.log(lambda_min_scaled)

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

"""A-priori bounds derived from Q = A^T A.

One dense symmetric eigenvalue call on Q gives lambda_min, lambda_max and
log det(Q) = sum log lambda_i. From them come two families of quantities:
an eigenvalue lower bound on the distance from the origin to the convex
hull of the columns of A, and overflow-safe upper bounds on the shift
needed to make the solution of the shifted system nonnegative (Hadamard /
Cramer determinant bounds). Products of n column norms overflow doubles for
modest n, so the shift bounds are evaluated in log space and only
materialized linearly when representable. Q is the stored system's (see
LinearSystem), so no square leaves double range at any scale of A and b.
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

# Unit roundoff of the eigenvalues' error bound n EPS lambda_max.
EPS = float(np.finfo(float).eps)

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
    sqrt(lambda_min / n), since ||A w|| >= sigma_min ||w||_2 >= sqrt(lambda_min)
    / sqrt(n) for every w in the simplex; it scales with A. delta0_lower_stated
    is the plain lambda_min / sqrt(n) form, which exceeds it exactly when
    lambda_min > 1; the two are both reported, and bound_discrepancy is set
    when lambda_min exceeds 1 by more than its rounding, n eps lambda_max,
    rather than silently corrected. tau'_* divides by det(Q), tau_* by
    lambda_min^n, so log_tau_star >= log_tau_star_prime; tau_star and
    tau_star_prime are None where the linear value would overflow.
    """

    lambda_min: float
    lambda_max: float
    log_det_q: float
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
    """Full a-priori report: eigenvalue bound plus shift upper bounds.

    Everything is computed from the stored system's Q and A^T b (see
    LinearSystem), which a scale of A and b leaves as they are, so that no
    square underflows or overflows at any scale; only a column or b some
    2^511 or more below the largest entry leaves squares subnormal, as it
    does in the solvers. The log bounds are ratios of like powers of the
    scale and do not depend on it; the other values are taken back to the
    units of A and b by ldexp, and log det(Q) by 2 exponent n log 2, at
    the end."""
    n = system.n
    q = system.gram  # symmetric bit for bit, as numpy forms A^T A
    eigenvalues = np.linalg.eigvalsh(q)
    lambda_max = float(eigenvalues[-1])
    # Q is positive semidefinite; a negative eigenvalue is rounding.
    lambda_min = max(float(eigenvalues[0]), 0.0)
    column_norms = np.sqrt(np.einsum("ij,ij->j", q, q))
    q_min = float(column_norms.min())
    w_norm = float(np.linalg.norm(system.at_b))

    near_singular = lambda_min < NEAR_SINGULAR_RATIO * lambda_max

    if near_singular:
        log_det, stated, safe, log_tau_star, log_tau_prime = -math.inf, 0.0, 0.0, math.inf, math.inf
    else:
        log_det = float(np.log(eigenvalues).sum())
        # Rounding in the sum can leave n*log(lambda_min) a hair above
        # log det(Q); capping lambda_min by the geometric mean of the
        # eigenvalues keeps tau_* from falling below tau'_*.
        lambda_min = min(lambda_min, math.exp(log_det / n))
        stated = system.unscaled(lambda_min / math.sqrt(n), 2)
        safe = system.unscaled(math.sqrt(lambda_min) / math.sqrt(n))
        # log(prod_i ||q_i|| * ||w|| / q_min).
        log_num = (
            float(np.log(column_norms).sum())
            + (math.log(w_norm) if w_norm > 0.0 else -math.inf)
            - math.log(q_min)
        )
        log_tau_prime = log_num - log_det
        log_tau_star = log_num - n * math.log(lambda_min)

    # stated > safe exactly when lambda_min > 1; flag only an excess over 1
    # beyond the eigenvalues' rounding.
    excess = lambda_min - n * EPS * lambda_max
    discrepancy = stated > safe and system.unscaled(excess, 2) > 1.0
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
        lambda_min=system.unscaled(lambda_min, 2),
        lambda_max=system.unscaled(lambda_max, 2),
        log_det_q=log_det - 2 * system.exponent * n * math.log(2.0),
        q_min=system.unscaled(q_min, 2),
        w_norm=system.unscaled(w_norm, 2),
        delta0_lower=safe,
        delta0_lower_stated=stated,
        bound_discrepancy=discrepancy,
        log_tau_star=log_tau_star,
        log_tau_star_prime=log_tau_prime,
        tau_star=materialize(log_tau_star),
        tau_star_prime=materialize(log_tau_prime),
        near_singular=near_singular,
    )

"""Checks of hullsolve's outputs, computed apart from hullsolve.

Nothing here imports hullsolve: residuals and hull combinations are
recomputed in extended precision (numpy.longdouble) from the benchmark's
own generated arrays, and the largest eigenvalue comes from LAPACK
(numpy.linalg.eigvalsh). Each check returns None when the output passes
and a one-line reason when it does not.
"""

from __future__ import annotations

import math

import numpy as np

# Allowance for rounding between the program's float64 residual test and
# the extended-precision recomputation: far below any real miss.
REL_SLACK = 1e-9

# Coefficients sum to one up to this much (the program renormalises).
PROBABILITY_TOL = 1e-12

# The analyze report's power-iteration lambda_max against LAPACK.
LAMBDA_MAX_REL_TOL = 1e-6

TRACE_HEADER = "iter,t,gap_or_E,alpha_b,pivot,witness"


def _norm(v: np.ndarray) -> np.longdouble:
    return np.sqrt(np.sum(v * v))


def solution_error(a, b, x, epsilon0: float, nonneg: bool = False) -> str | None:
    """||A x - b|| <= epsilon0 * rho, rho = max(column norms, ||b||)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[1],) or not np.isfinite(x).all():
        return f"solution has shape {x.shape} or is not finite"
    if nonneg and x.min() < 0.0:
        return f"solution has a negative entry {x.min():.3e}"
    a_ext = np.asarray(a, dtype=np.longdouble)
    b_ext = np.asarray(b, dtype=np.longdouble)
    residual = _norm(a_ext @ x.astype(np.longdouble) - b_ext)
    rho = max(np.sqrt(np.sum(a_ext * a_ext, axis=0)).max(), _norm(b_ext))
    if not residual <= epsilon0 * rho * (1 + REL_SLACK):
        return f"residual {float(residual):.6e} exceeds {epsilon0} * rho = {float(epsilon0 * rho):.6e}"
    return None


def hull_error(points, target, epsilon: float, coeffs, vertex) -> str | None:
    """coeffs is a probability vector whose combination lies within
    epsilon * ||p - v_j|| of the target p, j the certifying vertex."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (points.shape[1],) or not np.isfinite(c).all():
        return f"coefficients have shape {c.shape} or are not finite"
    if c.min() < 0.0 or abs(math.fsum(c.tolist()) - 1.0) > PROBABILITY_TOL:
        return "coefficients are not a probability vector"
    if vertex is None or not 0 <= int(vertex) < points.shape[1]:
        return f"no valid certifying vertex ({vertex})"
    p_ext = np.asarray(points, dtype=np.longdouble)
    t_ext = np.asarray(target, dtype=np.longdouble)
    gap = _norm(p_ext @ c.astype(np.longdouble) - t_ext)
    reference = _norm(t_ext - p_ext[:, int(vertex)])
    if not gap <= epsilon * reference * (1 + REL_SLACK):
        return f"combination is {float(gap):.6e} from the target, allowed {float(epsilon * reference):.6e}"
    return None


def largest_eigenvalue(a) -> float:
    return float(np.linalg.eigvalsh(a.T @ a)[-1])


def lambda_max_error(exact: float, reported: float) -> str | None:
    """reported against largest_eigenvalue(A), relative to it."""
    if not abs(reported - exact) <= LAMBDA_MAX_REL_TOL * exact:
        return f"lambda_max {reported!r} differs from eigvalsh {exact!r}"
    return None


def trace_error(path, iterations: int, value: float) -> str | None:
    """Fixed header, and a last row holding the report's count and value."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return f"trace header is {lines[0] if lines else None!r}"
    if len(lines) < 2:
        return "trace has no rows"
    fields = lines[-1].split(",")
    if len(fields) != 6:
        return f"last trace row has {len(fields)} fields"
    if int(fields[0]) != iterations or float(fields[2]) != value:
        return f"last trace row {lines[-1]!r} does not match the report ({iterations}, {value!r})"
    return None

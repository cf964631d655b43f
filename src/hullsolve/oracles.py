"""Independent ground truth used to validate the solvers.

Nothing here shares logic with the Triangle Algorithm: the linear solve is
plain Gaussian elimination with partial pivoting, and the distance from a
point to the hull of points in any dimension, with the weights of its
nearest point, comes from Wolfe's finite minimum-norm-point algorithm, the
one hull-distance oracle. Only the input checks are shared.
"""

from __future__ import annotations

import math

import numpy as np

from .hull import check_query, check_scale
from .system import LinearSystem, SingularMatrixError

__all__ = [
    "solve_exact",
    "hull_verdict",
    "min_norm_point",
]

PIVOT_RATIO_FLOOR = 1e-13
RESIDUAL_TOLERANCE = 1e-10
# hull_verdict counts a distance as 0 below GEOMETRY_TOL times the largest
# ||v_i - p|| plus TRANSLATION_ROUNDING times the largest |entry| of the
# points and target. The second term is rounding: each entry is stored to
# eps/2 of its magnitude and translating by -p rounds about as much again,
# so an offset far larger than the hull blurs distances by a few eps of
# the offset, whatever the hull's own size.
GEOMETRY_TOL = 1e-12
TRANSLATION_ROUNDING = 4.0 * float(np.finfo(float).eps)
# Distance accuracy of min_norm_point, relative to the largest ||v_i - p||.
MIN_NORM_TOL = 1e-13


def solve_exact(system: LinearSystem) -> np.ndarray:
    """Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when a pivot falls below 1e-13 of the
    largest initial entry, or when the final residual exceeds
    1e-10 * rho * n (numerically unreliable solve).
    """
    a = system.a.copy()
    b = system.b.copy()
    n = system.n
    pivot_floor = PIVOT_RATIO_FLOOR * float(np.abs(a).max())
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) < pivot_floor:
            raise SingularMatrixError(f"pivot {system.unscaled(a[p, k]):.3e} below threshold")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= np.outer(factors, a[k, k:])
        b[k + 1 :] -= factors * b[k]
    if abs(a[n - 1, n - 1]) < pivot_floor:
        raise SingularMatrixError("matrix is singular to working precision")
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    residual = system.residual_norm(x)
    if residual > RESIDUAL_TOLERANCE * system.rho * n:
        raise SingularMatrixError(
            f"residual {system.unscaled(residual):.3e} too large; matrix is ill-conditioned"
        )
    return x


def hull_verdict(points: np.ndarray, target: np.ndarray, distance: float) -> tuple[bool, float]:
    """(inside, distance): target counts as in the hull of the column points
    when distance <= GEOMETRY_TOL * R + TRANSLATION_ROUNDING * (largest
    |entry| of points and target), with R = max_i ||v_i - p||, and its
    distance is then reported as 0. The tolerance follows the hull's size
    around the target, not its offset from the origin, beyond the rounding
    that offset brings."""
    offsets = points - target[:, None]
    radius = math.sqrt(float(np.einsum("ij,ij->j", offsets, offsets).max()))
    scale = max(float(np.abs(points).max()), float(np.abs(target).max()))
    inside = distance <= GEOMETRY_TOL * radius + TRANSLATION_ROUNDING * scale
    return inside, 0.0 if inside else distance


def min_norm_point(points: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """(distance, weights): the distance from target to the convex hull of
    the column points, and convex weights w of its nearest point
    points @ w.

    P. Wolfe's minimum-norm-point algorithm ("Finding the nearest point in
    a polytope", Math. Programming 11, 1976) on q_i = v_i - target, with x
    the current point of the hull of the q_i. Each major cycle adds to the
    corral the point outside it of least q_i^T x; each minor cycle moves x
    to the affine minimum-norm point of the corral, a least-squares solve
    over the corral's edge vectors from its first point, or, when that
    point leaves the corral's hull, as far toward it as the hull allows,
    dropping the points whose weight falls to 0. The corral's own points
    have q_i^T x = ||x||^2 up to rounding. The run stops when every other point has
    q_i^T x >= ||x||^2 - MIN_NORM_TOL * R * ||x||, R = max_i ||q_i||: then
    every point y of the hull has ||y|| >= ||x|| - MIN_NORM_TOL * R, so
    the distance is exact to that much. A major cycle that does not lower
    ||x||^2, which only rounding can cause, also ends the run at the point
    before it.
    """
    pts = np.asarray(points, dtype=float)
    p = np.asarray(target, dtype=float)
    check_query(pts, p)
    check_scale(pts, "points")
    check_scale(p[:, None], "target")
    q = pts - p[:, None]
    sq = np.einsum("ij,ij->j", q, q)
    radius = math.sqrt(float(sq.max()))
    corral = np.array([np.argmin(sq)])
    w = np.ones(1)
    x = q[:, corral[0]]
    while True:
        dots = q.T @ x
        dots[corral] = np.inf
        k = int(np.argmin(dots))
        norm_sq = float(x @ x)
        if dots[k] >= norm_sq - MIN_NORM_TOL * radius * math.sqrt(norm_sq):
            break
        new_corral, new_w = np.append(corral, k), np.append(w, 0.0)
        while True:
            base = q[:, new_corral[0]]
            edges = q[:, new_corral[1:]] - base[:, None]
            lam = np.linalg.lstsq(edges, -base, rcond=None)[0]
            affine = np.concatenate(([1.0 - lam.sum()], lam))
            out = np.flatnonzero(affine < 0.0)
            if out.size == 0:
                new_w = affine
            else:
                ratios = new_w[out] / (new_w[out] - affine[out])
                new_w = new_w + float(ratios.min()) * (affine - new_w)
                new_w[out[np.argmin(ratios)]] = 0.0
            keep = new_w > 0.0
            new_corral, new_w = new_corral[keep], new_w[keep]
            if out.size == 0:
                break
        new_x = q[:, new_corral] @ new_w
        if float(new_x @ new_x) >= norm_sq:
            break
        corral, w, x = new_corral, new_w, new_x
    weights = np.zeros(pts.shape[1])
    weights[corral] = w / w.sum()
    return math.sqrt(float(x @ x)), weights

"""Independent ground-truth generators used to validate the solvers.

Nothing here shares logic with the Triangle Algorithm: the linear solve is
plain Gaussian elimination with partial pivoting, 2-d membership and
distances are computed geometrically from the exact convex hull, and the
distance from a point to the hull of points in any dimension, with the
weights of its nearest point, comes from Wolfe's finite minimum-norm-point
algorithm. Only the input checks are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hull import check_query, check_scale
from .system import LinearSystem, SingularMatrixError

__all__ = [
    "OracleResult",
    "solve_exact",
    "linear_system_oracle",
    "convex_hull_2d",
    "point_segment_distance",
    "hull_verdict",
    "hull_membership_2d",
    "boundary_distance_2d",
    "min_norm_point",
]

PIVOT_RATIO_FLOOR = 1e-13
RESIDUAL_TOLERANCE = 1e-10
GEOMETRY_TOL = 1e-12
# Distance accuracy of min_norm_point, relative to the largest ||v_i - p||.
MIN_NORM_TOL = 1e-13


@dataclass
class OracleResult:
    """Ground truth for a linear system.

    x_star and t_star = max(0, -min_i x*_i) come from exact elimination.
    """

    x_star: np.ndarray | None = None
    t_star: float | None = None


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
            raise SingularMatrixError(f"pivot {a[p, k]:.3e} below threshold")
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
            f"residual {residual:.3e} too large; matrix is ill-conditioned"
        )
    return x


def linear_system_oracle(system: LinearSystem) -> OracleResult:
    """Exact solution plus the minimal shift making it nonnegative."""
    x = solve_exact(system)
    return OracleResult(x_star=x, t_star=max(0.0, -float(x.min())))


def convex_hull_2d(points: np.ndarray) -> list[int]:
    """Indices of the convex hull of 2-d column points, counter-clockwise.

    Monotone chain; collinear points on the boundary are dropped. Returns
    fewer than 3 indices for degenerate (point / segment) hulls.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1]
    order = sorted(range(n), key=lambda i: (pts[0, i], pts[1, i]))

    def cross(o, a, b):
        return (pts[0, a] - pts[0, o]) * (pts[1, b] - pts[1, o]) - (
            pts[1, a] - pts[1, o]
        ) * (pts[0, b] - pts[0, o])

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    hull = lower[:-1] + upper[:-1]
    if not hull:
        hull = [order[0]]
    # A fully collinear set leaves duplicated endpoints; reduce to extremes.
    if len(hull) == 2 and hull[0] == hull[1]:
        hull = hull[:1]
    return hull


def point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance from p to the segment [a, b]."""
    d = b - a
    dd = float(d @ d)
    if dd == 0.0:
        return float(np.linalg.norm(p - a))
    s = float((p - a) @ d) / dd
    s = min(1.0, max(0.0, s))
    return float(np.linalg.norm(p - (a + s * d)))


def hull_verdict(points: np.ndarray, target: np.ndarray, distance: float) -> tuple[bool, float]:
    """(inside, distance): target counts as in the hull of the column points
    when distance <= GEOMETRY_TOL * max(1, largest |entry| of points and
    target), and its distance is then reported as 0."""
    scale = max(1.0, float(np.abs(points).max()), float(np.abs(target).max()))
    inside = distance <= GEOMETRY_TOL * scale
    return inside, 0.0 if inside else distance


def hull_membership_2d(points: np.ndarray, p: np.ndarray) -> tuple[bool, float]:
    """(inside, distance) of p relative to the hull of 2-d column points.

    distance is 0 when p lies in the hull (boundary included, to roundoff)
    and the exact distance to the hull boundary otherwise.
    """
    pts = np.asarray(points, dtype=float)
    p = np.asarray(p, dtype=float)
    hull = convex_hull_2d(pts)
    edges = [(pts[:, hull[i - 1]], pts[:, hull[i]]) for i in range(len(hull))]
    inside = len(hull) > 2 and all(
        (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= 0.0
        for a, b in edges
    )
    dist = 0.0 if inside else boundary_distance_2d(pts, p, hull=hull)
    return hull_verdict(pts, p, dist)


def boundary_distance_2d(
    points: np.ndarray, p: np.ndarray, hull: list[int] | None = None
) -> float:
    """Distance from p to the boundary of the hull of 2-d column points.

    Defined for points on either side; used to exclude near-boundary
    queries where an approximate membership answer is legitimately
    inconclusive.
    """
    pts = np.asarray(points, dtype=float)
    p = np.asarray(p, dtype=float)
    if hull is None:
        hull = convex_hull_2d(pts)
    if len(hull) == 1:
        return float(np.linalg.norm(p - pts[:, hull[0]]))
    best = math.inf
    for i in range(len(hull)):
        a = pts[:, hull[i]]
        b = pts[:, hull[(i + 1) % len(hull)]]
        best = min(best, point_segment_distance(p, a, b))
        if len(hull) == 2:
            break
    return best


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

"""Independent ground-truth generators used to validate the solvers.

Nothing here shares logic with the Triangle Algorithm: the linear solve is
plain Gaussian elimination with partial pivoting, 2-d membership and
distances are computed geometrically from the exact convex hull, and the
hull-to-point distance at small sizes is minimized by brute force over a
simplex grid with local refinement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .system import LinearSystem, SingularMatrixError

__all__ = [
    "OracleResult",
    "solve_exact",
    "linear_system_oracle",
    "convex_hull_2d",
    "point_segment_distance",
    "hull_membership_2d",
    "boundary_distance_2d",
    "delta_brute",
]

PIVOT_RATIO_FLOOR = 1e-13
RESIDUAL_TOLERANCE = 1e-10
GEOMETRY_TOL = 1e-12
# Largest simplex grid delta_brute builds, in values (rows times points).
MAX_GRID_VALUES = 10**7


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


def hull_membership_2d(points: np.ndarray, p: np.ndarray) -> tuple[bool, float]:
    """(inside, distance) of p relative to the hull of 2-d column points.

    distance is 0 when p lies in the hull (boundary included, to roundoff)
    and the exact distance to the hull boundary otherwise.
    """
    pts = np.asarray(points, dtype=float)
    p = np.asarray(p, dtype=float)
    hull = convex_hull_2d(pts)
    scale = max(1.0, float(np.abs(pts).max()), float(np.abs(p).max()))
    tol = GEOMETRY_TOL * scale
    if len(hull) == 1:
        dist = float(np.linalg.norm(p - pts[:, hull[0]]))
        return (dist <= tol, 0.0 if dist <= tol else dist)
    if len(hull) == 2:
        dist = point_segment_distance(p, pts[:, hull[0]], pts[:, hull[1]])
        return (dist <= tol, 0.0 if dist <= tol else dist)
    inside = True
    for i in range(len(hull)):
        a = pts[:, hull[i]]
        b = pts[:, hull[(i + 1) % len(hull)]]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol * scale:
            inside = False
            break
    if inside:
        return True, 0.0
    return False, boundary_distance_2d(pts, p, hull=hull)


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


def _simplex_grid(n: int, k: int) -> np.ndarray:
    """All nonnegative integer n-vectors summing to k, as rows in
    lexicographic order: the gaps between n - 1 bars placed among
    k + n - 1 slots (stars and bars)."""
    rows = math.comb(k + n - 1, n - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(k + n - 1), n - 1)),
        dtype=float,
        count=rows * (n - 1),
    ).reshape(rows, n - 1)
    return np.diff(bars, axis=1, prepend=-1.0, append=float(k + n - 1)) - 1.0


def _pairwise_refine(points: np.ndarray, p: np.ndarray, weights: np.ndarray) -> float:
    """Local search: exact line minimization over coordinate pairs.

    Moves mass between pairs of coefficients with the closed-form optimal
    step, sweeping until no sweep improves the squared distance. Converges
    quickly at the small sizes the brute oracle targets.
    """
    n = points.shape[1]
    w = weights.copy()
    q = points @ w - p
    best = float(q @ q)
    for _ in range(200):
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = points[:, i] - points[:, j]
                dd = float(d @ d)
                if dd == 0.0:
                    continue
                # Minimize ||q + s d||^2 over s in [-w_i, w_j].
                s = -float(q @ d) / dd
                s = min(w[j], max(-w[i], s))
                if s == 0.0:
                    continue
                candidate = q + s * d
                value = float(candidate @ candidate)
                if value < best - 1e-18 * max(1.0, best):
                    w[i] += s
                    w[j] -= s
                    q = candidate
                    best = value
                    improved = True
        if not improved:
            break
    return math.sqrt(max(best, 0.0))


def delta_brute(points: np.ndarray, p: np.ndarray, grid_k: int) -> float:
    """Brute-force distance from p to the hull of the column points.

    Minimizes ||points @ w - p|| over a simplex grid of resolution
    1 / grid_k, then refines the best grid point by pairwise local search.
    Intended for small point counts: the grid has C(grid_k + n - 1, n - 1)
    rows for n points, so ValueError is raised before building it when
    grid_k < 1 or when it would hold more than MAX_GRID_VALUES values.
    """
    pts = np.asarray(points, dtype=float)
    p = np.asarray(p, dtype=float)
    n = pts.shape[1]
    if grid_k < 1:
        raise ValueError(f"grid_k must be a positive integer, got {grid_k}")
    rows = math.comb(grid_k + n - 1, n - 1)
    if rows * n > MAX_GRID_VALUES:
        raise ValueError(
            f"simplex grid of {rows} rows for {n} points at grid_k {grid_k} "
            f"exceeds {MAX_GRID_VALUES} values; lower grid_k"
        )
    grid = _simplex_grid(n, grid_k) / float(grid_k)
    diffs = grid @ pts.T - p
    best_idx = int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))
    return _pairwise_refine(pts, p, grid[best_idx])

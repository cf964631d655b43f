"""Shared random instance generators for the test suite.

All generators take an explicit numpy Generator so tests stay
deterministic; geometric claims (interior margins, outside distances) are
verified at construction time, never assumed.
"""

from __future__ import annotations

import math

import numpy as np

from hullsolve import LinearSystem
from hullsolve.hull import (
    CAP_EXCEEDED,
    IN_HULL_APPROX,
    NOT_IN_HULL,
    HullConfig,
    HullInstance,
    initial_iterate,
)
from hullsolve.oracles import boundary_distance_2d, hull_membership_2d


def relative_interior_margin(points: np.ndarray, weights: np.ndarray) -> float:
    """Lower bound on the distance from points @ weights to the relative
    boundary of the simplex spanned by the columns.

    Uses the barycentric altitude formula: the distance to the facet
    opposite vertex i is at least w_i times the altitude of vertex i over
    the affine hull of the remaining vertices.
    """
    m, n = points.shape
    if n == 2:
        length = float(np.linalg.norm(points[:, 0] - points[:, 1]))
        return float(weights.min()) * length
    margins = []
    for i in range(n):
        others = [k for k in range(n) if k != i]
        base = points[:, others[0]]
        span = points[:, others[1:]] - base[:, None]
        diff = points[:, i] - base
        if span.size:
            coef, *_ = np.linalg.lstsq(span, diff, rcond=None)
            altitude = float(np.linalg.norm(diff - span @ coef))
        else:
            altitude = float(np.linalg.norm(diff))
        margins.append(float(weights[i]) * altitude)
    return min(margins)


def membership_instance(
    rng: np.random.Generator, dim: int, margin_frac: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """(points, target) with the target inside conv(points) at relative
    interior margin >= margin_frac * R, R = max distance target-to-point.

    Uses a jittered regular simplex of dim points in dimension dim under a
    random rotation, scale and translation; the margin is recomputed and
    the draw retried until the requirement provably holds.
    """
    for attempt in range(200):
        jitter = 0.04 / (1 + attempt // 20)
        pts = np.eye(dim) + jitter * rng.normal(size=(dim, dim))
        rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        scale = rng.uniform(0.5, 3.0)
        shift = rng.normal(size=dim)
        pts = scale * (rot @ pts) + shift[:, None]
        spread = 0.5 / (1 + attempt // 20)
        weights = (1.0 - spread) / dim + spread * rng.dirichlet(np.ones(dim))
        weights = weights / weights.sum()
        target = pts @ weights
        radius = float(
            np.sqrt(((pts - target[:, None]) ** 2).sum(axis=0).max())
        )
        if relative_interior_margin(pts, weights) >= margin_frac * radius:
            return pts, target
    raise RuntimeError("could not generate a margin-respecting instance")


def outside_instance_2d(
    rng: np.random.Generator, n_points: int = 6, min_offset: float = 0.5
) -> tuple[np.ndarray, np.ndarray, float]:
    """(points, target, exact_distance) with the target strictly outside.

    The target is pushed beyond the circumscribed radius around the
    centroid, so it is provably outside; the exact hull distance comes
    from the 2-d geometric oracle.
    """
    pts = rng.normal(size=(2, n_points)) * rng.uniform(0.5, 2.0)
    centroid = pts.mean(axis=1)
    radius = float(np.sqrt(((pts - centroid[:, None]) ** 2).sum(axis=0).max()))
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    target = centroid + direction * radius * (1.0 + min_offset + rng.uniform(0.0, 1.5))
    inside, delta = hull_membership_2d(pts, target)
    assert not inside and delta > 0.0
    return pts, target, delta


def inside_instance_2d(
    rng: np.random.Generator, n_points: int = 6
) -> tuple[np.ndarray, np.ndarray]:
    """(points, target) with the target a convex combination of the points."""
    pts = rng.normal(size=(2, n_points)) * rng.uniform(0.5, 2.0)
    weights = rng.dirichlet(np.ones(n_points))
    return pts, pts @ weights


def boundary_margin_2d(points: np.ndarray, target: np.ndarray) -> float:
    return boundary_distance_2d(points, target)


def nonneg_system(
    rng: np.random.Generator, n: int, diag_boost: float = 1.5
) -> tuple[LinearSystem, np.ndarray]:
    """System with a strictly positive solution of unit coordinate sum.

    The diagonal boost keeps the columns well spread so the origin stays
    comfortably outside their hull (fast Phase 1) while b remains inside
    the hull scale.
    """
    a = rng.normal(size=(n, n)) + diag_boost * np.eye(n)
    a /= np.sqrt(np.einsum("ij,ij->j", a, a))
    x_star = rng.uniform(0.5, 1.5, n)
    x_star /= x_star.sum()
    return LinearSystem(a, a @ x_star), x_star


def invertible_system(
    rng: np.random.Generator, n: int, mixed_sign: bool = True
) -> tuple[LinearSystem, np.ndarray]:
    """Well-conditioned random system with a known (possibly mixed-sign)
    solution."""
    while True:
        a = rng.normal(size=(n, n))
        if np.linalg.svd(a, compute_uv=False).min() >= 0.2:
            break
    if mixed_sign:
        x_star = rng.normal(size=n)
    else:
        x_star = rng.uniform(0.1, 2.0, n)
    return LinearSystem(a, a @ x_star), x_star


def example1_system() -> LinearSystem:
    return LinearSystem(np.array([[3.0, -2.0], [2.0, 1.0]]), np.array([-1.0, 4.0]))


def example2_system() -> LinearSystem:
    return LinearSystem(np.array([[2.0, -1.0], [1.0, 1.0]]), np.array([0.0, -3.0]))


def radius_R(instance: HullInstance) -> float:
    """max_i ||p - v_i||, the R of the iteration bounds."""
    diffs = instance.points - instance.target[:, None]
    return float(np.sqrt(np.einsum("ij,ij->j", diffs, diffs).max()))


def reference_margins(instance: HullInstance, point: np.ndarray) -> np.ndarray:
    """Pivot margins of the point, recomputed from the instance's points."""
    shift = 0.5 * (instance.target_sq - float(point @ point))
    return instance.points.T @ (instance.target - point) - shift


def _reference_pick(margins: np.ndarray) -> int | None:
    j = int(np.argmax(margins))
    return j if margins[j] >= 0.0 else None


def reference_find_pivot(instance, iterate):
    """Pivot search on margins recomputed from the points at every call."""
    return _reference_pick(reference_margins(instance, iterate.point))


def reference_run_hull(instance: HullInstance, config: HullConfig) -> dict:
    """A plain Triangle loop that recomputes every margin from the points.

    It makes the same decisions, in the same order and with the same
    arithmetic on the coefficients and the point, as run_hull, but keeps no
    products between steps. Returns status, pivots, iterations, coeffs,
    point, gap, certifying_vertex and witness_margins.
    """
    start = initial_iterate(instance, config.init_rule, config.init_coeffs)
    coeffs, point, gap = start.coeffs, start.point, start.gap
    cap = config.resolved_cap()
    pivots: list[int] = []

    def result(status, vertex=None, witness=None):
        return dict(status=status, pivots=pivots, iterations=len(pivots), coeffs=coeffs,
                    point=point, gap=gap, certifying_vertex=vertex, witness_margins=witness)

    while True:
        margins = reference_margins(instance, point)
        j = _reference_pick(margins)
        if j is not None:
            vertex = j
        else:
            diffs = instance.points - instance.target[:, None]
            vertex = int(np.argmin(np.einsum("ij,ij->j", diffs, diffs)))
        to_vertex = instance.target - instance.points[:, vertex]
        if gap <= config.epsilon * float(np.sqrt(to_vertex @ to_vertex)):
            return result(IN_HULL_APPROX, vertex=vertex)
        if j is None:
            return result(NOT_IN_HULL, witness=margins)
        if len(pivots) >= cap:
            return result(CAP_EXCEEDED)
        pivot = instance.points[:, j]
        direction = pivot - point
        alpha = float((instance.target - point) @ direction) / float(direction @ direction)
        alpha = min(1.0, max(0.0, alpha))
        if alpha == 1.0:
            coeffs = np.zeros(instance.n_points)
            coeffs[j] = 1.0
            point = pivot.copy()
        else:
            coeffs = (1.0 - alpha) * coeffs
            coeffs[j] += alpha
            coeffs[np.abs(coeffs) < 1e-15] = 0.0
            coeffs = coeffs / coeffs.sum()
            point = (1.0 - alpha) * point + alpha * pivot
        gap = math.sqrt((instance.target - point) @ (instance.target - point))
        pivots.append(j)

"""Triangle Algorithm for the convex hull decision problem.

Given a finite point set S = {v_1, ..., v_n} and a target p, the algorithm
either pulls an iterate p' inside conv(S) to within a relative tolerance of
p, or halts with a witness: a point of conv(S) strictly closer to every v_i
than p is, which certifies p is not in the hull (the orthogonal bisector of
the segment p p' separates p from conv(S)).

All pivot and witness tests are done in the square-root-free margin form

    margin_i = (p - p')^T v_i - (||p||^2 - ||p'||^2) / 2

where v_i is a pivot point iff margin_i >= 0, and p' is a witness iff every
margin is strictly negative.

Each iterate carries its products v_i^T p' with every point, kept up to date
through the Gram column of each step's pivot, so a pivot search costs O(n)
rather than the O(dim n) of recomputing V^T (p - p'). Only when those margins
show no pivot are the margins recomputed from the points, and the
recomputed ones decide; witness margins always come from the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PIVOT_MOST_VIOLATED",
    "PIVOT_FIRST_FOUND",
    "INIT_NEAREST_VERTEX",
    "INIT_CENTROID",
    "INIT_GIVEN",
    "IN_HULL_APPROX",
    "NOT_IN_HULL",
    "CAP_EXCEEDED",
    "DegeneratePivot",
    "HullInstance",
    "Iterate",
    "Witness",
    "HullConfig",
    "HullOutcome",
    "HullTraceRecord",
    "make_iterate",
    "initial_iterate",
    "pivot_margins",
    "direct_margins",
    "find_pivot",
    "check_witness",
    "step_size",
    "apply_step",
    "run_hull",
    "iteration_cap_from_bound",
]

PIVOT_MOST_VIOLATED = "most_violated"
PIVOT_FIRST_FOUND = "first_found"
INIT_NEAREST_VERTEX = "nearest_vertex"
INIT_CENTROID = "centroid"
INIT_GIVEN = "given"

IN_HULL_APPROX = "in_hull_approx"
NOT_IN_HULL = "not_in_hull"
CAP_EXCEEDED = "cap_exceeded"

# Negative convex coefficients smaller than this in magnitude are rounding
# dust and are clamped to zero before renormalizing.
COEFF_DUST = 1e-15

# A first visit to a pivot fills the unfilled Gram columns of its block of
# this many consecutive points (fewer when the dimension is smaller) with
# one matrix product, when there are at most twice as many points as
# dimensions: then the whole Gram matrix is at most twice the size of the
# points, and most columns get visited, as for a linear system's n + 1
# points in n dimensions. A wider set fills one column per visited pivot,
# since a block would store up to GRAM_BLOCK columns for each.
GRAM_BLOCK = 64


def vector_norm(v: np.ndarray) -> float:
    """||v||: what np.linalg.norm returns for a real vector, the square
    root of v.dot(v), without its dispatch cost."""
    return math.sqrt(v.dot(v))


class DegeneratePivot(Exception):
    """Pivot point coincides exactly with the current iterate.

    A pivot margin rules that out in exact arithmetic unless the iterate
    already sits on the target, so it signals a stalled run, at any scale.
    """


class HullInstance:
    """A membership query: point set S (matrix columns) and target p.

    Parameters
    ----------
    points : (m, n) array
        Columns are the points v_1 ... v_n.
    target : (m,) array
        The query point p.
    """

    def __init__(self, points, target):
        points = np.ascontiguousarray(points, dtype=float)
        target = np.ascontiguousarray(target, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a 2-d array with one column per point")
        m, n = points.shape
        if n < 1 or m < 1:
            raise ValueError("need at least one point in at least one dimension")
        if target.shape != (m,):
            raise ValueError(f"target has dimension {target.shape}, points have {m}")
        if not np.isfinite(points).all() or not np.isfinite(target).all():
            raise ValueError("points and target must be finite")
        self.points = points
        self.target = target
        self.target_dots = points.T @ target  # p^T v_i, fixed for the run
        self.target_sq = float(target @ target)
        self._radius = None
        # Filled Gram columns, one per row of _gram in fill order; the
        # point of each used row, and the row of each point's column (-1
        # while unfilled).
        self._gram = np.empty((0, n))
        self._gram_point = np.empty(n, dtype=np.intp)
        self._gram_slot = np.full(n, -1, dtype=np.intp)
        self._gram_used = 0

    @property
    def n_points(self) -> int:
        return self.points.shape[1]

    @property
    def dim(self) -> int:
        return self.points.shape[0]

    @property
    def radius_R(self) -> float:
        """max_i ||p - v_i||, computed on first use."""
        if self._radius is None:
            diffs = self.points - self.target[:, None]
            self._radius = float(np.sqrt(np.einsum("ij,ij->j", diffs, diffs).max()))
        return self._radius

    def distance_to_point(self, j: int) -> float:
        """||p - v_j||."""
        d = self.target - self.points[:, j]
        return float(np.sqrt(d @ d))

    def gram_column(self, j: int) -> np.ndarray:
        """v_i^T v_j for all i, in O(1) once column j is filled.

        The first call for j fills column j, in O(dim n); when there are
        at most 2 dim points, it fills every unfilled column of j's block of
        min(GRAM_BLOCK, dim) consecutive points with the same matrix
        product. Storage grows with the columns or blocks visited. The
        returned array is a row of the memo itself; do not modify it, and
        do not keep it across calls that may fill more columns.
        """
        slot = self._gram_slot[j]
        if slot < 0:
            self._fill_block(j)
            slot = self._gram_slot[j]
        return self._gram[slot]

    def _reserve(self, columns: np.ndarray) -> slice:
        """Memo rows for the given unfilled columns, growing it geometrically
        up to one row per point."""
        start = self._gram_used
        need = start + columns.size
        if need > self._gram.shape[0]:
            rows = min(max(need, 2 * self._gram.shape[0]), self.n_points)
            grown = np.empty((rows, self.n_points))
            grown[:start] = self._gram[:start]
            self._gram = grown
        self._gram_used = need
        self._gram_point[start:need] = columns
        self._gram_slot[columns] = np.arange(start, need)
        return slice(start, need)

    def _fill_block(self, j: int) -> None:
        width = min(GRAM_BLOCK, self.dim) if self.n_points <= 2 * self.dim else 1
        first = j - j % width
        block = np.arange(first, min(first + width, self.n_points))
        block = block[self._gram_slot[block] < 0]
        rows = self._reserve(block)
        np.matmul(self.points[:, block].T, self.points, out=self._gram[rows])

    def move_last_point(self, point: np.ndarray, products: np.ndarray) -> None:
        """Replace the last point in place, in O(n + dim).

        products holds the new point's inner products with every point,
        itself last; the caller computes them, typically in O(n) from
        quantities it already has. They become the last entry of every
        filled Gram column and the last point's own column, bit for bit,
        in two vectorised writes. Iterates built on the old point are not
        updated.
        """
        last = self.n_points - 1
        self.points[:, last] = point
        self.target_dots[last] = self.target.dot(point)
        used = self._gram_used
        self._gram[:used, last] = products[self._gram_point[:used]]
        if self._gram_slot[last] < 0:
            self._reserve(np.array([last]))
        self._gram[self._gram_slot[last]] = products
        self._radius = None


@dataclass
class Iterate:
    """A point of conv(S) with its explicit convex combination.

    coeffs is a probability vector over the columns, point equals
    points @ coeffs up to roundoff, gap is ||target - point||, and
    dot_cache holds v_i^T point for all i up to roundoff.
    """

    coeffs: np.ndarray
    point: np.ndarray
    gap: float
    dot_cache: np.ndarray


@dataclass
class Witness:
    """Certificate that the target is outside the hull.

    Every margin is strictly negative, and the distance from the target to
    the hull lies in distance_bracket = (gap / 2, gap).
    """

    iterate: Iterate
    margins: np.ndarray
    distance_bracket: tuple[float, float]


@dataclass
class HullTraceRecord:
    iteration: int
    gap: float
    pivot: int
    step: float


@dataclass
class HullConfig:
    """Settings for a Triangle Algorithm run.

    max_iterations defaults to the worst-case membership bound
    ceil(48 / epsilon^2) when left as None.
    """

    epsilon: float = 1e-4
    max_iterations: int | None = None
    pivot_rule: str = PIVOT_MOST_VIOLATED
    init_rule: str = INIT_NEAREST_VERTEX
    init_coeffs: np.ndarray | None = None
    record_trace: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.pivot_rule not in (PIVOT_MOST_VIOLATED, PIVOT_FIRST_FOUND):
            raise ValueError(f"unknown pivot rule {self.pivot_rule!r}")
        if self.init_rule not in (INIT_NEAREST_VERTEX, INIT_CENTROID, INIT_GIVEN):
            raise ValueError(f"unknown init rule {self.init_rule!r}")
        if self.init_rule == INIT_GIVEN and self.init_coeffs is None:
            raise ValueError("init_rule 'given' requires init_coeffs")

    def resolved_cap(self) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return iteration_cap_from_bound(self.epsilon)


@dataclass
class HullOutcome:
    """Result of run_hull.

    status is one of IN_HULL_APPROX, NOT_IN_HULL, CAP_EXCEEDED. On
    IN_HULL_APPROX the final gap satisfies gap <= epsilon * ||p - v_j||
    for the certifying vertex j; on NOT_IN_HULL witness is set.
    """

    status: str
    iterate: Iterate
    iterations: int
    initial_gap_delta0: float
    witness: Witness | None = None
    certifying_vertex: int | None = None
    trace: list[HullTraceRecord] | None = None


def _clean_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Clamp rounding dust at zero and renormalize to sum exactly one."""
    coeffs = np.array(coeffs, dtype=float)
    if (coeffs < -COEFF_DUST).any():
        raise ValueError("convex coefficients must be nonnegative")
    coeffs[np.abs(coeffs) < COEFF_DUST] = 0.0
    total = coeffs.sum()
    if total <= 0.0:
        raise ValueError("convex coefficients must have positive sum")
    return coeffs / total


def make_iterate(instance: HullInstance, coeffs) -> Iterate:
    """Build an Iterate from explicit convex coefficients, in O(dim n)."""
    coeffs = _clean_coeffs(np.asarray(coeffs, dtype=float))
    if coeffs.shape != (instance.n_points,):
        raise ValueError("coefficient vector length must match the point count")
    point = instance.points @ coeffs
    gap = vector_norm(instance.target - point)
    dots = instance.points.T @ point
    return Iterate(coeffs=coeffs, point=point, gap=gap, dot_cache=dots)


def initial_iterate(instance: HullInstance, config: HullConfig) -> Iterate:
    """Starting iterate per the configured init rule."""
    n = instance.n_points
    if config.init_rule == INIT_CENTROID:
        coeffs = np.full(n, 1.0 / n)
    elif config.init_rule == INIT_GIVEN:
        coeffs = np.asarray(config.init_coeffs, dtype=float)
    else:  # nearest vertex: the cheapest start that is often already close
        diffs = instance.points - instance.target[:, None]
        k = int(np.argmin(np.einsum("ij,ij->j", diffs, diffs)))
        coeffs = np.zeros(n)
        coeffs[k] = 1.0
    return make_iterate(instance, coeffs)


def _margin_shift(instance: HullInstance, iterate: Iterate) -> float:
    return 0.5 * (instance.target_sq - float(iterate.point @ iterate.point))


def pivot_margins(instance: HullInstance, iterate: Iterate) -> np.ndarray:
    """Square-root-free pivot margins for every point, in O(n).

    margin_i >= 0 means v_i is a pivot point (equivalently
    ||p' - v_i|| >= ||p - v_i||); all margins < 0 means the iterate is a
    witness. Computed from the iterate's maintained products, so they
    carry the rounding those products accumulated; see direct_margins.
    """
    return instance.target_dots - iterate.dot_cache - _margin_shift(instance, iterate)


def direct_margins(instance: HullInstance, iterate: Iterate) -> np.ndarray:
    """The pivot margins recomputed from the points, in O(dim n)."""
    return (
        instance.points.T @ (instance.target - iterate.point)
        - _margin_shift(instance, iterate)
    )


def _pick_pivot(margins: np.ndarray, rule: str) -> int | None:
    if rule == PIVOT_FIRST_FOUND:
        hits = np.flatnonzero(margins >= 0.0)
        return int(hits[0]) if hits.size else None
    j = int(np.argmax(margins))
    return j if margins[j] >= 0.0 else None


def find_pivot(
    instance: HullInstance, iterate: Iterate, rule: str = PIVOT_MOST_VIOLATED
) -> int | None:
    """Index of a pivot point, or None when the iterate is a witness.

    Under PIVOT_MOST_VIOLATED the pivot maximizes the margin (ties to the
    lowest index); under PIVOT_FIRST_FOUND it is the lowest index with a
    nonnegative margin. The search reads pivot_margins in O(n); when they
    show no pivot, direct_margins are computed and decide, so None always
    means the recomputed margins are all negative.
    """
    j = _pick_pivot(pivot_margins(instance, iterate), rule)
    if j is None:
        j = _pick_pivot(direct_margins(instance, iterate), rule)
    return j


def check_witness(instance: HullInstance, iterate: Iterate) -> Witness | None:
    """Witness certificate when every direct margin is strictly negative."""
    margins = direct_margins(instance, iterate)
    if (margins < 0.0).all():
        bracket = (0.5 * iterate.gap, iterate.gap)
        return Witness(iterate=iterate, margins=margins, distance_bracket=bracket)
    return None


def step_size(target: np.ndarray, iterate: Iterate, pivot: np.ndarray) -> float:
    """Step size toward the pivot, clamped to [0, 1].

    The unclamped value places the new iterate at the closest point to the
    target on the line through p' and v_j; a returned value of 1 means jump
    to the pivot vertex itself.
    """
    direction = pivot - iterate.point
    denom = float(direction @ direction)
    if denom == 0.0:
        raise DegeneratePivot("pivot coincides with the current iterate")
    alpha = float((target - iterate.point) @ direction) / denom
    return min(1.0, max(0.0, alpha))


def apply_step(
    instance: HullInstance, iterate: Iterate, j: int, alpha: float
) -> Iterate:
    """New iterate after pulling toward pivot j with step alpha in [0, 1].

    The products move with the point, through the Gram column of j: O(n),
    plus O(dim n) on the first visit to j.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 1.0:
        # Exact jump to the vertex: the combination collapses to e_j.
        coeffs = np.zeros(instance.n_points)
        coeffs[j] = 1.0
        point = instance.points[:, j].copy()
        dots = instance.gram_column(j).copy()
    else:
        # A fresh nonnegative array: clamp the dust and renormalise in
        # place, which is what _clean_coeffs returns for it, bit for bit.
        coeffs = (1.0 - alpha) * iterate.coeffs
        coeffs[j] += alpha
        coeffs[coeffs < COEFF_DUST] = 0.0
        coeffs /= coeffs.sum()
        point = (1.0 - alpha) * iterate.point + alpha * instance.points[:, j]
        dots = (1.0 - alpha) * iterate.dot_cache + alpha * instance.gram_column(j)
    gap = vector_norm(instance.target - point)
    return Iterate(coeffs=coeffs, point=point, gap=gap, dot_cache=dots)


def run_hull(instance: HullInstance, config: HullConfig) -> HullOutcome:
    """Run the Triangle Algorithm to an eps-approximation or a witness.

    Loops pivot search / step-size / update. Returns IN_HULL_APPROX as soon
    as gap <= epsilon * ||p - v_j|| for the current pivot j (checked before
    stepping; when no pivot exists the reference falls back to
    min_i ||p - v_i||), NOT_IN_HULL with a witness when no pivot exists and
    the approximation test fails, and CAP_EXCEEDED once max_iterations
    steps were taken without either. Deterministic for a fixed
    configuration.
    """
    iterate = initial_iterate(instance, config)
    delta0 = iterate.gap
    cap = config.resolved_cap()
    trace: list[HullTraceRecord] | None = [] if config.record_trace else None
    steps = 0
    while True:
        j = find_pivot(instance, iterate, config.pivot_rule)
        if j is not None:
            reference_vertex = j
        else:
            diffs = instance.points - instance.target[:, None]
            reference_vertex = int(np.argmin(np.einsum("ij,ij->j", diffs, diffs)))
        if iterate.gap <= config.epsilon * instance.distance_to_point(reference_vertex):
            return HullOutcome(
                status=IN_HULL_APPROX,
                iterate=iterate,
                iterations=steps,
                initial_gap_delta0=delta0,
                certifying_vertex=reference_vertex,
                trace=trace,
            )
        if j is None:
            witness = check_witness(instance, iterate)
            return HullOutcome(
                status=NOT_IN_HULL,
                iterate=iterate,
                iterations=steps,
                initial_gap_delta0=delta0,
                witness=witness,
                trace=trace,
            )
        if steps >= cap:
            return HullOutcome(
                status=CAP_EXCEEDED,
                iterate=iterate,
                iterations=steps,
                initial_gap_delta0=delta0,
                trace=trace,
            )
        alpha = step_size(instance.target, iterate, instance.points[:, j])
        iterate = apply_step(instance, iterate, j, alpha)
        steps += 1
        if trace is not None:
            trace.append(HullTraceRecord(steps, iterate.gap, j, alpha))


def iteration_cap_from_bound(epsilon: float) -> int:
    """Worst-case iteration count ceil(48 / epsilon^2) for membership runs."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    return math.ceil(48.0 / (epsilon * epsilon))

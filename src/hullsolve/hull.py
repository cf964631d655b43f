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
recomputed ones decide; witness margins always come from the points. Gram
columns come from one V^T V, or per visited pivot on a wide set (n > 2 dim).

A step is the Triangle step toward the pivot j with exact line search. On
request (the nonnegative solver's two phases) apply_step instead takes the
better of that step and a pairwise step, which moves weight to j from the
active point of least margin, as pairwise Frank-Wolfe does; both decreases
follow in O(1) from the products and the Gram columns, so a step stays
O(n + dim) either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
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
    "TraceRecord",
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

INIT_NEAREST_VERTEX = "nearest_vertex"
INIT_CENTROID = "centroid"
INIT_GIVEN = "given"

IN_HULL_APPROX = "in_hull_approx"
NOT_IN_HULL = "not_in_hull"
CAP_EXCEEDED = "cap_exceeded"

# Negative convex coefficients smaller than this in magnitude are rounding
# dust and are clamped to zero before renormalizing.
COEFF_DUST = 1e-15

# Largest squared norm of a point or target: below it ||p - v||^2 <= 4 max
# and the other sums the solvers form stay finite.
SQ_NORM_MAX = np.finfo(float).max / 4.0


def check_scale(columns: np.ndarray, what: str) -> np.ndarray:
    """Squared norms of the columns; ValueError when one exceeds SQ_NORM_MAX
    or a nonzero column's underflows to 0, a scale doubles cannot square."""
    sq = np.einsum("ij,ij->j", columns, columns)
    if not (sq <= SQ_NORM_MAX).all():
        raise ValueError(f"{what} too large: a squared norm overflows; rescale the input")
    if ((sq == 0.0) & columns.any(axis=0)).any():
        raise ValueError(f"{what} too small: a squared norm underflows to 0; rescale the input")
    return sq


def check_shapes(points: np.ndarray, target: np.ndarray) -> None:
    """ValueError unless points (one per column) and target fit together."""
    if points.ndim != 2 or target.ndim != 1:
        raise ValueError("points must be a 2-d array, one column per point, and target 1-d")
    m, n = points.shape
    if n < 1 or m < 1:
        raise ValueError("need at least one point in at least one dimension")
    if target.size != m:
        raise ValueError(f"points live in dimension {m}, target in {target.size}")


def vector_norm(v: np.ndarray) -> float:
    """||v||: what np.linalg.norm returns for a real vector, the square
    root of v.dot(v), without its dispatch cost."""
    return math.sqrt(v.dot(v))


class DegeneratePivot(ValueError):
    """Pivot point coincides exactly with the current iterate.

    A pivot margin rules that out in exact arithmetic unless the iterate
    already sits on the target, so it signals a stalled run, at any scale.
    run_hull raises it only when no point certifies the iterate either.
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
        check_shapes(points, target)
        if not np.isfinite(points).all() or not np.isfinite(target).all():
            raise ValueError("points and target must be finite")
        check_scale(points, "points")
        check_scale(target[:, None], "target")
        self.points = points
        self.target = target
        self.target_dots = points.T @ target  # p^T v_i, fixed for the run
        self.target_sq = float(target @ target)
        # V^T V, computed whole at first use on a set of at most 2 dim points
        # (at most twice the points' memory); a wider set keeps one column
        # per visited pivot.
        self._narrow = points.shape[1] <= 2 * points.shape[0]
        self._gram: np.ndarray | None = None
        self._gram_cols: dict[int, np.ndarray] = {}

    @property
    def n_points(self) -> int:
        return self.points.shape[1]

    def distance_to_point(self, j: int) -> float:
        """||p - v_j||."""
        d = self.target - self.points[:, j]
        return float(np.sqrt(d @ d))

    def gram_column(self, j: int) -> np.ndarray:
        """v_i^T v_j for all i, stored at the first call that needs it: the
        whole Gram matrix, in O(dim n^2), on a set of at most 2 dim points,
        else column j, in O(dim n). Do not modify the returned array."""
        if self._narrow:
            if self._gram is None:
                self._gram = self.points.T @ self.points
            return self._gram[j]
        column = self._gram_cols.get(j)
        if column is None:
            column = self._gram_cols[j] = (self.points[:, [j]].T @ self.points)[0]
        return column

    def with_point(self, point: np.ndarray, products: np.ndarray) -> HullInstance:
        """A new instance: these points with point appended, same target.

        products holds the point's inner products with every point, itself
        last, as the caller computes them. A Gram matrix this instance has
        computed is bordered with them, in O(n^2), instead of the O(dim n^2)
        product; otherwise the new instance computes its own at first use.
        """
        grown = HullInstance(np.column_stack([self.points, point]), self.target)
        if self._gram is not None and grown._narrow:
            n = self.n_points
            gram = grown._gram = np.empty((n + 1, n + 1))
            gram[:n, :n] = self._gram
            gram[n] = products
            gram[:, n] = products
        return grown

    def move_last_point(self, point: np.ndarray, products: np.ndarray) -> None:
        """Replace the last point in place.

        products holds the new point's inner products with every point,
        itself last, as the caller computes them. They become, bit for bit,
        the last point's Gram column and the last entry of every other
        stored one; a narrow set computes its Gram matrix first if no call
        has. Iterates built on the old point are not updated.
        """
        last = self.n_points - 1
        self.points[:, last] = point
        self.target_dots[last] = self.target.dot(point)
        if self._narrow:
            self.gram_column(last)
            self._gram[:, last] = products
            self._gram[last] = products
        else:
            for j, column in self._gram_cols.items():
                column[last] = products[j]
            self._gram_cols[last] = np.array(products, dtype=float)


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
class TraceRecord:
    """One row of a hull or solve trace.

    t is the shift (0.0 outside the incremental solver); value is the hull
    gap, or the incremental solver's residual estimate; alpha_b is the
    coefficient of -b (None in a hull run); pivot is None on a row that
    records a verdict or a shift, and witness marks a witness.
    """

    iteration: int
    t: float
    value: float
    alpha_b: float | None
    pivot: int | None
    witness: bool


@dataclass
class HullConfig:
    """Settings for a Triangle Algorithm run.

    max_iterations defaults to the worst-case membership bound
    ceil(48 / epsilon^2) when left as None.
    """

    epsilon: float = 1e-4
    max_iterations: int | None = None
    init_rule: str = INIT_NEAREST_VERTEX
    init_coeffs: np.ndarray | None = None
    record_trace: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        check_run_settings(self)

    def resolved_cap(self) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return iteration_cap_from_bound(self.epsilon)


def check_run_settings(config) -> None:
    """HullConfig's and SolveConfig's common checks: max_iterations is None
    or positive, and init_rule known, with init_coeffs if INIT_GIVEN."""
    if config.max_iterations is not None and config.max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if config.init_rule not in (INIT_NEAREST_VERTEX, INIT_CENTROID, INIT_GIVEN):
        raise ValueError(f"unknown init rule {config.init_rule!r}")
    if config.init_rule == INIT_GIVEN and config.init_coeffs is None:
        raise ValueError("init_rule 'given' requires init_coeffs")


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
    trace: list[TraceRecord] | None = None


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


def _sq_distances(instance: HullInstance) -> np.ndarray:
    """||p - v_i||^2 for every point."""
    diffs = instance.points - instance.target[:, None]
    return np.einsum("ij,ij->j", diffs, diffs)


def _nearest_vertex(instance: HullInstance) -> int:
    """Index of the point nearest the target, ties to the lowest index."""
    return int(np.argmin(_sq_distances(instance)))


def initial_iterate(instance: HullInstance, init_rule: str, init_coeffs=None) -> Iterate:
    """Starting iterate per an init rule of a HullConfig or a SolveConfig."""
    n = instance.n_points
    if init_rule == INIT_CENTROID:
        coeffs = np.full(n, 1.0 / n)
    elif init_rule == INIT_GIVEN:
        coeffs = np.asarray(init_coeffs, dtype=float)
    else:  # nearest vertex: the cheapest start that is often already close
        coeffs = np.zeros(n)
        coeffs[_nearest_vertex(instance)] = 1.0
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


def find_pivot(instance: HullInstance, iterate: Iterate) -> int | None:
    """Index of a pivot point, or None when the iterate is a witness.

    The pivot maximizes the margin, ties to the lowest index. The search
    reads pivot_margins in O(n); when they show no pivot, direct_margins
    are computed and decide, so None always means the recomputed margins
    are all negative.
    """
    for margins_of in (pivot_margins, direct_margins):
        margins = margins_of(instance, iterate)
        j = int(np.argmax(margins))
        if margins[j] >= 0.0:
            return j
    return None


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


def _pairwise_step(
    instance: HullInstance, iterate: Iterate, j: int, alpha: float, column: np.ndarray
) -> Iterate | None:
    """The pairwise step from k to j when it lowers ||p - p'||^2 more than
    the Triangle step toward j with alpha does, else None.

    k is the point of positive coefficient with the least margin, and the
    step moves weight gamma = min((margin_j - margin_k) / ||v_j - v_k||^2,
    c_k) from k to j, all of it when clamped. Both decreases come in O(1)
    from the maintained products and the Gram columns of j and k.
    """
    coeffs, dots = iterate.coeffs, iterate.dot_cache
    # (p - p')^T v_i: the margins up to a shift common to every point.
    along = instance.target_dots - dots
    along_j = float(along[j])
    np.putmask(along, coeffs == 0.0, np.inf)
    k = int(along.argmin())
    column_k = instance.gram_column(k)
    rise = along_j - float(along[k])
    curvature = float(column[j] - 2.0 * column[k] + column_k[k])
    if rise <= 0.0 or curvature <= 0.0:  # k = j gives rise 0
        return None
    gamma = min(rise / curvature, float(coeffs[k]))
    # A step of length s along d lowers ||p - p'||^2 / 2 by
    # s (p - p')^T d - s^2 ||d||^2 / 2: here d = v_j - v_k and s = gamma,
    # for the Triangle step d = v_j - p' and s = alpha.
    point_sq = float(iterate.point @ iterate.point)
    toward = along_j - float(instance.target @ iterate.point) + point_sq
    length_sq = float(column[j]) - 2.0 * float(dots[j]) + point_sq
    if gamma * (rise - 0.5 * gamma * curvature) <= alpha * (toward - 0.5 * alpha * length_sq):
        return None
    # The sum stays 1 up to the rounding of two additions; only a clamp of
    # dust changes it and renormalises.
    coeffs = coeffs.copy()
    coeffs[k] -= gamma  # exactly 0 when gamma is clamped at c_k
    coeffs[j] += gamma
    if 0.0 < coeffs[k] < COEFF_DUST:
        coeffs[k] = 0.0
        coeffs /= coeffs.sum()
    point = iterate.point + gamma * (instance.points[:, j] - instance.points[:, k])
    dots = dots + gamma * (column - column_k)
    gap = vector_norm(instance.target - point)
    return Iterate(coeffs=coeffs, point=point, gap=gap, dot_cache=dots)


def apply_step(
    instance: HullInstance, iterate: Iterate, j: int, alpha: float, pairwise: bool = False
) -> Iterate:
    """New iterate after pulling toward pivot j with step alpha in [0, 1].

    The products move with the point, through the Gram column of j: O(n)
    once that column is computed (see HullInstance.gram_column).

    With pairwise, the step is the better of two exact line-search steps,
    by how far each lowers ||p - p'||^2: this Triangle step, and a pairwise
    step that moves weight from the active point of least margin to j
    (see _pairwise_step), which costs O(n + dim) as well. Either way j is
    the point that gains weight.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    column = instance.gram_column(j)
    if pairwise:
        stepped = _pairwise_step(instance, iterate, j, alpha, column)
        if stepped is not None:
            return stepped
    # A fresh nonnegative array: clamp the dust and renormalise in place,
    # which is what _clean_coeffs returns for it, bit for bit. At alpha = 1
    # the mixing gives e_j, the pivot and its Gram column exactly.
    coeffs = (1.0 - alpha) * iterate.coeffs
    coeffs[j] += alpha
    coeffs[coeffs < COEFF_DUST] = 0.0
    coeffs /= coeffs.sum()
    point = (1.0 - alpha) * iterate.point + alpha * instance.points[:, j]
    dots = (1.0 - alpha) * iterate.dot_cache + alpha * column
    gap = vector_norm(instance.target - point)
    return Iterate(coeffs=coeffs, point=point, gap=gap, dot_cache=dots)


def run_hull(
    instance: HullInstance, config: HullConfig, pairwise: bool = False
) -> HullOutcome:
    """Run the Triangle Algorithm to an eps-approximation or a witness.

    Loops pivot search / step-size / update, each update the better of the
    Triangle and the pairwise step when pairwise (see apply_step), the
    Triangle step alone otherwise. Returns IN_HULL_APPROX as soon
    as gap <= epsilon * ||p - v_j|| for the current pivot j (checked before
    stepping; when no pivot exists the reference falls back to
    min_i ||p - v_i||), NOT_IN_HULL with a witness when no pivot exists and
    the approximation test fails, and CAP_EXCEEDED once max_iterations
    steps were taken without either. A pivot that coincides with the
    iterate, as when the target is within rounding of a point, ends the
    run IN_HULL_APPROX if gap <= epsilon * ||p - v_far|| for the point
    v_far farthest from p, and raises DegeneratePivot otherwise.
    Deterministic for a fixed configuration.
    """
    iterate = initial_iterate(instance, config.init_rule, config.init_coeffs)
    delta0 = iterate.gap
    cap = config.resolved_cap()
    trace: list[TraceRecord] | None = [] if config.record_trace else None
    steps = 0
    witness = certifying_vertex = None
    while True:
        j = find_pivot(instance, iterate)
        reference_vertex = _nearest_vertex(instance) if j is None else j
        if iterate.gap <= config.epsilon * instance.distance_to_point(reference_vertex):
            status, certifying_vertex = IN_HULL_APPROX, reference_vertex
            break
        if j is None:
            status, witness = NOT_IN_HULL, check_witness(instance, iterate)
            break
        if steps >= cap:
            status = CAP_EXCEEDED
            break
        try:
            alpha = step_size(instance.target, iterate, instance.points[:, j])
        except DegeneratePivot:
            far = int(np.argmax(_sq_distances(instance)))
            if iterate.gap > config.epsilon * instance.distance_to_point(far):
                raise
            status, certifying_vertex = IN_HULL_APPROX, far
            break
        iterate = apply_step(instance, iterate, j, alpha, pairwise=pairwise)
        steps += 1
        if trace is not None:
            trace.append(TraceRecord(steps, 0.0, iterate.gap, None, j, False))
    return HullOutcome(status, iterate, steps, delta0, witness, certifying_vertex, trace)


def iteration_cap_from_bound(epsilon: float, ratio: float = 1.0) -> int:
    """Worst-case iteration count ceil((48 / epsilon^2) ratio^2): the
    membership bound at ratio 1, Phase 2's at ratio rho / delta0'."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    eps_sq = epsilon * epsilon
    bound = (48.0 / eps_sq) * (ratio * ratio) if eps_sq > 0.0 else math.inf
    if not math.isfinite(bound):
        raise ValueError(
            f"epsilon {epsilon!r} is too small for the iteration bound (48 / epsilon^2) "
            f"{ratio!r}^2; set max_iterations (--max-iters)"
        )
    return math.ceil(bound)

"""Triangle Algorithm for the convex hull decision problem.

Given a finite point set S = {v_1, ..., v_n} and a target p, the algorithm
either pulls an iterate p' inside conv(S) to within a relative tolerance of
p, or halts with a witness: a point of conv(S) strictly closer to every v_i
than p is, which certifies p is not in the hull (the orthogonal bisector of
the segment p p' separates p from conv(S)).

A HullInstance translates its points by -p once, so every run targets the
origin; below, v_i and p' are the translated points and iterate, and
||p'|| is the gap. All pivot and witness tests are done in the
square-root-free margin form

    margin_i = ||p'||^2 / 2 - v_i^T p'

where v_i is a pivot point iff margin_i >= 0, and p' is a witness iff every
margin is strictly negative.

The iterate lives in coefficient space: its convex coefficients c, its
products V^T p' with every point and ||p'||^2, never the point p' = V c.
A step costs O(n): the margins, both step sizes and the new ||p'||^2 follow
from those and the Gram columns of the pivots (one V^T V on a set of at
most 2 dim points, else one column per visited pivot). p' itself is formed
only where exact values decide: the witness margins, the gap that confirms
an approximation, margins that show no pivot (recomputed ones decide), a
step whose ||p'||^2 cancels, and every n-th step since it was last
formed, which keeps the rounding of the recursions from piling up.

A step is the better of two exact line-search steps for the pivot j: the
Triangle step toward j, and a pairwise step that moves weight to j from
the active donor of least margin, as pairwise Frank-Wolfe does. run_hull
lets every point give weight; a caller may let only the leading points
(see apply_step). Both decreases follow in O(1) from the products and the
Gram columns. The better-of step lowers ||p - p'|| at least as much as the
Triangle step, so the Triangle Algorithm's bounds still hold. The donor
search reads which donors hold weight from a floor the iterate carries
from step to step (Iterate.floor), so a step rebuilds no mask that the
step before it already knew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IN_HULL_APPROX",
    "NOT_IN_HULL",
    "CAP_EXCEEDED",
    "MAX_ITERATIONS",
    "DegeneratePivot",
    "HullInstance",
    "Iterate",
    "Witness",
    "HullConfig",
    "HullOutcome",
    "TraceRecord",
    "make_iterate",
    "exact_iterate",
    "recursed_iterate",
    "initial_iterate",
    "pivot_margins",
    "find_pivot",
    "witness_of",
    "step_size",
    "apply_step",
    "run_hull",
]

IN_HULL_APPROX = "in_hull_approx"
NOT_IN_HULL = "not_in_hull"
CAP_EXCEEDED = "cap_exceeded"

# The step cap of every run unless a caller sets max_iterations: the
# paper's bounds, 48 / epsilon^2 and the like, are worst cases that reach
# 10^300 at tight tolerances, where no run would end at them.
MAX_ITERATIONS = 10**6

# Convex coefficients smaller than this in magnitude are rounding dust:
# _clean_coeffs clamps them to zero in the coefficients a caller gives, and
# a pairwise step clears a weight it leaves that small. The Triangle step
# clamps nothing: it only scales nonnegative weights by 1 - alpha, and no
# weight fell in (0, COEFF_DUST) on any step of the general_shift
# reference systems, from either start (CHANGES.md has the counts, in the
# entry on the centroid start of solve_incremental).
COEFF_DUST = 1e-15

# A recursed ||p'||^2 below this fraction of the magnitudes it was summed
# from (Iterate.point_sq_scale) may have lost more than half its digits to
# cancellation, as when a step lands on the target or the gap has shrunk
# a hundred-millionfold; the iterate is then formed again from V c.
CANCELLATION = 2.0**-26

# Products of active points within this fraction of |v_k^T p'| + ||p'||^2
# of the largest tie for the pairwise step's k, and the tie goes to the
# lowest index: after a line-search move between two points their margins
# are equal in exact arithmetic, and rounding must not choose between them.
# find_pivot breaks the same tie between the two points of the last
# unclamped transfer, by margins within this fraction of margin_j + ||p'||^2.
TIE = 2.0**-40

# A target within this relative distance of the iterate, eps ||p||, cannot
# be told from it: the inputs carry that much rounding.
ROUNDING = float(np.finfo(float).eps)

# Largest squared norm of a point or target: below it ||p - v||^2 <= 4 max
# and the other sums the solvers form stay finite.
SQ_NORM_MAX = np.finfo(float).max / 4.0


def check_scale(columns: np.ndarray, what: str) -> np.ndarray:
    """Squared norms of the columns; ValueError when one exceeds SQ_NORM_MAX
    or a nonzero column's underflows to 0, a scale doubles cannot square.
    A hull query's points and target are checked so. A LinearSystem checks
    its columns, b and A e so after scaling them by a power of two to a
    largest entry in [1/2, 1), where only an underflow, a spread of about
    2^537 or more, can fail."""
    sq = np.einsum("ij,ij->j", columns, columns)
    if not (sq <= SQ_NORM_MAX).all():
        raise ValueError(f"{what} too large: a squared norm overflows; rescale the input")
    if ((sq == 0.0) & columns.any(axis=0)).any():
        raise ValueError(f"{what} too small: a squared norm underflows to 0; rescale the input")
    return sq


def check_query(points: np.ndarray, target: np.ndarray) -> None:
    """ValueError unless points (one per column) and target fit together
    and are finite."""
    if points.ndim != 2 or target.ndim != 1:
        raise ValueError("points must be a 2-d array, one column per point, and target 1-d")
    m, n = points.shape
    if n < 1 or m < 1:
        raise ValueError("need at least one point in at least one dimension")
    if target.size != m:
        raise ValueError(f"points live in dimension {m}, target in {target.size}")
    if not np.isfinite(points).all() or not np.isfinite(target).all():
        raise ValueError("points and target must be finite")


class DegeneratePivot(ValueError):
    """No step can move the iterate toward the target.

    Either a pivot coincides exactly with the iterate, which a pivot margin
    rules out in exact arithmetic unless the iterate sits on the target, or
    the iterate is a witness within rounding of the target (see ROUNDING).
    Both signal a stalled run, at any scale. run_hull raises it only when
    no point certifies the iterate either.
    """


class HullInstance:
    """A membership query: point set S (matrix columns) and target p.

    Parameters
    ----------
    points : (m, n) array
        Columns are the points v_1 ... v_n.
    target : (m,) array
        The query point p.
    gram : (n, n) array, optional
        V^T V of the translated points, kept as given, not copied, in
        place of the product formed at first use.

    The points are stored translated by -p, so that every run targets the
    origin: points holds v_i - p (the array given, not a copy, when p = 0),
    target holds p, and sq_norms the squared distances ||v_i - p||^2.
    """

    def __init__(self, points, target, gram=None):
        points = np.ascontiguousarray(points, dtype=float)
        target = np.ascontiguousarray(target, dtype=float)
        check_query(points, target)
        sq_norms = check_scale(points, "points")
        target_sq = float(check_scale(target[:, None], "target")[0])
        if target_sq > 0.0:
            points = points - target[:, None]
            sq_norms = np.einsum("ij,ij->j", points, points)
        self.points = points
        self.target = target
        self.target_norm = math.sqrt(target_sq)
        self.sq_norms = sq_norms
        self.n_points = points.shape[1]
        # V^T V, given or formed whole at first use on at most 2 dim points (at
        # most twice their memory); a wider set keeps one column per pivot.
        self._narrow = points.shape[1] <= 2 * points.shape[0]
        self._gram: np.ndarray | None = gram
        self._gram_cols: dict[int, np.ndarray] = {}

    def distance_to_point(self, j: int) -> float:
        """||p - v_j||."""
        return math.sqrt(self.sq_norms[j])

    def gram_column(self, j: int) -> np.ndarray:
        """v_i^T v_j for all i, a row of the whole Gram matrix, given or
        formed at the first call in O(dim n^2), on a set of at most 2 dim
        points, else column j, in O(dim n). Do not modify the returned array."""
        if self._gram is not None:
            return self._gram[j]
        if self._narrow:
            self._gram = self.points.T @ self.points
            return self._gram[j]
        column = self._gram_cols.get(j)
        if column is None:
            column = self._gram_cols[j] = (self.points[:, [j]].T @ self.points)[0]
        return column


@dataclass(slots=True)
class Iterate:
    """A point p' of conv(S), in coefficient space.

    coeffs holds nonnegative weights over the columns that sum to 1 up to
    the rounding of the Triangle steps, which do not renormalise (see
    apply_step), and p' = points @ coeffs is not stored: dot_cache holds
    v_i^T p' for all i and point_sq ||p'||^2, each up to the rounding of
    its updates (exact_iterate forms them from p'). point_sq_scale is the
    sum of the magnitudes of the terms point_sq was recursed from since it
    was last formed, so its rounding error is a small multiple of eps *
    point_sq_scale, and age counts the steps since then: 0 means formed
    from p', and a step that would reach age n forms the iterate again
    (see recursed_iterate). gap is ||p - p'||, the square root of
    point_sq. tie holds the two points, lower index first, whose margins
    the unclamped pairwise step that made this iterate left equal in
    exact arithmetic, else None; find_pivot breaks that tie to the lower.

    floor, when not None, is what apply_step's donor search adds to the
    products: 0.0 at each of the first donors points that holds weight,
    -inf at every other point, and least is a positive lower bound on
    those weights (inf when none holds any). apply_step carries them from
    step to step, or leaves floor None where a weight may have vanished
    (see apply_step), and a shift move and the age-n refresh keep them;
    an iterate formed otherwise has floor None. No function writes into a
    floor it was given.
    """

    coeffs: np.ndarray
    dot_cache: np.ndarray
    point_sq: float
    point_sq_scale: float
    age: int
    tie: tuple[int, int] | None = None
    floor: np.ndarray | None = None
    donors: int = 0
    least: float = math.inf

    @property
    def gap(self) -> float:
        return math.sqrt(self.point_sq)


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

    max_iterations caps the Triangle steps, MAX_ITERATIONS unless set.
    init_coeffs are convex weights over the points to start from; None
    starts at the point nearest the target (see initial_iterate).
    """

    epsilon: float = 1e-4
    max_iterations: int = MAX_ITERATIONS
    init_coeffs: np.ndarray | None = None
    record_trace: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        check_run_settings(self)


def check_run_settings(config) -> None:
    """HullConfig's and SolveConfig's common check: max_iterations at least 1."""
    if config.max_iterations is None or config.max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, not {config.max_iterations!r}")


@dataclass
class HullOutcome:
    """Result of run_hull.

    status is one of IN_HULL_APPROX, NOT_IN_HULL, CAP_EXCEEDED. The
    iterate is formed from V c, its coefficients divided by their sum
    first. On IN_HULL_APPROX the final gap satisfies gap <= epsilon *
    ||p - v_j|| for the certifying vertex j; on NOT_IN_HULL witness is set.
    """

    status: str
    iterate: Iterate
    iterations: int
    initial_gap_delta0: float
    witness: Witness | None = None
    certifying_vertex: int | None = None
    trace: list[TraceRecord] | None = None


def _clean_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Clamp rounding dust at zero and renormalize to sum exactly one;
    ValueError on a non-finite or negative weight or a zero sum."""
    coeffs = np.array(coeffs, dtype=float)
    if not np.isfinite(coeffs).all():
        raise ValueError("convex coefficients must be finite")
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
    return exact_iterate(instance, coeffs)


def exact_iterate(instance: HullInstance, coeffs: np.ndarray) -> Iterate:
    """The iterate at these coefficients, taken as they are, with its
    products and squared norm formed from p' = V c, in O(dim n)."""
    points = instance.points
    point = points @ coeffs
    point_sq = float(point.dot(point))
    return Iterate(coeffs, points.T @ point, point_sq, point_sq, 0)


def _settled_iterate(instance: HullInstance, iterate: Iterate) -> Iterate:
    """exact_iterate at the iterate's coefficients divided by their sum: an
    iterate whose coefficients leave the kernel, as a verdict or a witness,
    sums to 1 up to the rounding of that one division, whatever the
    Triangle steps before it left. The point moves by that rounding alone,
    so the tie is kept."""
    settled = exact_iterate(instance, iterate.coeffs / iterate.coeffs.sum())
    settled.tie = iterate.tie
    return settled


def initial_iterate(instance: HullInstance, init_coeffs=None) -> Iterate:
    """Starting iterate at the convex weights init_coeffs (see make_iterate),
    or at the point nearest the target when None: the cheapest start that
    is often already close."""
    if init_coeffs is None:
        init_coeffs = np.zeros(instance.n_points)
        init_coeffs[int(instance.sq_norms.argmin())] = 1.0
    return make_iterate(instance, init_coeffs)


def pivot_margins(iterate: Iterate) -> np.ndarray:
    """Square-root-free pivot margins ||p'||^2 / 2 - v_i^T p' for every
    point, in O(n).

    margin_i >= 0 means v_i is a pivot point (equivalently
    ||p' - v_i|| >= ||p - v_i||); all margins < 0 means the iterate is a
    witness. Computed from the iterate's maintained products and squared
    norm, so they carry the rounding those accumulated; see find_pivot.
    """
    return np.subtract(0.5 * iterate.point_sq, iterate.dot_cache)


def find_pivot(instance: HullInstance, iterate: Iterate) -> int | None:
    """Index of a pivot point, or None when the iterate is a witness.

    The pivot maximizes the margin, ties to the lowest index. The search
    forms the margins as pivot_margins does, inline, in O(n). When they
    show no pivot, the iterate is formed again from V c in place, every
    field copied from _settled_iterate's, and its margins, the direct
    ones, decide: None always means the direct margins are all negative
    and leaves an iterate witness_of certifies as it is, and a pivot found
    then is stepped toward from exact values. When the pivot is the higher
    point of the iterate's tie, the lower one is taken if its margin is
    nonnegative and within TIE of the pivot's, in O(1), so that rounding
    does not choose between two margins equal in exact arithmetic.
    """
    margins = np.subtract(0.5 * iterate.point_sq, iterate.dot_cache)
    j = int(margins.argmax())
    if margins.item(j) < 0.0:
        settled = _settled_iterate(instance, iterate)
        for name in Iterate.__slots__:
            setattr(iterate, name, getattr(settled, name))
        margins = np.subtract(0.5 * iterate.point_sq, iterate.dot_cache)
        j = int(margins.argmax())
    if margins.item(j) < 0.0:
        return None
    tie = iterate.tie
    if tie is not None and j == tie[1]:
        top = margins.item(j)
        if margins.item(tie[0]) >= max(0.0, top - TIE * (top + iterate.point_sq)):
            return tie[0]
    return j


def witness_of(iterate: Iterate) -> Witness | None:
    """Witness certificate when every margin is strictly negative, in O(n).

    Pass an iterate formed from V c, as find_pivot leaves one it returns
    None for: the certificate's margins and distance bracket are then the
    direct ones.
    """
    margins = pivot_margins(iterate)
    if (margins < 0.0).all():
        bracket = (0.5 * iterate.gap, iterate.gap)
        return Witness(iterate=iterate, margins=margins, distance_bracket=bracket)
    return None


def step_size(instance: HullInstance, iterate: Iterate, j: int) -> float:
    """Step size toward pivot j, clamped to [0, 1], in O(1).

    The unclamped value (q - d_j) / (G_jj - 2 d_j + q), with q = ||p'||^2,
    d_j = v_j^T p' and G_jj = ||v_j||^2, places the new iterate at the point
    closest to the target on the line through p' and v_j; a returned value
    of 1 means jump to the pivot vertex itself. A denominator
    ||v_j - p'||^2 <= 0 raises DegeneratePivot.
    """
    q = iterate.point_sq
    d_j = iterate.dot_cache.item(j)
    denom = instance.gram_column(j).item(j) - 2.0 * d_j + q
    if denom <= 0.0:
        raise DegeneratePivot("pivot coincides with the current iterate")
    return min(1.0, max(0.0, (q - d_j) / denom))


def recursed_iterate(
    instance: HullInstance,
    coeffs: np.ndarray,
    dots: np.ndarray,
    point_sq: float,
    scale: float,
    age: int,
    floor: np.ndarray | None = None,
    donors: int = 0,
    least: float = math.inf,
) -> Iterate:
    """The iterate with recursed products and squared norm, or the one
    exact_iterate forms when age reaches n, which keeps the rounding of
    the recursions from piling up, or when point_sq < CANCELLATION *
    scale. Either way it carries the donor floor given (see Iterate),
    which the weights decide and the products do not."""
    if age >= instance.n_points or point_sq < CANCELLATION * scale:
        iterate = exact_iterate(instance, coeffs)
        iterate.floor, iterate.donors, iterate.least = floor, donors, least
        return iterate
    return Iterate(coeffs, dots, point_sq, scale, age, None, floor, donors, least)


def _donor_floor(coeffs: np.ndarray, donors: int) -> tuple[np.ndarray | None, float]:
    """Iterate.floor and Iterate.least formed from the weights: 0.0 at each
    of the first donors points with a nonzero weight and -inf elsewhere,
    and the least of those weights (inf when there is none); no floor
    without donors."""
    if not donors:
        return None, math.inf
    floor = np.where(coeffs, 0.0, -np.inf)
    floor[donors:] = -np.inf
    held = coeffs[:donors]
    return floor, float(np.min(held, where=held != 0.0, initial=math.inf))


def apply_step(
    instance: HullInstance, iterate: Iterate, j: int, alpha: float, donors: int = 0
) -> Iterate:
    """New iterate after pulling toward pivot j with step alpha in [0, 1].

    The coefficients mix as (1 - alpha) c + alpha e_j, with no clamp and
    no renormalisation, so their sum drifts from 1 by rounding (a few eps
    a step at most); find_pivot and run_hull divide it out where the
    coefficients leave the kernel. The products move with the point
    through the Gram column of j, and ||p'||^2 by the recursion
    (1 - alpha)^2 q + 2 alpha (1 - alpha) d_j + alpha^2 G_jj: O(n) once
    that column is computed (see HullInstance.gram_column). A result that
    may have cancelled is formed from V c (see recursed_iterate).

    With donors > 0, the step is the better of two exact line-search
    steps, by how far each lowers ||p - p'||^2: this Triangle step, and a
    pairwise step from k to j, which costs O(n) as well. k is the point of
    positive coefficient among the first donors with the least margin,
    that is the largest product v_k^T p' (ties within TIE to the lowest
    index), and the step moves weight gamma = min((margin_j - margin_k) /
    ||v_j - v_k||^2, c_k) from k to j, all of it when clamped. Both
    decreases come in O(1) from the maintained products and the Gram
    columns of j and k. An unclamped pairwise step leaves the margins of j
    and k equal in exact arithmetic, and the new iterate's tie names them.
    Either way j is the point that gains weight, and the given iterate is
    left as it was.

    The search for k adds the iterate's floor to the products, one argmax
    (see Iterate): d + 0.0 differs from d only in the sign of a zero,
    which no comparison sees. The floor is carried, and copied only where
    it changes. A Triangle step keeps it while keep * least > 0, since no
    weight then rounds to 0, and j joins it; a pairwise step takes k out
    when its weight is cleared and puts j in. It is formed again from the
    weights at the next step with donors after alpha = 1, a keep * least
    that underflows, the dust clamp, or an iterate whose coefficients
    were divided by their sum, and when donors differs from the count it
    was formed for. A move and the age-n refresh keep the weights, and so
    the floor.

    run_hull and solve_nonneg let every point give weight.
    solve_incremental lets only the n columns give it, never -b(t): a
    transfer then never lowers alpha_b, which x0 = alpha / alpha_b and the
    estimate gap / alpha_b divide by. On the general_shift reference
    systems that rule takes fewer steps than Triangle steps alone, on every
    system; with -b(t) a donor too it takes more than them on some
    (CHANGES.md has the counts, in the entry on the centroid start of
    solve_incremental).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    coeffs, dots, q = iterate.coeffs, iterate.dot_cache, iterate.point_sq
    column = instance.gram_column(j)
    d_j, g_jj = dots.item(j), column.item(j)
    floor, least = iterate.floor, iterate.least
    if floor is None or iterate.donors != donors:
        floor, least = _donor_floor(coeffs, donors)
    if floor is not None:
        active = dots + floor  # the donors' products where they hold weight, else -inf
        top = active.item(active.argmax())
        if top > -math.inf:  # some donor holds weight
            k = int((active >= top - TIE * (abs(top) + q)).argmax())
            column_k = instance.gram_column(k)
            d_k, c_k = dots.item(k), coeffs.item(k)
            rise = d_k - d_j  # margin_j - margin_k
            curvature = g_jj - 2.0 * column.item(k) + column_k.item(k)
            # A step of length s along d lowers ||p'||^2 / 2 by
            # s (-p')^T d - s^2 ||d||^2 / 2: here d = v_j - v_k and s = gamma,
            # for the Triangle step d = v_j - p' and s = alpha. There is no
            # pairwise step without a rise (k = j has none) and a curvature.
            gamma = min(rise / curvature, c_k) if rise > 0.0 and curvature > 0.0 else None
            if gamma is not None and gamma * (rise - 0.5 * gamma * curvature) > alpha * (
                q - d_j - 0.5 * alpha * (g_jj - 2.0 * d_j + q)
            ):
                # The sum stays 1 up to the rounding of two additions; only
                # a clamp of dust changes it and renormalises.
                coeffs = coeffs.copy()
                coeffs[k] = rest = c_k - gamma  # exactly 0 when gamma is clamped at c_k
                coeffs[j] += gamma
                if 0.0 < rest < COEFF_DUST:
                    coeffs[k] = 0.0
                    coeffs /= coeffs.sum()
                    floor = None
                elif rest == 0.0 or j < donors and floor.item(j) < 0.0:
                    # k's weight was cleared or j's is new: the given floor stays.
                    floor = floor.copy()
                    floor[k] = 0.0 if rest else -math.inf
                    floor[j] = 0.0 if j < donors else -math.inf
                # k keeps rest, and j at least gamma.
                least = min(least, gamma, rest or gamma)
                moved = np.subtract(column, column_k)
                moved *= gamma
                moved += dots
                lift = 2.0 * gamma * (d_j - d_k)
                square = gamma * gamma * curvature
                scale = iterate.point_sq_scale + abs(lift) + square
                stepped = recursed_iterate(
                    instance, coeffs, moved, q + lift + square, scale, iterate.age + 1,
                    floor, donors, least,
                )
                if gamma < c_k:
                    stepped.tie = (j, k) if j < k else (k, j)
                return stepped
    # x0 = alpha / alpha_b does not depend on the sum of the weights, so a
    # step leaves its drift in place. At alpha = 1 the mixing gives e_j,
    # the pivot's Gram column and G_jj exactly.
    keep = 1.0 - alpha
    coeffs = keep * coeffs
    coeffs[j] += alpha
    dots = keep * dots
    dots += alpha * column
    keep_sq = keep * keep
    cross = 2.0 * alpha * keep * d_j
    square = alpha * alpha * g_jj
    point_sq = keep_sq * q + cross + square
    scale = keep_sq * iterate.point_sq_scale + abs(cross) + square
    # Rounding is monotone: while keep * least > 0 no weight rounds to 0.
    # At alpha = 1 it is 0, or nan from an inf least.
    least *= keep
    if not least > 0.0:
        floor = None
    elif floor is not None and alpha and j < donors and floor.item(j) < 0.0:
        floor = floor.copy()
        floor[j] = 0.0
        least = min(least, alpha)  # j's weight, keep * 0 + alpha
    return recursed_iterate(
        instance, coeffs, dots, point_sq, scale, iterate.age + 1, floor, donors, least
    )


def _far_certificate(instance: HullInstance, iterate: Iterate, epsilon: float) -> int:
    """The point farthest from the target when it certifies the iterate,
    gap <= epsilon ||p - v_far||; DegeneratePivot otherwise."""
    far = int(instance.sq_norms.argmax())
    if iterate.gap > epsilon * instance.distance_to_point(far):
        raise DegeneratePivot("pivot coincides with the current iterate")
    return far


def run_hull(instance: HullInstance, config: HullConfig) -> HullOutcome:
    """Run the Triangle Algorithm to an eps-approximation or a witness.

    Loops pivot search / step-size / update, each update the better of the
    Triangle and the pairwise step (see apply_step). Returns IN_HULL_APPROX
    as soon as gap <= epsilon * ||p - v_j|| for the current pivot j (checked
    before stepping; when no pivot exists the reference falls back to
    min_i ||p - v_i||), NOT_IN_HULL with a witness when no pivot exists and
    the approximation test fails, and CAP_EXCEEDED once max_iterations
    steps were taken without either. A pivot that coincides with the
    iterate, or a witness within rounding of the target (gap <= eps ||p||,
    see ROUNDING), ends the run IN_HULL_APPROX if gap <= epsilon *
    ||p - v_far|| for the point v_far farthest from p, and raises
    DegeneratePivot otherwise. The gap of every verdict, and the outcome's
    iterate, are formed from V c, and the trace's last step row carries
    that gap. Deterministic for a fixed configuration.
    """
    iterate = initial_iterate(instance, config.init_coeffs)
    donors = instance.n_points
    delta0 = iterate.gap
    trace: list[TraceRecord] | None = [] if config.record_trace else None
    steps = 0
    witness = certifying_vertex = None
    while True:
        j = find_pivot(instance, iterate)
        reference_vertex = int(instance.sq_norms.argmin()) if j is None else j
        bound = config.epsilon * instance.distance_to_point(reference_vertex)
        if iterate.gap <= bound:
            exact = _settled_iterate(instance, iterate)
            if exact.gap <= bound:
                status, certifying_vertex, iterate = IN_HULL_APPROX, reference_vertex, exact
                break
            iterate = exact  # the maintained gap was off; search again
            continue
        if j is None:  # find_pivot formed the iterate from V c, so the test above was exact
            if iterate.gap > ROUNDING * instance.target_norm:
                status, witness = NOT_IN_HULL, witness_of(iterate)
            else:
                far = _far_certificate(instance, iterate, config.epsilon)
                status, certifying_vertex = IN_HULL_APPROX, far
            break
        if steps >= config.max_iterations:
            status, iterate = CAP_EXCEEDED, _settled_iterate(instance, iterate)
            break
        try:
            alpha = step_size(instance, iterate, j)
        except DegeneratePivot:
            iterate = _settled_iterate(instance, iterate)
            status, certifying_vertex = IN_HULL_APPROX, _far_certificate(
                instance, iterate, config.epsilon
            )
            break
        iterate = apply_step(instance, iterate, j, alpha, donors)
        steps += 1
        if trace is not None:
            trace.append(TraceRecord(steps, 0.0, iterate.gap, None, j, False))
    if trace:  # the last step's row carries the gap the verdict was formed from
        trace[-1].value = iterate.gap
    return HullOutcome(status, iterate, steps, delta0, witness, certifying_vertex, trace)

"""Shared random instance generators and reference computations for the
test suite.

All generators take an explicit numpy Generator so tests stay
deterministic; geometric claims (interior margins, outside distances) are
verified at construction time, never assumed.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from hullsolve import LinearSystem, SolveConfig, cli
from hullsolve.hull import (
    CAP_EXCEEDED,
    IN_HULL_APPROX,
    NOT_IN_HULL,
    TIE,
    HullConfig,
    HullInstance,
    Iterate,
    apply_step,
    exact_iterate,
    find_pivot,
    initial_iterate,
    step_size,
    witness_of,
)
from hullsolve.system import recover_solution, shifted_instance
from hullsolve.two_phase import _phase1_outcome, select_inner_epsilon
from oracles import hull_verdict

# An increment spec for solve_incremental for each rule name its
# diagnostics["policy"] reports.
INCREMENTS = {"quantized": "quantized", "double_plus_one": "double"}


def centroid_coeffs(k: int) -> np.ndarray:
    """Equal convex weights over k points: init_coeffs that start a run at
    their centroid."""
    return np.full(k, 1.0 / k)


def nearest_half_coeffs(system: LinearSystem) -> np.ndarray:
    """init_coeffs for solve_incremental with weight 1/2 on the point of
    {a_1, ..., a_n, -b(0)} nearest the origin and 1/2 on -b(0), for tests
    that pin a path or a step sequence taken from that start."""
    coeffs = np.zeros(system.n + 1)
    coeffs[int(shifted_instance(system, 0.0).sq_norms.argmin())] = 0.5
    coeffs[-1] += 0.5
    return coeffs


def check_witness(instance: HullInstance, iterate):
    """The witness certificate of the iterate's coefficients, its margins
    and distance bracket formed from p' = V c, or None when some direct
    margin is not strictly negative."""
    return witness_of(exact_iterate(instance, iterate.coeffs))


# The 2-d cross-check: membership and distances computed geometrically from
# the exact convex hull, apart from hullsolve's solvers and its
# minimum-norm-point oracle.


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


def given_units(system: LinearSystem, value, power: int = 1):
    """value, formed on the stored system as a norm (power 1) or a square
    (power 2), in the units of the A and b the system was built from."""
    return np.ldexp(value, -power * system.exponent)


def given_arrays(system: LinearSystem) -> tuple[np.ndarray, np.ndarray]:
    """The A and b the system was built from."""
    return given_units(system, system.a), given_units(system, system.b)


def radius_R(instance: HullInstance) -> float:
    """max_i ||p - v_i||, the R of the iteration bounds."""
    points = instance.points  # translated: v_i - p
    return float(np.sqrt(np.einsum("ij,ij->j", points, points).max()))


def iterate_point(instance: HullInstance, iterate) -> np.ndarray:
    """The iterate's point p', formed from its coefficients."""
    return instance.target + instance.points @ iterate.coeffs


def reference_margins(instance: HullInstance, point: np.ndarray) -> np.ndarray:
    """Pivot margins of a point given relative to the target, as the
    instance's points are, recomputed from those points."""
    return 0.5 * float(point @ point) - instance.points.T @ point


def _reference_pick(margins: np.ndarray, point_sq: float) -> int | None:
    """The pivot of largest margin, or None when every margin is negative.
    Any nonnegative margin within hull.TIE of the largest ties with it, and
    the tie goes to the lowest index: find_pivot's rule for the two points
    of an unclamped transfer, applied to every point."""
    top = float(margins.max())
    if top < 0.0:
        return None
    return int(np.argmax(margins >= max(0.0, top - TIE * (top + point_sq))))


def reference_find_pivot(instance, iterate):
    """Pivot search on margins recomputed from the points at every call.
    Like find_pivot, it forms an iterate it finds no pivot for again from
    V c, in place, at its coefficients divided by their sum."""
    point = instance.points @ iterate.coeffs
    j = _reference_pick(reference_margins(instance, point), float(point @ point))
    if j is None:
        settled = exact_iterate(instance, iterate.coeffs / iterate.coeffs.sum())
        for name in Iterate.__slots__:
            setattr(iterate, name, getattr(settled, name))
    return j


def reference_run_hull(instance: HullInstance, config: HullConfig) -> dict:
    """A plain loop of better-of steps that recomputes everything from the
    points.

    Each step is the better of the Triangle step toward the pivot j and the
    pairwise step to j from the active point k of least margin, judged by
    how far each lowers ||p - p'||^2 / 2, with every margin and
    ||v_j - p'||^2 and ||v_j - v_k||^2 formed from the points and no
    products kept between steps. Like run_hull it works on the instance's
    points, translated so that the target is the origin. It makes the same
    decisions, in the same order, as run_hull, but its coefficients agree
    with run_hull's only up to rounding. Returns status, pivots,
    iterations, coeffs, certifying_vertex and witness_margins.
    """
    points = instance.points
    coeffs = initial_iterate(instance, config.init_coeffs).coeffs
    point = points @ coeffs
    gap = math.sqrt(point @ point)
    cap = config.max_iterations
    pivots: list[int] = []

    def result(status, vertex=None, witness=None):
        return dict(status=status, pivots=pivots, iterations=len(pivots), coeffs=coeffs,
                    certifying_vertex=vertex, witness_margins=witness)

    while True:
        margins = reference_margins(instance, point)
        j = _reference_pick(margins, gap * gap)
        if j is not None:
            vertex = j
        else:
            vertex = int(np.argmin(np.einsum("ij,ij->j", points, points)))
        to_vertex = points[:, vertex]
        if gap <= config.epsilon * float(np.sqrt(to_vertex @ to_vertex)):
            return result(IN_HULL_APPROX, vertex=vertex)
        if j is None:
            return result(NOT_IN_HULL, witness=margins)
        if len(pivots) >= cap:
            return result(CAP_EXCEEDED)
        pivot = points[:, j]
        direction = pivot - point
        length_sq = float(direction @ direction)
        toward = float(-point @ direction)
        alpha = min(1.0, max(0.0, toward / length_sq))
        # The least margin is the largest product v_k^T p', up to run_hull's
        # tie tolerance: after an unclamped transfer the margins of its two
        # points tie, and the tie breaks to the lower index in both loops.
        active = np.where(coeffs > 0.0, points.T @ point, -np.inf)
        top = active.max()
        k = int(np.argmax(active >= top - TIE * (abs(top) + point @ point)))
        rise = float(margins[j] - margins[k])
        transfer = pivot - points[:, k]
        curvature = float(transfer @ transfer)
        gamma = 0.0
        if rise > 0.0 and curvature > 0.0:
            gamma = min(rise / curvature, float(coeffs[k]))
        if gamma * (rise - 0.5 * gamma * curvature) > alpha * (toward - 0.5 * alpha * length_sq):
            coeffs = coeffs.copy()
            coeffs[k] -= gamma
            coeffs[j] += gamma
            coeffs[np.abs(coeffs) < 1e-15] = 0.0
            coeffs = coeffs / coeffs.sum()
            point = point + gamma * transfer
        elif alpha == 1.0:
            coeffs = np.zeros(instance.n_points)
            coeffs[j] = 1.0
            point = pivot.copy()
        else:
            coeffs = (1.0 - alpha) * coeffs
            coeffs[j] += alpha
            coeffs[np.abs(coeffs) < 1e-15] = 0.0
            coeffs = coeffs / coeffs.sum()
            point = (1.0 - alpha) * point + alpha * pivot
        gap = math.sqrt(point @ point)
        pivots.append(j)


def reference_hull_target(system: LinearSystem, epsilon0: float) -> dict:
    """The paper's sensitivity path, which solve_nonneg does not stop on.

    Phase 1's witness gives delta0' = gap / 2 and the inner epsilon
    select_inner_epsilon chooses from it. Phase 2 then runs on the hull
    shifted_instance builds at t = 0, as solve_nonneg's does, and takes
    better-of steps from the nearest vertex until gap <= inner_epsilon *
    rho, checking no residual on the way. Returns delta0_prime,
    inner_epsilon, steps (Phase 2's), x and residual_norm.
    """
    config = SolveConfig(epsilon0=epsilon0)
    phase1 = _phase1_outcome(system, config)
    assert phase1.status == NOT_IN_HULL
    delta0_prime = 0.5 * phase1.iterate.gap
    inner_epsilon = select_inner_epsilon(epsilon0, delta0_prime, system)
    instance = shifted_instance(system, 0.0)
    iterate = initial_iterate(instance, config.init_coeffs)
    steps = 0
    while iterate.gap > inner_epsilon * system.rho:
        j = find_pivot(instance, iterate)
        assert j is not None, "a witness: the system has no nonnegative solution"
        alpha = step_size(instance, iterate, j)
        iterate = apply_step(instance, iterate, j, alpha, donors=instance.n_points)
        steps += 1
    x = recover_solution(iterate, system)
    return dict(delta0_prime=delta0_prime, inner_epsilon=inner_epsilon, steps=steps, x=x,
                residual_norm=system.residual_norm(x))


# hullsolve's command lines on small files: test_cli.py's test_cli_case runs
# each in-process (and the installed-package CI step runs test_cli.py), and
# tests/parity.py records their outputs under cli/<command>.
CLI_FILES = {
    "oracle_points.txt": "3 5\n1 0 0 1 2\n0 1 0 1 2\n0 0 1 1 3\n",
    "hull_target.txt": "3 1\n0.4\n0.4\n0.4\n",
    "far_points.txt": "3 5\n1001 1000 1000 1001 1002\n1000 1001 1000 1001 1002\n"
    "1000 1000 1001 1001 1003\n",
    "far_target.txt": "3 1\n1000.4\n1000.4\n1000.4\n",
    "square_points.txt": "2 4\n0 1 0 1\n0 0 1 1\n",
    "square_target.txt": "2 1\n0.3\n0.6\n",
    "many_points.txt": "2 7\n0 1 0 1 0.5 0.2 0.8\n0 0 1 1 0.5 0.9 0.1\n",
    "nonneg_matrix.txt": "3 3\n2 1 0\n1 3 1\n0 1 2\n",
    "nonneg_rhs.txt": "3 1\n3\n5\n3\n",
    "nonneg_array.mtx": "%%MatrixMarket matrix array real general\n% column-major\n3 3\n"
    "2\n1\n0\n1\n3\n1\n0\n1\n2\n",
    "nonneg_coordinate.mtx": "%%MatrixMarket matrix coordinate real general\n3 3 7\n"
    "1 1 2\n2 1 1\n1 2 1\n2 2 3\n3 2 1\n2 3 1\n3 3 2\n",
    "nonneg_symmetric.mtx": "%%MatrixMarket matrix array real symmetric\n3 3\n"
    "2\n1\n0\n3\n1\n2\n",
    "nonneg_rhs.mtx": "%%MatrixMarket matrix array real general\n3 1\n3\n5\n3\n",
    "stall_matrix.txt": "2 2\n1e-5 4e-5\n-1.5 0.75\n",
    "stall_rhs.txt": "2 1\n1\n0\n",
    "null_matrix.txt": "2 2\n1 -1\n1 -1\n",
    "null_rhs.txt": "2 1\n1\n0\n",
    "wide_matrix.txt": "3 3\n5e153 5e153 5e153\n0 5e152 0\n0 0 5e152\n",
    "wide_rhs.txt": "3 1\n1.5e153\n5e151\n5e151\n",
    "negative_count.mtx": "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
    "bad_value.mtx": "%%MatrixMarket matrix array real general\n3 3\n2\n1\n0\n1\nx\n1\n0\n1\n2\n",
    "separator_line.mtx": "%%MatrixMarket matrix array real general\n3 3\n2\n1\n\x1c\n"
    "0\n1\n3\n1\n0\n1\n2\n",
    "general_rhs.txt": "3 1\n1\n-2\n3\n",
    "tiny_points.txt": "2 3\n0 1e-15 0\n0 0 1e-15\n",
    "tiny_target.txt": "2 1\n2e-15\n2e-15\n",
}


class CliCase(NamedTuple):
    """A command line, with R and T standing for its report and trace
    paths; its exit code; the status each line of its summary names, its
    whole stderr but the final newline, and fields of its report (a dotted
    key reads a nested field), where these are pinned."""

    command: str
    code: int
    status: str | None = None
    stderr: str | None = None
    report: dict | None = None


_SOLVE = "solve --matrix nonneg_matrix.txt --epsilon0 1e-6"
# One nonneg system five ways: from DenseText files, with --phase1, and
# from Matrix Market array, coordinate and symmetric array copies. All
# give one x, in the same Phase 2 steps.
NONNEG_COPIES = [
    f"{_SOLVE} --rhs nonneg_rhs.txt --mode nonneg --trace T --report R",
    f"{_SOLVE} --rhs nonneg_rhs.txt --mode nonneg --phase1 --report R",
    "solve --matrix nonneg_array.mtx --rhs nonneg_rhs.mtx --mode nonneg --epsilon0 1e-6"
    " --report R",
    "solve --matrix nonneg_coordinate.mtx --rhs nonneg_rhs.mtx --mode nonneg --epsilon0 1e-6"
    " --report R",
    "solve --matrix nonneg_symmetric.mtx --rhs nonneg_rhs.mtx --mode nonneg --epsilon0 1e-6"
    " --report R",
]
CLI_CASES = [
    CliCase("hull --points oracle_points.txt --target hull_target.txt --trace T --report R", 0),
    CliCase("hull --points far_points.txt --target far_target.txt --epsilon 1e-6", 0),
    CliCase("hull --points square_points.txt --target square_target.txt --epsilon 1e-200", 0),
    # More points than twice the dimension: HullInstance's per-column Gram.
    CliCase("hull --points many_points.txt --target square_target.txt --report R", 0,
            report={"status": "in_hull_approx", "iterations": 3}),
    *(CliCase(command, 0) for command in NONNEG_COPIES),
    CliCase("solve --matrix null_matrix.txt --rhs null_rhs.txt", 2),
    CliCase("solve --matrix null_matrix.txt --rhs null_rhs.txt --mode nonneg", 2,
            stderr="error: origin lies in the convex hull of the columns to tolerance "
            "(gap 0.000e+00); the matrix is singular"),
    # Phase 2's first step leaves no weight on -b; Phase 1 runs from there.
    CliCase("solve --matrix stall_matrix.txt --rhs stall_rhs.txt --mode nonneg --epsilon0 0.05"
            " --trace T --report R", 0,
            report={"status": "converged", "iterations": 3,
                    "diagnostics.phase1_iterations": 1}),
    CliCase("solve --matrix wide_matrix.txt --rhs wide_rhs.txt --mode incremental --report R", 0),
    CliCase("solve --matrix wide_matrix.txt --rhs wide_rhs.txt --mode nonneg --report R", 0),
    CliCase("analyze --matrix negative_count.mtx --rhs null_rhs.txt", 2),
    CliCase("analyze --matrix bad_value.mtx --rhs nonneg_rhs.txt", 2,
            stderr="error: line 7: could not parse a numeric value"),
    CliCase("analyze --matrix separator_line.mtx --rhs nonneg_rhs.txt", 2,
            stderr="error: line 5: could not parse a numeric value"),
    CliCase(f"{_SOLVE} --rhs general_rhs.txt --trace T --report R", 0),
    CliCase(f"{_SOLVE} --rhs general_rhs.txt --increment double --report R", 0, "converged"),
    CliCase(f"{_SOLVE} --rhs general_rhs.txt --increment quantized:2 --report R", 2,
            stderr="error: bad increment spec 'quantized:2'; use quantized or double"),
    CliCase("analyze --matrix nonneg_matrix.txt --rhs general_rhs.txt --report R", 0),
    CliCase("hull --points tiny_points.txt --target tiny_target.txt", 1, "not_in_hull"),
    CliCase("bench --suite nonneg --sizes 30 --count 2 --epsilon0 0.01 --report R", 0,
            "converged"),
    CliCase("bench --suite membership --sizes 10 30 --count 2 --epsilon0 0.05 --report R", 0,
            "in_hull_approx"),
    CliCase("bench --suite general --sizes 10 30 50 --count 2 --epsilon0 0.05 --report R", 0,
            "converged"),
]


def write_cli_files(directory: Path) -> None:
    for name, text in CLI_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def run_cli(directory: Path, command: str, report: Path, trace: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.main on a command line whose
    file names are read in directory, with R and T standing for the report
    and trace paths."""
    argv = [str(report) if token == "R" else str(trace) if token == "T"
            else str(directory / token) if (directory / token).is_file() else token
            for token in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()

"""Triangle Algorithm core: worked examples, invariants, properties."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    inside_instance_2d,
    invertible_system,
    membership_instance,
    nonneg_system,
    outside_instance_2d,
    radius_R,
)
from hullsolve import (
    CAP_EXCEEDED,
    LinearSystem,
    SolveConfig,
    IN_HULL_APPROX,
    NOT_IN_HULL,
    DegeneratePivot,
    HullConfig,
    HullInstance,
    apply_step,
    check_witness,
    find_pivot,
    initial_iterate,
    iteration_cap_from_bound,
    make_iterate,
    run_hull,
    solve_incremental,
    solve_nonneg,
    step_size,
)
from hullsolve.hull import pivot_margins
from hullsolve.incremental import move_shift, shifted_instance
from hullsolve.oracles import hull_membership_2d


def hull_points_example1():
    # Columns a1, a2, -b of the 2x2 system with solution (1, 2).
    return np.array([[3.0, -2.0, 1.0], [2.0, 1.0, -4.0]])


def hull_points_example2():
    # Columns a1, a2, -b of the 2x2 system with solution (-1, -2).
    return np.array([[2.0, -1.0, 0.0], [1.0, 1.0, 3.0]])


class TestFindPivot:
    def test_witness_state_has_no_pivot(self):
        instance = HullInstance(hull_points_example2(), np.zeros(2))
        iterate = make_iterate(instance, [0.25, 0.5, 0.25])
        assert np.allclose(iterate.point, [0.0, 1.5])
        assert find_pivot(instance, iterate) is None

    def test_centroid_picks_second_column(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        iterate = make_iterate(instance, np.full(3, 1.0 / 3.0))
        assert np.allclose(iterate.point, [2.0 / 3.0, -1.0 / 3.0])
        assert find_pivot(instance, iterate) == 1

    def test_zero_gap_every_index_is_pivot(self):
        points = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
        target = points @ np.array([0.25, 0.25, 0.5])
        instance = HullInstance(points, target)
        iterate = make_iterate(instance, [0.25, 0.25, 0.5])
        margins = pivot_margins(instance, iterate)
        assert np.all(np.abs(margins) < 1e-12)
        assert find_pivot(instance, iterate) == 0


class TestCheckWitness:
    def test_example2_margins(self):
        instance = HullInstance(hull_points_example2(), np.zeros(2))
        iterate = make_iterate(instance, [0.25, 0.5, 0.25])
        witness = check_witness(instance, iterate)
        assert witness is not None
        assert np.allclose(
            witness.margins, [-3.0 / 8.0, -3.0 / 8.0, -27.0 / 8.0], atol=1e-14
        )
        low, high = witness.distance_bracket
        assert low == 0.5 * high
        assert high == iterate.gap

    def test_interior_point_never_witness(self):
        points = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        target = np.array([0.5, 0.5])
        instance = HullInstance(points, target)
        iterate = make_iterate(instance, [1.0 / 3.0] * 3)
        assert check_witness(instance, iterate) is None
        # Even at p' = p the margins vanish without turning negative.
        exact = make_iterate(instance, [0.5, 0.25, 0.25])
        assert np.allclose(exact.point, target)
        assert check_witness(instance, exact) is None

    def test_witness_separates_every_point(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            points, target, _ = outside_instance_2d(rng)
            instance = HullInstance(points, target)
            outcome = run_hull(instance, HullConfig(epsilon=0.01))
            assert outcome.status == NOT_IN_HULL
            witness = outcome.witness
            p_prime = witness.iterate.point
            for i in range(points.shape[1]):
                assert np.linalg.norm(p_prime - points[:, i]) < np.linalg.norm(
                    target - points[:, i]
                )


class TestStepSize:
    def test_example1_quarter(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        iterate = make_iterate(instance, np.full(3, 1.0 / 3.0))
        alpha = step_size(instance.target, iterate, instance.points[:, 1])
        assert alpha == pytest.approx(0.25, abs=1e-15)

    def test_example2_two_thirteenths(self):
        instance = HullInstance(hull_points_example2(), np.zeros(2))
        iterate = make_iterate(instance, [0.25, 0.5, 0.25])
        iterate.point[:] = [-0.5, 0.5]  # iterate at shift 2 in the worked example
        alpha = step_size(instance.target, iterate, np.array([2.0, 1.0]))
        assert alpha == pytest.approx(2.0 / 13.0, abs=1e-16)

    def test_collinear_lands_on_target(self):
        points = np.array([[0.0, 2.0], [0.0, 0.0]])
        instance = HullInstance(points, np.array([1.0, 0.0]))
        iterate = make_iterate(instance, [1.0, 0.0])
        alpha = step_size(instance.target, iterate, points[:, 1])
        assert alpha == 0.5
        stepped = apply_step(instance, iterate, 1, alpha)
        assert np.allclose(stepped.point, instance.target)
        assert stepped.gap == 0.0

    def test_degenerate_pivot_raises(self):
        points = np.array([[1.0, 1.0], [1.0, 1.0]])
        instance = HullInstance(points, np.array([0.0, 0.0]))
        iterate = make_iterate(instance, [1.0, 0.0])
        with pytest.raises(DegeneratePivot):
            step_size(instance.target, iterate, points[:, 1])


def _run_at_scale(case: str, scale: float):
    """(status, iterations, coefficients or x, shift) with every input
    multiplied by scale."""
    rng = np.random.default_rng(5)
    if case in ("in_hull", "outside"):
        points, target = inside_instance_2d(rng)
        if case == "outside":
            # Just beyond the point farthest from the centroid.
            centroid = points.mean(axis=1)
            offsets = points - centroid[:, None]
            far = int(np.argmax(np.einsum("ij,ij->j", offsets, offsets)))
            target = centroid + 1.05 * offsets[:, far]
        instance = HullInstance(scale * points, scale * target)
        config = HullConfig(epsilon=1e-3, init_rule="centroid")
        outcome = run_hull(instance, config)
        return outcome.status, outcome.iterations, outcome.iterate.coeffs, 0.0
    if case == "nonneg":
        system, _ = nonneg_system(rng, 6)
        solve = solve_nonneg
    else:
        system, _ = invertible_system(rng, 5)
        solve = solve_incremental
    scaled = LinearSystem(scale * system.a, scale * system.b)
    outcome = solve(scaled, SolveConfig(epsilon0=1e-6))
    return outcome.status, outcome.iterations, outcome.x, outcome.shift_t


@pytest.mark.parametrize("case", ["in_hull", "outside", "nonneg", "mixed_sign"])
@pytest.mark.parametrize("scale", [2.0**-60, 2.0**60], ids=["2^-60", "2^60"])
def test_power_of_two_scale_changes_nothing(case, scale):
    # Scaling by a power of two is exact, so the Triangle Algorithm, whose
    # decisions are all relative, must take the same path; a degenerate
    # pivot is an exact coincidence, not a short distance.
    status, iterations, values, shift = _run_at_scale(case, scale)
    expected = _run_at_scale(case, 1.0)
    assert (status, iterations, shift) == (expected[0], expected[1], expected[3])
    assert iterations > 0
    np.testing.assert_array_equal(values, expected[2])


class TestApplyStep:
    def test_example1_coefficients(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        iterate = make_iterate(instance, np.full(3, 1.0 / 3.0))
        stepped = apply_step(instance, iterate, 1, 0.25)
        assert np.allclose(stepped.coeffs, [0.25, 0.5, 0.25], atol=1e-14)

    def test_example2_coefficients(self):
        points = hull_points_example2().copy()
        points[:, 2] = [-2.0, -1.0]  # -b(2) at shift 2
        instance = HullInstance(points, np.zeros(2))
        iterate = make_iterate(instance, [0.25, 0.5, 0.25])
        stepped = apply_step(instance, iterate, 0, 2.0 / 13.0)
        assert np.allclose(
            stepped.coeffs, [19.0 / 52.0, 11.0 / 26.0, 11.0 / 52.0], atol=1e-14
        )

    def test_zero_step_is_identity(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        iterate = make_iterate(instance, [0.2, 0.3, 0.5])
        stepped = apply_step(instance, iterate, 0, 0.0)
        assert np.array_equal(stepped.coeffs, iterate.coeffs)
        assert np.array_equal(stepped.point, iterate.point)

    def test_full_step_collapses_to_vertex(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        iterate = make_iterate(instance, [0.2, 0.3, 0.5])
        stepped = apply_step(instance, iterate, 2, 1.0)
        assert np.array_equal(stepped.coeffs, [0.0, 0.0, 1.0])
        assert np.array_equal(stepped.point, instance.points[:, 2])

    def test_dot_cache_tracks_fresh_products(self):
        # 10^4 steps toward random pivots with step lengths from 1e-6 to 1,
        # so the rounding of the product updates has every chance to pile up.
        rng = np.random.default_rng(3)
        points = rng.normal(size=(6, 12))
        target = points @ rng.dirichlet(np.ones(12))
        instance = HullInstance(points, target)
        iterate = make_iterate(instance, rng.dirichlet(np.ones(12)))
        for step in range(10_000):
            j = find_pivot(instance, iterate) if step < 50 else int(rng.integers(12))
            alpha = 1.0 if step % 997 == 0 else 10.0 ** rng.uniform(-6.0, 0.0)
            iterate = apply_step(instance, iterate, j, alpha)
            fresh = instance.points.T @ iterate.point
            scale = np.abs(fresh).max() + 1e-30
            assert np.abs(iterate.dot_cache - fresh).max() <= 1e-10 * scale

    def test_dot_cache_tracks_fresh_products_across_shifts(self):
        # The shifted hull moved between shifts in place, against a rebuilt
        # one: the same points bit for bit, and products that track.
        rng = np.random.default_rng(5)
        n = 6
        a = rng.normal(size=(n, n))
        system = LinearSystem(a, a @ rng.normal(size=n))
        t = 0.0
        instance = shifted_instance(system, t)
        iterate = make_iterate(instance, rng.dirichlet(np.ones(n + 1)))
        for step in range(10_000):
            if step % 3 == 0:
                new_t = min(10.0, max(0.0, t + rng.uniform(-1.0, 1.5)))
                iterate = move_shift(system, instance, iterate, t, new_t)
                t = new_t
                rebuilt = shifted_instance(system, t)
                assert np.array_equal(instance.points, rebuilt.points)
                assert np.array_equal(instance.target_dots, rebuilt.target_dots)
                j = int(rng.integers(n + 1))
                assert np.allclose(
                    instance.gram_column(j), rebuilt.gram_column(j), rtol=1e-12, atol=1e-12
                )
            else:
                j = int(rng.integers(n + 1))
                alpha = 1.0 if step % 997 == 0 else 10.0 ** rng.uniform(-6.0, 0.0)
                iterate = apply_step(instance, iterate, j, alpha)
            fresh = instance.points.T @ iterate.point
            scale = np.abs(fresh).max() + 1e-30
            assert np.abs(iterate.dot_cache - fresh).max() <= 1e-10 * scale


class TestPairwiseStep:
    """apply_step(pairwise=True): the better of the Triangle step and a
    transfer of weight to the pivot from the active point of least margin."""

    def test_clamped_transfer_empties_the_point(self):
        # From p' = (0, 1) toward p = (0, -1): the Triangle step jumps to
        # v_0 and lowers ||p - p'||^2 / 2 by 1. Moving weight from v_2
        # (margin -20) to v_0 (margin 0) has gamma* = 20 / 101, clamped at
        # v_2's 0.1, and lowers it by 0.1 * 20 - 0.01 * 101 / 2 = 1.495.
        points = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 10.0]])
        instance = HullInstance(points, np.array([0.0, -1.0]))
        iterate = make_iterate(instance, [0.45, 0.45, 0.1])
        alpha = step_size(instance.target, iterate, points[:, 0])
        assert alpha == 1.0
        assert np.array_equal(apply_step(instance, iterate, 0, alpha).coeffs, [1.0, 0.0, 0.0])
        stepped = apply_step(instance, iterate, 0, alpha, pairwise=True)
        assert stepped.coeffs[2] == 0.0
        assert stepped.coeffs[1] == iterate.coeffs[1]
        assert stepped.coeffs[0] == pytest.approx(0.55, abs=1e-15)
        assert np.allclose(stepped.point, [0.1, 0.0], rtol=0.0, atol=1e-15)
        assert np.allclose(stepped.dot_cache, points.T @ stepped.point, rtol=0.0, atol=1e-14)
        assert stepped.gap == pytest.approx(math.hypot(0.1, 1.0), rel=1e-15)

    def test_never_worse_than_the_triangle_step(self):
        # Random iterates and pivots: the pairwise result is the Triangle
        # step bit for bit, or a transfer between two points that ends at
        # least as close to the target.
        rng = np.random.default_rng(67)
        points = rng.normal(size=(6, 10))
        instance = HullInstance(points, points @ rng.dirichlet(np.ones(10)))
        transfers = 0
        for _ in range(500):
            coeffs = rng.dirichlet(np.ones(10)) * (rng.random(10) < 0.6)
            if not coeffs.any():
                continue
            iterate = make_iterate(instance, coeffs)
            j = find_pivot(instance, iterate)
            if j is None:
                continue
            alpha = step_size(instance.target, iterate, points[:, j])
            triangle = apply_step(instance, iterate, j, alpha)
            stepped = apply_step(instance, iterate, j, alpha, pairwise=True)
            if np.array_equal(stepped.coeffs, triangle.coeffs):
                assert np.array_equal(stepped.point, triangle.point)
                continue
            transfers += 1
            changed = np.flatnonzero(stepped.coeffs != iterate.coeffs)
            assert j in changed and len(changed) == 2
            assert stepped.coeffs[j] > iterate.coeffs[j]
            assert stepped.gap <= triangle.gap * (1.0 + 1e-12)
        assert 50 <= transfers <= 450

    @pytest.mark.parametrize("kind", ["phase2", "phase1", "membership"])
    @pytest.mark.parametrize("seed", range(3))
    def test_invariants_over_long_runs(self, kind, seed):
        # Up to 3,000 steps each, until a witness or, inside the hull, the
        # gap reaches the rounding floor.
        rng = np.random.default_rng([69, seed])
        system, _ = nonneg_system(rng, 30, diag_boost=0.0)
        if kind == "phase2":
            instance = HullInstance(np.hstack([system.a, -system.b[:, None]]), np.zeros(30))
        elif kind == "phase1":
            instance = HullInstance(system.a, np.zeros(30))
        else:
            instance = HullInstance(*membership_instance(rng, 8))
        # The product updates round on the scale of the Gram entries.
        scale = np.einsum("ij,ij->j", instance.points, instance.points).max()
        iterate = initial_iterate(instance, "centroid")
        floor = 1e-9 * iterate.gap
        for _ in range(3000):
            j = find_pivot(instance, iterate)
            if j is None or iterate.gap <= floor:
                break
            alpha = step_size(instance.target, iterate, instance.points[:, j])
            stepped = apply_step(instance, iterate, j, alpha, pairwise=True)
            assert (stepped.coeffs >= 0.0).all()
            assert abs(stepped.coeffs.sum() - 1.0) <= 1e-12
            fresh = instance.points.T @ stepped.point
            assert np.abs(stepped.dot_cache - fresh).max() <= 1e-12 * scale
            assert stepped.gap <= iterate.gap
            iterate = stepped
        if kind == "phase1":
            assert j is None and check_witness(instance, iterate) is not None
        elif kind == "membership":
            assert iterate.gap <= floor


class TestGramMemo:
    """Gram columns are stored at their first request and move with the
    last point."""

    @staticmethod
    def _assert_rows_are_products(instance, points, columns):
        for j in columns:
            fresh = points.T @ points[:, j]
            scale = np.abs(fresh).max()
            assert np.abs(instance.gram_column(j) - fresh).max() <= 1e-12 * scale

    def test_first_request_serves_every_row(self):
        rng = np.random.default_rng(61)
        dim, n = 100, 150
        instance = HullInstance(rng.normal(size=(dim, n)), rng.normal(size=dim))
        original = instance.points.copy()
        instance.gram_column(70)
        # Rows served from the points now would be zero: every row must
        # have come from the first request.
        instance.points[:] = 0.0
        self._assert_rows_are_products(instance, original, range(n))
        instance.points[:] = original
        for step in range(30):
            point = rng.normal(size=dim)
            products = np.append(instance.points[:, :-1].T @ point, point @ point)
            instance.move_last_point(point, products)
            self._assert_rows_are_products(instance, instance.points, range(n))

    @pytest.mark.parametrize(
        "dim, visits",
        [(5, (0, 7, 21)), (30, (0, 7, 21)), (30, ())],
        ids=["wide", "narrow", "narrow-move-first"],
    )
    def test_moved_row_and_column_are_the_products(self, dim, visits):
        rng = np.random.default_rng(63)
        n = 40
        instance = HullInstance(rng.normal(size=(dim, n)), rng.normal(size=dim))
        for j in visits:
            instance.gram_column(j)
        for _ in range(3):
            point = rng.normal(size=dim)
            # Any products are stored as given, whether or not they are
            # the fresh ones.
            products = instance.points.T @ point + rng.normal(size=n) * 1e-9
            products[-1] = point @ point
            instance.move_last_point(point, products)
            assert instance.gram_column(n - 1).tobytes() == products.tobytes()
            for j in visits:
                assert instance.gram_column(j)[n - 1] == products[j]

    @pytest.mark.parametrize("computed", [True, False])
    def test_appended_point_borders_the_gram_matrix(self, computed):
        # A Gram matrix computed on the smaller set is kept bit for bit and
        # bordered with the given products; one not yet computed is
        # computed whole on the grown set.
        rng = np.random.default_rng(73)
        dim, n = 12, 12
        instance = HullInstance(rng.normal(size=(dim, n)), np.zeros(dim))
        if computed:
            instance.gram_column(0)
        point = rng.normal(size=dim)
        products = np.append(instance.points.T @ point, point @ point)
        grown = instance.with_point(point, products)
        assert np.array_equal(grown.points, np.column_stack([instance.points, point]))
        assert np.array_equal(grown.target, instance.target)
        assert np.array_equal(grown.target_dots, grown.points.T @ grown.target)
        self._assert_rows_are_products(grown, grown.points, range(n + 1))
        if computed:
            assert grown.gram_column(n).tobytes() == products.tobytes()
            for j in range(n):
                assert np.array_equal(grown.gram_column(j)[:n], instance.gram_column(j))

    @pytest.mark.parametrize("dim", [3, 64])
    def test_wide_point_set_stores_visited_columns(self, dim):
        # 20,000 points: one column per visited pivot, far below the
        # 3.2 GB of a full Gram matrix.
        rng = np.random.default_rng([65, dim])
        n = 20_000
        points = rng.normal(size=(dim, n))
        points /= np.linalg.norm(points, axis=0)
        direction = rng.normal(size=dim)
        target = (0.99 if dim == 3 else 0.5) * direction / np.linalg.norm(direction)
        instance = HullInstance(points, target)
        config = HullConfig(epsilon=1e-4, init_rule="centroid", record_trace=True)
        tracemalloc.start()
        try:
            outcome = run_hull(instance, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        visited = sorted({record.pivot for record in outcome.trace})
        assert len(visited) >= 20
        assert peak <= (4 * len(visited) + 2 * dim + 10) * n * 8
        assert peak < n * n * 8 / 20
        # With the points zeroed, a stored column keeps its products and
        # a column computed now is zero.
        original = instance.points.copy()
        instance.points[:] = 0.0
        self._assert_rows_are_products(instance, original, visited)
        unvisited = np.setdiff1d(np.arange(n), visited)[:: n // 10]
        for j in unvisited:
            assert not instance.gram_column(j).any()


@pytest.mark.parametrize("config_type", [HullConfig, SolveConfig])
@pytest.mark.parametrize(
    "settings, message",
    [
        ({"max_iterations": 0}, "max_iterations must be at least 1"),
        ({"init_rule": "farthest"}, "unknown init rule 'farthest'"),
        ({"init_rule": "given"}, "init_rule 'given' requires init_coeffs"),
    ],
)
def test_configs_share_their_run_checks(config_type, settings, message):
    with pytest.raises(ValueError, match=message):
        config_type(**settings)


class TestRunHull:
    def test_example1_one_step_exact(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        config = HullConfig(epsilon=1e-12, init_rule="centroid")
        outcome = run_hull(instance, config)
        assert outcome.status == IN_HULL_APPROX
        assert outcome.iterations == 1
        assert outcome.iterate.gap <= 1e-12

    def test_target_on_vertex_zero_iterations(self):
        points = np.array([[1.0, 5.0, 2.0], [2.0, 1.0, 7.0]])
        instance = HullInstance(points, points[:, 0].copy())
        outcome = run_hull(instance, HullConfig(epsilon=0.5))
        assert outcome.status == IN_HULL_APPROX
        assert outcome.iterations == 0
        assert outcome.iterate.gap == 0.0

    def test_far_point_witness_brackets_distance(self):
        corners = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        target = np.array([10.0, 10.0])
        outcome = run_hull(HullInstance(corners, target), HullConfig(epsilon=0.01))
        assert outcome.status == NOT_IN_HULL
        exact = 9.0 * np.sqrt(2.0)
        low, high = outcome.witness.distance_bracket
        assert low <= exact <= high * (1 + 1e-12)

    def test_cap_exceeded_reports_progress(self):
        rng = np.random.default_rng(11)
        points, target = membership_instance(rng, 5)
        config = HullConfig(epsilon=1e-6, max_iterations=2)
        outcome = run_hull(HullInstance(points, target), config)
        assert outcome.status == CAP_EXCEEDED
        assert outcome.iterations == 2
        assert outcome.initial_gap_delta0 >= outcome.iterate.gap

    def test_trace_records_steps(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        config = HullConfig(epsilon=1e-12, init_rule="centroid", record_trace=True)
        outcome = run_hull(instance, config)
        assert len(outcome.trace) == outcome.iterations
        assert outcome.trace[0].pivot == 1
        # Step 0.25 from the centroid toward a2 lands on the origin.
        assert outcome.trace[0].value == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(outcome.iterate.coeffs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_approximation_certificate_vertex(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            points, target = membership_instance(rng, 5)
            instance = HullInstance(points, target)
            outcome = run_hull(instance, HullConfig(epsilon=0.1))
            assert outcome.status == IN_HULL_APPROX
            j = outcome.certifying_vertex
            assert outcome.iterate.gap <= 0.1 * instance.distance_to_point(j)

    def test_overflowing_target_rejected(self):
        # ||p||^2 overflows at this scale; the run reported in_hull_approx
        # at gap inf.
        rng = np.random.default_rng(37)
        points = np.ldexp(rng.normal(size=(3, 6)), 509)
        target = np.ldexp(np.full(3, 10.0), 509)
        with pytest.raises(ValueError, match="target too large"):
            run_hull(HullInstance(points, target), HullConfig(epsilon=0.01))

    def test_target_within_rounding_of_a_point(self):
        # The target misses v_5 by one rounding, so the pivot v_5 is the
        # iterate itself; the point farthest from the target certifies.
        points = np.random.default_rng(19).normal(size=(3, 8))
        centroid = points.mean(axis=1)
        target = centroid + 1.0 * (points[:, 5] - centroid)
        instance = HullInstance(points, target)
        outcome = run_hull(instance, HullConfig(epsilon=0.01))
        assert (outcome.status, outcome.iterations) == (IN_HULL_APPROX, 0)
        assert outcome.iterate.gap > 0.0
        assert outcome.iterate.coeffs[5] == 1.0
        distances = [instance.distance_to_point(i) for i in range(8)]
        assert outcome.certifying_vertex == int(np.argmax(distances)) == 6
        assert outcome.iterate.gap <= 0.01 * distances[6]

    def test_degenerate_pivot_no_point_certifies(self):
        # Every point is the iterate and as far from the target as it is.
        instance = HullInstance(np.ones((2, 3)), np.array([1.0, 1.0 + 2.0**-52]))
        with pytest.raises(DegeneratePivot):
            run_hull(instance, HullConfig(epsilon=0.01))

    def test_radius_matches_max_distance(self):
        rng = np.random.default_rng(31)
        points = rng.normal(size=(3, 6))
        target = rng.normal(size=3)
        instance = HullInstance(points, target)
        expected = max(
            np.linalg.norm(target - points[:, i]) for i in range(6)
        )
        assert radius_R(instance) == pytest.approx(expected, rel=1e-15)


class TestInvariants:
    def test_pivot_witness_dichotomy(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(2, 8)
            m = rng.integers(1, 6)
            points = rng.normal(size=(m, n))
            target = rng.normal(size=m)
            instance = HullInstance(points, target)
            iterate = make_iterate(instance, rng.dirichlet(np.ones(n)))
            has_pivot = find_pivot(instance, iterate) is not None
            is_witness = check_witness(instance, iterate) is not None
            assert has_pivot != is_witness

    def test_gap_monotone_and_coeffs_feasible(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            points, target = membership_instance(rng, 5)
            instance = HullInstance(points, target)
            iterate = make_iterate(instance, rng.dirichlet(np.ones(5)))
            for _ in range(200):
                j = find_pivot(instance, iterate)
                if j is None:
                    break
                margins = pivot_margins(instance, iterate)
                alpha = step_size(instance.target, iterate, instance.points[:, j])
                stepped = apply_step(instance, iterate, j, alpha)
                assert stepped.gap <= iterate.gap * (1 + 1e-12) + 1e-15
                if margins[j] > 1e-12 and alpha > 0:
                    assert stepped.gap <= iterate.gap + 1e-15
                assert abs(stepped.coeffs.sum() - 1.0) <= 1e-12
                assert (stepped.coeffs >= 0.0).all()
                recomputed = instance.points @ stepped.coeffs
                assert np.allclose(recomputed, stepped.point, atol=1e-10)
                iterate = stepped

    def test_margin_test_matches_distance_test(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = rng.integers(2, 7)
            m = rng.integers(2, 5)
            points = rng.normal(size=(m, n)) * rng.uniform(0.5, 3.0)
            target = rng.normal(size=m)
            instance = HullInstance(points, target)
            iterate = make_iterate(instance, rng.dirichlet(np.ones(n)))
            margins = pivot_margins(instance, iterate)
            scale = max(1.0, np.abs(margins).max())
            for i in range(n):
                if abs(margins[i]) < 1e-9 * scale:
                    continue  # below the resolution of the squared form
                dist_iterate = np.linalg.norm(iterate.point - points[:, i])
                dist_target = np.linalg.norm(target - points[:, i])
                assert (margins[i] >= 0.0) == (dist_iterate >= dist_target)

    def test_membership_iteration_bound(self):
        rng = np.random.default_rng(19)
        epsilon = 0.2
        cap = iteration_cap_from_bound(epsilon)
        for dim in (2, 5, 10):
            for _ in range(10):
                points, target = membership_instance(rng, dim)
                outcome = run_hull(
                    HullInstance(points, target),
                    HullConfig(epsilon=epsilon, max_iterations=cap),
                )
                assert outcome.status == IN_HULL_APPROX
                assert outcome.iterations <= cap

    def test_no_false_witness_on_inside_points(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            points, target = inside_instance_2d(rng)
            inside, _ = hull_membership_2d(points, target)
            assert inside
            outcome = run_hull(
                HullInstance(points, target),
                HullConfig(epsilon=0.05, max_iterations=3000),
            )
            assert outcome.status != NOT_IN_HULL


class TestIterationCap:
    def test_values(self):
        assert iteration_cap_from_bound(0.5) == 192
        assert iteration_cap_from_bound(0.1) == 4800
        assert iteration_cap_from_bound(1.0 / np.sqrt(48.0)) == 2304

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            iteration_cap_from_bound(0.0)
        with pytest.raises(ValueError):
            iteration_cap_from_bound(1.0)

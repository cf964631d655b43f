"""Triangle Algorithm core: worked examples, invariants, properties."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    centroid_coeffs,
    check_witness,
    example1_system,
    given_arrays,
    hull_membership_2d,
    inside_instance_2d,
    invertible_system,
    iterate_point,
    membership_instance,
    nonneg_system,
    outside_instance_2d,
    radius_R,
    reference_find_pivot,
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
    run_hull,
    solve_incremental,
    solve_nonneg,
)
from hullsolve import hull, incremental, two_phase
from hullsolve.hull import (
    TIE,
    Iterate,
    apply_step,
    exact_iterate,
    find_pivot,
    initial_iterate,
    make_iterate,
    pivot_margins,
    step_size,
)
from hullsolve.incremental import _shift_product, move_shift, shifted_instance
from hullsolve.system import CONVERGED, place_shift


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
        assert np.allclose(iterate_point(instance, iterate), [0.0, 1.5])
        assert find_pivot(instance, iterate) is None

    def test_centroid_picks_second_column(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        iterate = make_iterate(instance, np.full(3, 1.0 / 3.0))
        assert np.allclose(iterate_point(instance, iterate), [2.0 / 3.0, -1.0 / 3.0])
        assert find_pivot(instance, iterate) == 1

    def test_zero_gap_every_index_is_pivot(self):
        points = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
        target = points @ np.array([0.25, 0.25, 0.5])
        instance = HullInstance(points, target)
        iterate = make_iterate(instance, [0.25, 0.25, 0.5])
        margins = pivot_margins(iterate)
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
        assert np.allclose(iterate_point(instance, exact), target)
        assert check_witness(instance, exact) is None

    def test_witness_separates_every_point(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            points, target, _ = outside_instance_2d(rng)
            instance = HullInstance(points, target)
            outcome = run_hull(instance, HullConfig(epsilon=0.01))
            assert outcome.status == NOT_IN_HULL
            witness = outcome.witness
            p_prime = iterate_point(instance, witness.iterate)
            for i in range(points.shape[1]):
                assert np.linalg.norm(p_prime - points[:, i]) < np.linalg.norm(
                    target - points[:, i]
                )


class TestStepSize:
    def test_example1_quarter(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        iterate = make_iterate(instance, np.full(3, 1.0 / 3.0))
        alpha = step_size(instance, iterate, 1)
        assert alpha == pytest.approx(0.25, abs=1e-15)

    def test_example2_two_thirteenths(self):
        points = hull_points_example2().copy()
        points[:, 2] = [-2.0, -1.0]  # -b(2): the iterate at shift 2 in the worked example
        instance = HullInstance(points, np.zeros(2))
        iterate = make_iterate(instance, [0.25, 0.5, 0.25])
        assert np.array_equal(iterate_point(instance, iterate), [-0.5, 0.5])
        alpha = step_size(instance, iterate, 0)
        assert alpha == pytest.approx(2.0 / 13.0, abs=1e-16)

    def test_collinear_lands_on_target(self):
        points = np.array([[0.0, 2.0], [0.0, 0.0]])
        instance = HullInstance(points, np.array([1.0, 0.0]))
        iterate = make_iterate(instance, [1.0, 0.0])
        alpha = step_size(instance, iterate, 1)
        assert alpha == 0.5
        stepped = apply_step(instance, iterate, 1, alpha)
        assert np.allclose(iterate_point(instance, stepped), instance.target)
        assert stepped.gap == 0.0

    def test_degenerate_pivot_raises(self):
        points = np.array([[1.0, 1.0], [1.0, 1.0]])
        instance = HullInstance(points, np.array([0.0, 0.0]))
        iterate = make_iterate(instance, [1.0, 0.0])
        with pytest.raises(DegeneratePivot):
            step_size(instance, iterate, 1)


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
        config = HullConfig(epsilon=1e-3, init_coeffs=centroid_coeffs(points.shape[1]))
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


def _assert_tracks_fresh(instance, iterate, tolerance):
    """The maintained products and squared norm are within tolerance, on
    the scale of the products, of those formed from V c."""
    point = instance.points @ iterate.coeffs
    fresh = instance.points.T @ point
    scale = np.abs(fresh).max() + 1e-30
    assert np.abs(iterate.dot_cache - fresh).max() <= tolerance * scale
    assert abs(iterate.point_sq - point @ point) <= tolerance * scale


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
        assert np.array_equal(iterate_point(instance, stepped), iterate_point(instance, iterate))

    def test_full_step_collapses_to_vertex(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        iterate = make_iterate(instance, [0.2, 0.3, 0.5])
        stepped = apply_step(instance, iterate, 2, 1.0)
        assert np.array_equal(stepped.coeffs, [0.0, 0.0, 1.0])
        assert np.array_equal(iterate_point(instance, stepped), instance.points[:, 2])

    def test_dot_cache_tracks_fresh_products(self):
        # 10^4 steps toward random pivots with step lengths from 1e-6 to 1,
        # so the rounding of the product and squared-norm updates has every
        # chance to pile up.
        rng = np.random.default_rng(3)
        points = rng.normal(size=(6, 12))
        target = points @ rng.dirichlet(np.ones(12))
        instance = HullInstance(points, target)
        iterate = make_iterate(instance, rng.dirichlet(np.ones(12)))
        for step in range(10_000):
            j = find_pivot(instance, iterate) if step < 50 else int(rng.integers(12))
            alpha = 1.0 if step % 997 == 0 else 10.0 ** rng.uniform(-6.0, 0.0)
            iterate = apply_step(instance, iterate, j, alpha)
            _assert_tracks_fresh(instance, iterate, 1e-10)

    def test_dot_cache_tracks_fresh_products_across_shifts(self):
        # The shifted hull moved between shifts in place, against one built
        # apart from the system at each shift: the same points and A^T A
        # bit for bit, -b(t)'s priced products within rounding of the
        # formed ones, and products that track.
        rng = np.random.default_rng(5)
        n = 6
        a = rng.normal(size=(n, n))
        system = LinearSystem(a, a @ rng.normal(size=n))
        a = np.ascontiguousarray(system.a)  # the stored A
        gram = a.T @ a
        t = 0.0
        instance = shifted_instance(system, t)
        iterate = make_iterate(instance, rng.dirichlet(np.ones(n + 1)))
        for step in range(10_000):
            if step % 3 == 0:
                new_t = min(10.0, max(0.0, t + rng.uniform(-1.0, 1.5)))
                u_point = _shift_product(system, iterate.coeffs, t)
                iterate = move_shift(system, iterate, t, new_t, u_point)
                t = new_t
                built = HullInstance(np.column_stack([a, -(system.b + t * system.u)]), np.zeros(n))
                assert instance.points.tobytes() == built.points.tobytes()
                magnitude = system.b_sq + t * t * system.u_sq
                tol = 8 * np.finfo(float).eps * magnitude
                assert np.abs(instance.sq_norms - built.sq_norms).max() <= tol
                for j in range(n):
                    assert instance.gram_column(j)[:n].tobytes() == gram[j].tobytes()
                assert np.abs(instance.gram_column(n) - built.gram_column(n)).max() <= tol
            else:
                j = int(rng.integers(n + 1))
                alpha = 1.0 if step % 997 == 0 else 10.0 ** rng.uniform(-6.0, 0.0)
                iterate = apply_step(instance, iterate, j, alpha)
            _assert_tracks_fresh(instance, iterate, 1e-10)


class TestPairwiseStep:
    """apply_step with donors: the better of the Triangle step and a
    transfer of weight to the pivot from the donor of least margin."""

    def test_clamped_transfer_empties_the_point(self):
        # From p' = (0, 1) toward p = (0, -1): the Triangle step jumps to
        # v_0 and lowers ||p - p'||^2 / 2 by 1. Moving weight from v_2
        # (margin -20) to v_0 (margin 0) has gamma* = 20 / 101, clamped at
        # v_2's 0.1, and lowers it by 0.1 * 20 - 0.01 * 101 / 2 = 1.495.
        points = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 10.0]])
        instance = HullInstance(points, np.array([0.0, -1.0]))
        iterate = make_iterate(instance, [0.45, 0.45, 0.1])
        alpha = step_size(instance, iterate, 0)
        assert alpha == 1.0
        assert np.array_equal(apply_step(instance, iterate, 0, alpha).coeffs, [1.0, 0.0, 0.0])
        stepped = apply_step(instance, iterate, 0, alpha, donors=instance.n_points)
        assert stepped.coeffs[2] == 0.0
        assert stepped.coeffs[1] == iterate.coeffs[1]
        assert stepped.coeffs[0] == pytest.approx(0.55, abs=1e-15)
        point = iterate_point(instance, stepped)
        assert np.allclose(point, [0.1, 0.0], rtol=0.0, atol=1e-15)
        fresh = instance.points.T @ (point - instance.target)
        assert np.allclose(stepped.dot_cache, fresh, rtol=0.0, atol=1e-14)
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
            alpha = step_size(instance, iterate, j)
            triangle = apply_step(instance, iterate, j, alpha)
            stepped = apply_step(instance, iterate, j, alpha, donors=instance.n_points)
            if np.array_equal(stepped.coeffs, triangle.coeffs):
                assert stepped.point_sq == triangle.point_sq
                continue
            transfers += 1
            changed = np.flatnonzero(stepped.coeffs != iterate.coeffs)
            assert j in changed and len(changed) == 2
            assert stepped.coeffs[j] > iterate.coeffs[j]
            assert stepped.gap <= triangle.gap * (1.0 + 1e-12)
        assert 50 <= transfers <= 450

    def test_donors_limit_the_points_that_give_weight(self):
        # States of a shifted hull where -b(t), the last point, is the
        # active point of least margin. With every point a donor, as
        # solve_nonneg steps, a transfer draws from -b(t); with the n
        # columns alone, as solve_incremental steps, it draws from a
        # column, and -b(t) keeps its weight.
        rng = np.random.default_rng(74)
        system, _ = invertible_system(rng, 8)
        instance = shifted_instance(system, 0.0)
        n = system.n
        from_rhs = from_column = 0
        for _ in range(400):
            coeffs = rng.dirichlet(np.ones(n + 1)) * (rng.random(n + 1) < 0.6)
            coeffs[n] = rng.uniform(0.05, 0.3)
            iterate = make_iterate(instance, coeffs)
            active = np.where(iterate.coeffs > 0.0, iterate.dot_cache, -np.inf)
            j = find_pivot(instance, iterate)
            if j is None or int(active.argmax()) != n:
                continue
            alpha = step_size(instance, iterate, j)
            triangle = apply_step(instance, iterate, j, alpha)
            for donors in (n + 1, n):
                stepped = apply_step(instance, iterate, j, alpha, donors=donors)
                if np.array_equal(stepped.coeffs, triangle.coeffs):
                    continue
                changed = set(np.flatnonzero(stepped.coeffs != iterate.coeffs))
                if donors == n + 1:
                    assert changed == {j, n}
                    from_rhs += 1
                else:
                    assert len(changed) == 2 and j in changed
                    assert stepped.coeffs[n] == iterate.coeffs[n]
                    from_column += 1
        assert from_rhs >= 50 and from_column >= 30

    def test_tie_after_a_transfer_goes_to_the_lower_index(self):
        # An unclamped transfer leaves its two points' margins equal in
        # exact arithmetic. Where they are the largest, the maintained
        # margins and those recomputed from the points may rank them
        # apart by rounding; find_pivot and reference_find_pivot both
        # take the lower index.
        rng = np.random.default_rng(79)
        decided = 0
        for _ in range(100):
            points = rng.normal(size=(5, 10))
            target = 0.5 * (points[:, 0] + points[:, 1]) + 0.05 * rng.normal(size=5)
            instance = HullInstance(points, target)
            iterate = make_iterate(instance, rng.dirichlet(np.ones(10)))
            for _ in range(30):
                j = find_pivot(instance, iterate)
                if j is None:
                    break
                alpha = step_size(instance, iterate, j)
                iterate = apply_step(instance, iterate, j, alpha, donors=10)
                if iterate.tie is None:
                    continue
                low, high = iterate.tie
                margins = pivot_margins(iterate)
                top = int(margins.argmax())
                if top not in iterate.tie or margins[top] < 0.0:
                    continue
                shipped = find_pivot(instance, copy.deepcopy(iterate))
                assert shipped == reference_find_pivot(instance, copy.deepcopy(iterate))
                if top == high and shipped == low:
                    decided += 1
        assert decided >= 20

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
        iterate = initial_iterate(instance, centroid_coeffs(instance.n_points))
        floor = 1e-9 * iterate.gap
        for _ in range(3000):
            j = find_pivot(instance, iterate)
            if j is None or iterate.gap <= floor:
                break
            alpha = step_size(instance, iterate, j)
            stepped = apply_step(instance, iterate, j, alpha, donors=instance.n_points)
            assert (stepped.coeffs >= 0.0).all()
            assert abs(stepped.coeffs.sum() - 1.0) <= 1e-12
            point = instance.points @ stepped.coeffs
            assert np.abs(stepped.dot_cache - instance.points.T @ point).max() <= 1e-12 * scale
            assert abs(stepped.point_sq - point @ point) <= 1e-12 * scale
            assert stepped.gap <= iterate.gap
            iterate = stepped
        if kind == "phase1":
            assert j is None and check_witness(instance, iterate) is not None
        elif kind == "membership":
            assert iterate.gap <= floor


class TestKernelLeavesItsInput:
    """apply_step and move_shift build new iterates: the one given keeps its
    coefficient, product and donor floor bytes, whichever path the step
    takes, and no coefficients or products returned share memory with
    them. A floor is shared until it changes, and then copied."""

    POINTS = np.random.default_rng(83).normal(size=(3, 4))
    COEFFS = np.array([0.3, 0.2, 0.4, 0.1])

    @classmethod
    def _crafted(cls, gamma, age=0):
        """An iterate over four points whose pairwise step from k = 2 to
        j = 0 has the unclamped length gamma: every product -1 but d_j = 0
        and d_k = gamma ||v_j - v_k||^2, the largest, and ||p'||^2 = 100,
        which no step here brings near cancellation."""
        instance = HullInstance(cls.POINTS, np.zeros(3))
        gram = cls.POINTS.T @ cls.POINTS
        dots = np.full(4, -1.0)
        dots[0] = 0.0
        dots[2] = gamma * (gram[0, 0] - 2.0 * gram[0, 2] + gram[2, 2])
        return instance, Iterate(cls.COEFFS.copy(), dots, 100.0, 100.0, age)

    @staticmethod
    def _bytes(iterate):
        return iterate.coeffs.tobytes(), iterate.dot_cache.tobytes(), iterate.floor.tobytes()

    @classmethod
    def _assert_untouched(cls, iterate, before, stepped):
        assert cls._bytes(iterate) == before
        for returned in (stepped.coeffs, stepped.dot_cache):
            for given in (iterate.coeffs, iterate.dot_cache, iterate.floor):
                assert not np.shares_memory(returned, given)
        if stepped.floor is not None and stepped.floor is not iterate.floor:
            assert not np.shares_memory(stepped.floor, iterate.floor)

    @pytest.mark.parametrize(
        "path", ["triangle", "unclamped", "clamped", "dust", "refresh", "refresh-pairwise"]
    )
    def test_apply_step_on_every_path(self, path):
        c_k = self.COEFFS[2]
        gamma = {"clamped": 2.0 * c_k, "dust": c_k - 5e-16}.get(path, 0.5 * c_k)
        instance, iterate = self._crafted(gamma, age=3 if path.startswith("refresh") else 0)
        # At alpha = 0 the Triangle step lowers nothing, so a pairwise
        # step is taken whenever donors are given.
        donors, alpha = (0, 0.25) if path in ("triangle", "refresh") else (4, 0.0)
        # A floor carried from an earlier step with every point a donor.
        iterate.floor, iterate.donors, iterate.least = np.zeros(4), 4, 0.1
        before = self._bytes(iterate)
        stepped = apply_step(instance, iterate, 0, alpha, donors)
        self._assert_untouched(iterate, before, stepped)
        again = apply_step(instance, iterate, 0, alpha, donors)
        assert again.coeffs.tobytes() == stepped.coeffs.tobytes()
        assert again.dot_cache.tobytes() == stepped.dot_cache.tobytes()
        if path in ("triangle", "refresh"):
            assert np.array_equal(stepped.coeffs, 0.75 * self.COEFFS + [0.25, 0.0, 0.0, 0.0])
        elif path == "unclamped":
            assert stepped.tie == (0, 2) and stepped.coeffs[2] > 0.0
        elif path == "clamped":
            assert stepped.tie is None and stepped.coeffs[2] == 0.0
        else:  # the dust clamp, or the refresh after a pairwise step
            assert stepped.tie == (0, 2)
            assert (stepped.coeffs[2] == 0.0) == (path == "dust")
        assert stepped.age == (0 if path.startswith("refresh") else 1)

    def test_move_shift_and_place_shift(self):
        rng = np.random.default_rng(85)
        system, _ = invertible_system(rng, 6)
        n = system.n
        instance = shifted_instance(system, 0.0)
        kept = [(v.tobytes(), v.shape) for v in (system.at_u, system.at_b)]
        iterate = make_iterate(instance, rng.dirichlet(np.ones(n + 1)))
        iterate = apply_step(instance, iterate, 0, 0.5, donors=n)
        assert iterate.floor is not None
        t0 = 0.0
        for t in (0.5, 2.0, 1.25, 7.0):
            before = self._bytes(iterate)
            moved = move_shift(system, iterate, t0, t, _shift_product(system, iterate.coeffs, t0))
            # A move keeps the coefficients and the donor floor, the same
            # arrays, which no kernel function writes into; the products
            # are new.
            assert moved.coeffs is iterate.coeffs
            assert moved.floor is iterate.floor
            assert (moved.donors, moved.least) == (iterate.donors, iterate.least)
            assert self._bytes(iterate) == before
            assert not np.shares_memory(moved.dot_cache, iterate.dot_cache)
            assert not np.shares_memory(moved.dot_cache, iterate.coeffs)
            iterate, t0 = moved, t
        assert [(v.tobytes(), v.shape) for v in (system.at_u, system.at_b)] == kept
        assert kept[0][1] == (n,)
        gram = system.gram.base
        assert gram[:, -1].tobytes() == gram[-1].tobytes()
        assert instance.gram_column(n).tobytes() == _priced_border(system, 7.0).tobytes()


def _reference_floor(coeffs, donors):
    """The donor floor rebuilt from the weights: 0.0 where one of the first
    donors points holds weight, -inf elsewhere."""
    floor = np.full(coeffs.size, -np.inf)
    floor[:donors] = np.where(coeffs[:donors] != 0, 0.0, -np.inf)
    return floor


def _reference_donor(iterate, donors):
    """The pairwise step's k from the products masked by the weights, as
    the kernel chose it before the floor was carried, or None."""
    active = np.where(iterate.coeffs != 0, iterate.dot_cache, -np.inf)
    active[donors:] = -np.inf
    top = active.max()
    if top == -np.inf:
        return None
    return int(np.argmax(active >= top - TIE * (abs(top) + iterate.point_sq)))


def _assert_floor(iterate, donors):
    """A carried floor equals the one rebuilt from the weights, its least
    bounds every positive donor weight from below, and the donor its
    search picks is the masked search's."""
    if iterate.floor is None:
        return False
    assert iterate.donors == donors
    assert iterate.floor.tobytes() == _reference_floor(iterate.coeffs, donors).tobytes()
    held = iterate.coeffs[:donors][iterate.coeffs[:donors] != 0]
    assert 0.0 < iterate.least <= held.min(initial=math.inf)
    active = iterate.dot_cache + iterate.floor
    top = active.max()
    k = None if top == -np.inf else int(
        np.argmax(active >= top - TIE * (abs(top) + iterate.point_sq))
    )
    assert k == _reference_donor(iterate, donors)
    return True


class TestCarriedDonorFloor:
    """apply_step carries the donor floor from step to step and forms it
    again from the weights only where a weight may have vanished: every
    floor it carries is the rebuilt one, and every step is the step that
    a rebuilt floor gives, byte for byte."""

    POINTS = np.random.default_rng(89).normal(size=(3, 5))

    @classmethod
    def _crafted(cls, coeffs, dots):
        """An iterate over five points at these weights and products, with
        ||p'||^2 = 100, and the floor a step with every point a donor
        carries: the products need not be those of the points."""
        instance = HullInstance(cls.POINTS, np.zeros(3))
        iterate = Iterate(np.array(coeffs, dtype=float), np.array(dots, dtype=float), 100.0,
                          100.0, 0)
        iterate.floor = _reference_floor(iterate.coeffs, 5)
        held = iterate.coeffs[iterate.coeffs != 0]
        iterate.donors, iterate.least = 5, float(held.min())
        return instance, iterate

    @staticmethod
    def _step(instance, iterate, j, alpha, donors):
        """The step, checked against the step from a floor rebuilt from
        the weights: the same bytes, a carried floor that is the rebuilt
        one, and the given floor as it was."""
        given = None if iterate.floor is None else iterate.floor.tobytes()
        stepped = apply_step(instance, iterate, j, alpha, donors)
        assert given is None or iterate.floor.tobytes() == given
        rebuilt = copy.copy(iterate)
        rebuilt.floor = None
        again = apply_step(instance, rebuilt, j, alpha, donors)
        for field in ("coeffs", "dot_cache"):
            assert getattr(stepped, field).tobytes() == getattr(again, field).tobytes()
        assert (stepped.point_sq, stepped.tie) == (again.point_sq, again.tie)
        _assert_floor(stepped, donors)
        return stepped

    def _pairwise(self, gamma, c_j=0.0):
        """A pairwise step from k = 2 to j = 0 of unclamped length gamma:
        every product -1 but d_j = 0 and the largest, d_k = gamma
        ||v_j - v_k||^2, at alpha = 0, where the Triangle step lowers
        nothing."""
        gram = self.POINTS.T @ self.POINTS
        d_k = gamma * (gram[0, 0] - 2.0 * gram[0, 2] + gram[2, 2])
        coeffs = [c_j, 0.3, 0.4, 0.3 - c_j, 0.0]
        instance, iterate = self._crafted(coeffs, [0.0, -1.0, d_k, -1.0, -1.0])
        return self._step(instance, iterate, 0, 0.0, 5)

    def test_alpha_one_forms_it_again(self):
        instance, iterate = self._crafted([0.5, 0.5, 0, 0, 0], [-1.0, -2.0, -3, -3, -3])
        # j = 0 is the donor of least margin itself: no pairwise step.
        stepped = self._step(instance, iterate, 0, 1.0, 5)
        assert stepped.floor is None and stepped.coeffs.tolist() == [1, 0, 0, 0, 0]

    def test_clamped_transfer_takes_k_out_and_puts_j_in(self):
        stepped = self._pairwise(0.8)
        assert stepped.coeffs[2] == 0.0 and stepped.coeffs[0] == 0.4
        assert stepped.floor.tolist() == [0.0, 0.0, -np.inf, 0.0, -np.inf]
        assert stepped.least == 0.3

    def test_unclamped_transfer_keeps_k(self):
        stepped = self._pairwise(0.25, c_j=0.1)
        assert stepped.tie == (0, 2)
        assert stepped.floor.tolist() == [0.0, 0.0, 0.0, 0.0, -np.inf]
        # k keeps 0.4 - 0.25, above the least weight, 0.1, which stays the
        # bound: j's weight only grew.
        assert stepped.least == 0.1

    def test_dust_clamp_forms_it_again(self):
        stepped = self._pairwise(0.4 - 5e-16)
        assert stepped.coeffs[2] == 0.0 and stepped.floor is None

    def test_weight_that_underflows_forms_it_again(self):
        # keep = 2^-10 takes a weight of 2^-1070 below the least subnormal
        # to 0: the floor must lose it. A weight of 2^-1060 stays 2^-1070.
        for tiny, carried in ((2.0**-1070, False), (2.0**-1060, True)):
            instance, iterate = self._crafted([1.0, tiny, 0, 0, 0], [-1.0, -2.0, -3, -3, -3])
            stepped = self._step(instance, iterate, 0, 1.0 - 2.0**-10, 5)
            assert (stepped.coeffs[1] > 0.0) == carried
            assert (stepped.floor is not None) == carried

    @pytest.mark.parametrize("path", ["triangle", "pairwise"])
    def test_pivot_past_the_donors_stays_out(self, path):
        # Point 4 plays -b(t): with donors = 4 it gains weight and never
        # gives any, so the floor keeps -inf there.
        dots = [-1.0, -2.0, 5.0, -3.0, 0.0] if path == "pairwise" else [-1.0, -2, -3, -3, 0.0]
        instance, iterate = self._crafted([0.5, 0.25, 0.25, 0, 0], dots)
        iterate.floor[4] = -np.inf  # carried for donors = 4 (point 4 holds no weight)
        iterate.donors = 4
        alpha = 0.0 if path == "pairwise" else 0.5
        stepped = self._step(instance, iterate, 4, alpha, 4)
        assert stepped.coeffs[4] > 0.0 and stepped.floor[4] == -np.inf
        assert (stepped.coeffs[0] == 0.5) == (path == "pairwise")

    def test_donor_counts(self):
        # One iterate over n + 1 = 5 points, its floor carried for n
        # donors, stepped to the new point 2 with donors 0, n and n + 1:
        # 0 gives no floor, n keeps the last point out although it holds
        # weight, and n + 1 forms the floor again and lets it in.
        instance, iterate = self._crafted([0.5, 0.25, 0.0, 0, 0.25], [-1.0, -2, -3, -3, -4])
        iterate.floor[4] = -np.inf
        iterate.donors = 4
        floors = [self._step(instance, iterate, 2, 0.5, donors).floor for donors in (0, 4, 5)]
        assert floors[0] is None
        assert floors[1].tolist() == [0, 0, 0, -np.inf, -np.inf]
        assert floors[2].tolist() == [0, 0, 0, -np.inf, 0]

    @pytest.mark.parametrize("kind", ["run_hull", "nonneg", "incremental"])
    def test_every_step_of_a_solve(self, kind, monkeypatch):
        # Every step of seeded solves on small systems: the floor each one
        # is given and the one it returns are the rebuilt ones, the donor
        # they pick is the masked search's, and the step is the one a
        # rebuilt floor gives.
        counts = {"steps": 0, "carried": 0}

        def checked(instance, iterate, j, alpha, donors=0):
            counts["steps"] += 1
            if iterate.floor is not None and iterate.donors == donors:
                counts["carried"] += _assert_floor(iterate, donors)
            return self._step(instance, iterate, j, alpha, donors)

        for module in (hull, two_phase, incremental):
            monkeypatch.setattr(module, "apply_step", checked)
        for seed in range(4):
            rng = np.random.default_rng([91, seed])
            if kind == "run_hull":
                points = rng.normal(size=(6, 14))
                run_hull(HullInstance(points, 0.3 * points.mean(axis=1)), HullConfig(epsilon=1e-3))
            elif kind == "nonneg":
                solve_nonneg(nonneg_system(rng, 8)[0], SolveConfig(epsilon0=1e-3))
            else:
                solve_incremental(invertible_system(rng, 8)[0], SolveConfig(epsilon0=1e-3))
        assert counts["carried"] >= 0.5 * counts["steps"] > 0


def test_moves_defer_the_point():
    # place_shift writes -b(t)'s Gram border at every move and its point at
    # the next read of the hull's points: the moves below leave the slot
    # as the first placement wrote it, and the read writes -(t u) - b,
    # byte for byte. The iterate formed then is the one a hull placed
    # fresh at t forms.
    rng = np.random.default_rng(87)
    system, _ = invertible_system(rng, 7)
    fresh = LinearSystem(*given_arrays(system))
    instance = shifted_instance(system, 0.25)
    first = instance.points[:, -1].copy()
    iterate = make_iterate(instance, rng.dirichlet(np.ones(system.n + 1)))
    t0 = 0.25
    for t in (0.5, 3.0, 1.75):
        iterate = move_shift(system, iterate, t0, t, _shift_product(system, iterate.coeffs, t0))
        t0 = t
    assert instance.shift == t0
    assert instance._points[:, -1].tobytes() == first.tobytes()
    assert instance.points[:, -1].tobytes() == (-(t0 * system.u) - system.b).tobytes()
    assert instance.shift is None
    formed = exact_iterate(instance, iterate.coeffs)
    placed = exact_iterate(shifted_instance(fresh, t0), iterate.coeffs)
    assert formed.dot_cache.tobytes() == placed.dot_cache.tobytes()
    assert formed.point_sq == placed.point_sq


def _priced_border(system, t):
    """-b(t)'s products with the columns and itself, priced as place_shift
    documents them: -(A^T b + t A^T u) and the clamped ||b(t)||^2."""
    last = max(0.0, system.b_sq + t * (2.0 * system.u_b + t * system.u_sq))
    return np.append(system.at_u * -t - system.at_b, last)


class TestGramMemo:
    """Gram columns are stored at their first request, and place_shift
    moves the last row and column of a system's hull."""

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

    @pytest.mark.parametrize("visits", [(0, 7, 21), ()], ids=["narrow", "narrow-move-first"])
    def test_moved_row_and_column_are_the_products(self, visits):
        # -b(t)'s priced products become the last row and column bit for
        # bit, and rows served before a move read them too.
        rng = np.random.default_rng(63)
        n = 30
        system = LinearSystem(rng.normal(size=(n, n)), rng.normal(size=n))
        rows = [system.hull.gram_column(j) for j in visits]
        for t in (0.0, 0.5, 2.0):
            place_shift(system, t)
            border = _priced_border(system, t)
            assert system.hull.gram_column(n).tobytes() == border.tobytes()
            assert system.hull.sq_norms[n] == border[n]
            for j, row in zip(visits, rows):
                assert row[n] == border[j]

    def test_given_gram_matrix_is_served_and_moved_in_place(self):
        # A Gram matrix the caller gives is neither copied nor formed
        # again: its rows are the columns served. A system's hull is given
        # the system's bordered A^T A, and place_shift writes -b(t)'s
        # products into that same array.
        rng = np.random.default_rng(73)
        dim, n = 12, 13
        points = rng.normal(size=(dim, n))
        gram = points.T @ points
        instance = HullInstance(points, np.zeros(dim), gram=gram)
        for j in range(n):
            column = instance.gram_column(j)
            assert np.shares_memory(column, gram)
            assert column.tobytes() == gram[j].tobytes()
        system = LinearSystem(points[:, :dim], rng.normal(size=dim))
        instance = shifted_instance(system, 0.5)
        gram = system.gram.base
        for j in range(dim + 1):
            assert np.shares_memory(instance.gram_column(j), gram)
        place_shift(system, 1.5)
        border = _priced_border(system, 1.5)
        assert gram[dim].tobytes() == gram[:, dim].tobytes() == border.tobytes()
        assert instance.sq_norms[dim] == border[dim]
        self._assert_rows_are_products(instance, instance.points, range(dim + 1))

    @pytest.mark.parametrize("computed", [False, True])
    def test_appended_point_borders_the_gram_matrix(self, computed):
        # The columns' Gram matrix A^T A, formed first if no reader has, is
        # the leading block of the hull's, bit for bit, bordered with
        # -b(t)'s priced products.
        rng = np.random.default_rng(73)
        n, t = 12, 0.75
        system = LinearSystem(rng.normal(size=(n, n)), rng.normal(size=n))
        if computed:
            system.gram
        instance = shifted_instance(system, t)
        gram = system.gram.copy()
        border = _priced_border(system, t)
        b_t = system.b + t * system.u
        assert np.array_equal(instance.points, np.column_stack([system.a, -b_t]))
        assert not instance.target.any()
        assert np.array_equal(instance.sq_norms[:n], np.einsum("ij,ij->j", system.a, system.a))
        assert instance.sq_norms[n] == border[n]
        self._assert_rows_are_products(instance, instance.points, range(n + 1))
        assert instance.gram_column(n).tobytes() == border.tobytes()
        for j in range(n):
            assert np.array_equal(instance.gram_column(j)[:n], gram[j])
        assert np.array_equal(system.gram, system.a.T @ system.a)

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
        config = HullConfig(epsilon=1e-4, init_coeffs=centroid_coeffs(n), record_trace=True)
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
    ],
)
def test_configs_share_their_run_checks(config_type, settings, message):
    with pytest.raises(ValueError, match=message):
        config_type(**settings)


def test_given_init_coeffs_start_every_run():
    # The weights (1, 2, 1) / 4 on a1, a2, -b give example 1's solution
    # x = (1, 2), so a run that starts from them stops at once; from the
    # nearest point run_hull, solve_nonneg and solve_incremental take 10, 9
    # and 32 steps.
    coeffs = [0.25, 0.5, 0.25]
    instance = HullInstance(hull_points_example1(), np.zeros(2))
    outcome = run_hull(instance, HullConfig(epsilon=1e-12, init_coeffs=coeffs))
    assert (outcome.status, outcome.iterations, outcome.initial_gap_delta0) == (
        IN_HULL_APPROX, 0, 0.0
    )
    for solve in (solve_nonneg, solve_incremental):
        outcome = solve(example1_system(), SolveConfig(epsilon0=1e-10, init_coeffs=coeffs))
        assert (outcome.status, outcome.iterations) == (CONVERGED, 0)
        assert np.array_equal(outcome.x, [1.0, 2.0])


class TestRunHull:
    def test_example1_one_step_exact(self):
        instance = HullInstance(hull_points_example1(), np.zeros(2))
        config = HullConfig(epsilon=1e-12, init_coeffs=centroid_coeffs(3))
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
        config = HullConfig(epsilon=1e-12, init_coeffs=centroid_coeffs(3), record_trace=True)
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
                margins = pivot_margins(iterate)
                alpha = step_size(instance, iterate, j)
                stepped = apply_step(instance, iterate, j, alpha)
                assert stepped.gap <= iterate.gap * (1 + 1e-12) + 1e-15
                if margins[j] > 1e-12 and alpha > 0:
                    assert stepped.gap <= iterate.gap + 1e-15
                assert abs(stepped.coeffs.sum() - 1.0) <= 1e-12
                assert (stepped.coeffs >= 0.0).all()
                recomputed = instance.points @ stepped.coeffs
                assert np.allclose(recomputed @ recomputed, stepped.point_sq, atol=1e-10)
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
            margins = pivot_margins(iterate)
            scale = max(1.0, np.abs(margins).max())
            for i in range(n):
                if abs(margins[i]) < 1e-9 * scale:
                    continue  # below the resolution of the squared form
                dist_iterate = np.linalg.norm(iterate_point(instance, iterate) - points[:, i])
                dist_target = np.linalg.norm(target - points[:, i])
                assert (margins[i] >= 0.0) == (dist_iterate >= dist_target)

    def test_membership_iteration_bound(self):
        rng = np.random.default_rng(19)
        epsilon = 0.2
        cap = math.ceil(48.0 / epsilon**2)  # the paper's membership bound
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

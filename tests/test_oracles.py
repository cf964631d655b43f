"""Ground-truth oracles: exact solve, 2-d geometry, brute-force distance."""

import itertools

import numpy as np
import pytest

from helpers import example1_system, example2_system, inside_instance_2d
from hullsolve import LinearSystem, SingularMatrixError, oracles
from hullsolve.oracles import (
    convex_hull_2d,
    delta_brute,
    hull_membership_2d,
    linear_system_oracle,
    point_segment_distance,
    solve_exact,
)


class TestSolveExact:
    def test_example1(self):
        x = solve_exact(example1_system())
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)

    def test_example2_and_t_star(self):
        result = linear_system_oracle(example2_system())
        assert np.allclose(result.x_star, [-1.0, -2.0], atol=1e-12)
        assert result.t_star == pytest.approx(2.0, abs=1e-12)

    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=5)
        x = solve_exact(LinearSystem(np.eye(5), b))
        assert np.array_equal(x, b)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_exact(LinearSystem(a, np.array([1.0, 1.0])))

    def test_random_round_trip(self):
        rng = np.random.default_rng(1)
        for n in (3, 7, 15):
            a = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
            x_true = rng.normal(size=n)
            system = LinearSystem(a, a @ x_true)
            assert np.allclose(solve_exact(system), x_true, atol=1e-9)


class TestHull2d:
    def test_point_in_triangle(self):
        tri = np.array([[0.0, 7.0, 4.0], [0.0, 0.0, 3.0]])
        inside, delta = hull_membership_2d(tri, np.array([4.1, 0.8]))
        assert inside and delta == 0.0

    def test_far_corner_distance(self):
        square = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        inside, delta = hull_membership_2d(square, np.array([10.0, 10.0]))
        assert not inside
        assert delta == pytest.approx(9.0 * np.sqrt(2.0), rel=1e-12)

    def test_example2_origin_outside(self):
        points = np.array([[2.0, -1.0, 0.0], [1.0, 1.0, 3.0]])
        inside, delta = hull_membership_2d(points, np.zeros(2))
        assert not inside and delta > 0.0

    def test_segment_hull(self):
        seg = np.array([[1.0, 0.0], [0.0, 3.0]])
        inside, delta = hull_membership_2d(seg, np.zeros(2))
        assert not inside
        assert delta == pytest.approx(3.0 / np.sqrt(10.0), rel=1e-12)
        on_seg, delta_on = hull_membership_2d(seg, np.array([0.5, 1.5]))
        assert on_seg and delta_on == 0.0

    def test_hull_indices_ccw(self):
        pts = np.array(
            [[0.0, 2.0, 2.0, 0.0, 1.0], [0.0, 0.0, 2.0, 2.0, 1.0]]
        )
        hull = convex_hull_2d(pts)
        assert sorted(hull) == [0, 1, 2, 3]

    def test_point_segment_distance(self):
        a, b = np.array([0.0, 0.0]), np.array([2.0, 0.0])
        assert point_segment_distance(np.array([1.0, 1.0]), a, b) == 1.0
        assert point_segment_distance(np.array([-1.0, 0.0]), a, b) == 1.0
        assert point_segment_distance(np.array([3.0, 4.0]), a, b) == pytest.approx(
            np.sqrt(17.0)
        )


class TestDeltaBrute:
    def test_segment_to_origin(self):
        seg = np.array([[1.0, 0.0], [0.0, 3.0]])
        delta = delta_brute(seg, np.zeros(2), grid_k=10_000)
        assert delta == pytest.approx(3.0 / np.sqrt(10.0), abs=1e-3)

    def test_vertex_target(self):
        pts = np.array([[1.0, 4.0, 2.0], [2.0, 0.0, 5.0]])
        assert delta_brute(pts, pts[:, 1].copy(), grid_k=50) <= 1e-9

    def test_containing_triangle(self):
        tri = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        assert delta_brute(tri, np.array([0.5, 0.5]), grid_k=100) <= 1e-6

    def test_agrees_with_geometry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            points, target = inside_instance_2d(rng, n_points=4)
            shifted = target + rng.normal(size=2) * 2.0
            _, exact = hull_membership_2d(points, shifted)
            brute = delta_brute(points, shifted, grid_k=60)
            assert brute == pytest.approx(exact, abs=1e-6 + 1e-6 * exact)

    @pytest.mark.parametrize("n, k", [(1, 0), (1, 3), (2, 0), (2, 4), (3, 2), (4, 5)])
    def test_simplex_grid_rows_in_order(self, n, k):
        expected = sorted(r for r in itertools.product(range(k + 1), repeat=n) if sum(r) == k)
        assert [tuple(row) for row in oracles._simplex_grid(n, k).tolist()] == expected

    def test_simplex_grid_of_many_points(self):
        # At grid_k 1 the size guard admits up to 3,162 points; a grid built
        # by recursion over the points ran out of stack at 1,500.
        grid = oracles._simplex_grid(1500, 1)
        assert np.array_equal(grid, np.eye(1500)[::-1])

    @pytest.mark.parametrize(
        "n_points, grid_k", [(6, 200), (4, 400), (3, 0), (3, -1)]
    )
    def test_refuses_grid_before_building_it(self, monkeypatch, n_points, grid_k):
        # 6 points at grid_k 200 would be C(205, 5) = 2.9e9 rows.
        def never(n, k):
            raise AssertionError("simplex grid built")

        monkeypatch.setattr(oracles, "_simplex_grid", never)
        points = np.random.default_rng(11).normal(size=(3, n_points))
        with pytest.raises(ValueError):
            delta_brute(points, np.zeros(3), grid_k=grid_k)

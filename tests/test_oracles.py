"""Ground-truth oracles: exact solve and minimum-norm point, and the 2-d
geometry of the test helpers that cross-checks them."""

import numpy as np
import pytest

from helpers import (
    convex_hull_2d,
    example1_system,
    example2_system,
    hull_membership_2d,
    inside_instance_2d,
    point_segment_distance,
)
from hullsolve import LinearSystem, SingularMatrixError
from oracles import MIN_NORM_TOL, hull_verdict, min_norm_point, solve_exact


class TestSolveExact:
    def test_example1(self):
        x = solve_exact(example1_system())
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)

    def test_example2_and_t_star(self):
        x = solve_exact(example2_system())
        assert np.allclose(x, [-1.0, -2.0], atol=1e-12)
        assert max(0.0, -float(x.min())) == pytest.approx(2.0, abs=1e-12)

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


def check_min_norm_point(points, target):
    """min_norm_point's answer, after checking that its weights are a
    probability vector reproducing the distance and that, when the target
    counts as outside the hull, they carry the optimality certificate."""
    delta, weights = min_norm_point(points, target)
    assert weights.shape == (points.shape[1],)
    assert (weights >= 0.0).all() and weights.sum() == pytest.approx(1.0, abs=1e-12)
    q = points - target[:, None]
    x = q @ weights
    assert np.linalg.norm(x) == pytest.approx(delta, rel=1e-12, abs=1e-15)
    if not hull_verdict(points, target, delta)[0]:
        # x recomputed from the weights is off by rounding of order
        # eps * radius, which moves each q_i^T x by up to about eps * radius^2.
        radius = np.sqrt(np.einsum("ij,ij->j", q, q).max())
        rounding = 16.0 * np.finfo(float).eps * radius**2
        slack = MIN_NORM_TOL * radius * np.linalg.norm(x) + rounding
        assert (q.T @ x).min() >= x @ x - slack
    return delta


class TestMinNormPoint:
    def test_segment_to_origin(self):
        seg = np.array([[1.0, 0.0], [0.0, 3.0]])
        delta = check_min_norm_point(seg, np.zeros(2))
        assert delta == pytest.approx(3.0 / np.sqrt(10.0), rel=1e-12)
        # The nearer endpoint misses the nearest point (1, 0) by 1e-6, and
        # a stopping slack above 1.1e-11 would accept it.
        seg = np.array([[1.0, 1.0], [1e-6, -1e-5]])
        assert check_min_norm_point(seg, np.zeros(2)) == pytest.approx(1.0, rel=1e-12)
        _, weights = min_norm_point(seg, np.zeros(2))
        assert weights == pytest.approx([10.0 / 11.0, 1.0 / 11.0], abs=1e-4)

    def test_vertex_target(self):
        pts = np.array([[1.0, 4.0, 2.0], [2.0, 0.0, 5.0]])
        assert check_min_norm_point(pts, pts[:, 1].copy()) == 0.0

    def test_containing_triangle(self):
        tri = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        assert check_min_norm_point(tri, np.array([0.5, 0.5])) <= 1e-15

    def test_duplicate_and_collinear_points(self):
        # Three copies of a segment's endpoints and points along it.
        line = np.array([[1.0, 0.0], [0.0, 3.0]]) @ np.array(
            [[1.0, 0.0, 0.5, 0.25, 1.0, 0.0], [0.0, 1.0, 0.5, 0.75, 0.0, 1.0]]
        )
        delta = check_min_norm_point(np.repeat(line, 3, axis=1), np.zeros(2))
        assert delta == pytest.approx(3.0 / np.sqrt(10.0), rel=1e-12)
        inside = check_min_norm_point(np.repeat(line, 3, axis=1), np.array([0.5, 1.5]))
        assert inside <= 1e-15
        # Points c + s u on a 3-d line, s from -2 to 3: the origin's nearest
        # point, at s = -c.u / u.u = 5/6, lies between two of them.
        u, c = np.array([1.0, -1.0, 2.0]), np.array([0.0, 5.0, 0.0])
        collinear = c[:, None] + np.outer(u, np.linspace(-2.0, 3.0, 7))
        delta = check_min_norm_point(collinear, np.zeros(3))
        assert delta == pytest.approx(np.sqrt(25.0 - 25.0 / 6.0), rel=1e-12)

    def test_agrees_with_geometry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            points, target = inside_instance_2d(rng, n_points=4)
            shifted = target + rng.normal(size=2) * 2.0
            inside, exact = hull_membership_2d(points, shifted)
            delta = check_min_norm_point(points, shifted)
            assert hull_verdict(points, shifted, delta)[0] == inside
            if not inside:
                assert delta == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-50, 2.0**-60], ids=["1", "2^-50", "2^-60"])
    def test_verdict_does_not_depend_on_units(self, scale):
        # The unit triangle and two targets, all scaled alike: (1/4, 1/4)
        # is inside and (2, 2) lies 3 / sqrt(2) triangle sizes outside.
        tri = scale * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for target, expected in (([0.25, 0.25], 0.0), ([2.0, 2.0], 1.5 * np.sqrt(2.0))):
            target = scale * np.array(target)
            delta = check_min_norm_point(tri, target)
            inside, delta = hull_verdict(tri, target, delta)
            assert inside == (expected == 0.0)
            assert delta == pytest.approx(expected * scale, rel=1e-12)

    def test_verdict_does_not_widen_with_an_offset(self):
        # The unit triangle offset by up to 1e6: a target 1e-8 beyond the
        # hypotenuse along (1, 1) lies 1.414e-8 outside, far above the
        # 2e-10 that storing and translating by 1e6 rounds, and the
        # centroid is inside at every offset.
        tri = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for offset in (0.0, 1e3, 1e6):
            points = tri + offset
            beyond = np.full(2, offset + 0.5 + 1e-8)
            inside, delta = hull_verdict(points, beyond, check_min_norm_point(points, beyond))
            assert not inside
            assert delta == pytest.approx(np.sqrt(2.0) * 1e-8, rel=1e-2)
            centroid = np.full(2, offset + 1.0 / 3.0)
            assert hull_verdict(points, centroid, check_min_norm_point(points, centroid))[0]

    def test_thin_simplices(self):
        # A triangle and a tetrahedron 1e-6 thick along the last axis. The
        # apex is the nearest point to a target 5e-7 up the axis, which is
        # inside; 1e-7 below the base and 5e-7 above the apex are outside.
        tri = np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 1e-6]])
        tet = np.array([[-1.0, 1.0, 0.0, 0.0], [-1.0, -1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1e-6]])
        for points in (tri, tet):
            for height, expected in ((5e-7, 0.0), (-1e-7, 1e-7), (1.5e-6, 5e-7)):
                target = np.zeros(len(points))
                target[-1] = height
                delta = check_min_norm_point(points, target)
                inside, delta = hull_verdict(points, target, delta)
                assert inside == (expected == 0.0)
                assert delta == pytest.approx(expected, rel=1e-9)
        for target in ([0.0, 5e-7], [0.3, 2e-7], [0.0, -1e-7]):
            target = np.array(target)
            delta = check_min_norm_point(tri, target)
            assert hull_verdict(tri, target, delta) == hull_membership_2d(tri, target)

    def test_points_in_3d(self):
        # The hull's nearest point to the origin is the centroid of the
        # three unit vectors, at distance 1/sqrt(3).
        points = np.array([[1.0, 0.0, 0.0, 1.0, 2.0], [0.0, 1.0, 0.0, 1.0, 2.0],
                           [0.0, 0.0, 1.0, 1.0, 3.0]])
        delta = check_min_norm_point(points, np.zeros(3))
        assert hull_verdict(points, np.zeros(3), delta) == (False, delta)
        assert delta == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
        _, weights = min_norm_point(points, np.zeros(3))
        assert np.allclose(weights, [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)

    def test_many_points_far_target(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(3, 1500))
        target = np.array([6.0, -4.0, 3.0])
        delta = check_min_norm_point(points, target)
        # The hull lies within the ball of the farthest point, and the
        # target's distance from the centroid bounds the distance above.
        radius = np.linalg.norm(points, axis=0).max()
        assert np.linalg.norm(target) - radius <= delta
        assert delta <= np.linalg.norm(target - points.mean(axis=1))

"""Incremental shift solver: worked example, quadratics, shift policies."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    INCREMENTS,
    centroid_coeffs,
    check_witness,
    example1_system,
    example2_system,
    given_arrays,
    given_units,
    invertible_system,
    nearest_half_coeffs,
    nonneg_system,
)
from hullsolve import (
    CONVERGED,
    SOLVE_CAP_EXCEEDED,
    HullInstance,
    LinearSystem,
    NoPositiveQuadratic,
    ShiftQuadratic,
    SingularMatrixError,
    SolveConfig,
    analyze_system,
    apply_step,
    build_quadratics,
    find_pivot,
    make_iterate,
    next_shift,
    optimize_shift_tau0,
    solve_incremental,
    solve_nonneg,
    step_size,
)
from hullsolve import hull, incremental, two_phase
from hullsolve.incremental import shifted_instance
from oracles import solve_exact

EXAMPLE2_COEFFS = np.array([0.25, 0.5, 0.25])


class TestOptimizeShift:
    def test_example2_from_origin(self):
        system = example2_system()
        tau0, err = optimize_shift_tau0(system, np.array([1.0, 2.0]), t_floor=0.0)
        assert tau0 == pytest.approx(12.0 / 5.0, abs=1e-14)
        # E is a norm of the stored system; the worked value is Example 2's.
        assert given_units(system, err) == pytest.approx(6.0 / np.sqrt(5.0), abs=1e-12)

    def test_example2_floor_binds_later_iterate(self):
        system = example2_system()
        x0 = np.array([19.0 / 11.0, 2.0])
        tau0, err = optimize_shift_tau0(system, x0, t_floor=2.0)
        assert tau0 == pytest.approx(164.0 / 55.0, abs=1e-12)
        assert given_units(system, err) == pytest.approx(42.0 * np.sqrt(5.0) / 55.0, abs=1e-12)

    def test_zero_residual_stays_at_floor(self):
        system = example1_system()
        tau0, err = optimize_shift_tau0(system, np.array([1.0, 2.0]), t_floor=0.0)
        assert tau0 == 0.0
        assert err == 0.0

    def test_grid_optimality(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            system, _ = invertible_system(rng, 4)
            x0 = np.abs(rng.normal(size=4))
            floor = rng.uniform(0.0, 2.0)
            tau0, err = optimize_shift_tau0(system, x0, t_floor=floor)
            for t in np.arange(floor, floor + 5.0, 0.1):
                sampled = np.linalg.norm(system.a @ x0 - (system.b + t * system.u))
                assert err <= sampled + 1e-12


class TestBuildQuadratics:
    def test_example2_coefficients(self):
        system = example2_system()
        iterate = make_iterate(shifted_instance(system, 0.0), EXAMPLE2_COEFFS)
        # The coefficients are squares of the stored system's units.
        quads = [
            given_units(system, [q.c2, q.c1, q.c0], 2) for q in build_quadratics(system, iterate)
        ]
        g1, g2, g3 = quads
        assert tuple(g1) == pytest.approx(
            (5.0 / 16.0, 0.5, -0.75), abs=1e-14
        )
        assert tuple(g2) == pytest.approx((5.0 / 16.0, -1.0, -0.75), abs=1e-14)
        assert tuple(g3) == pytest.approx((-35.0 / 16.0, 7.5, -27.0 / 4.0), abs=1e-14)
        assert build_quadratics(system, iterate)[2].is_rhs

    def test_negative_at_current_shift(self):
        system = example2_system()
        iterate = make_iterate(shifted_instance(system, 0.0), EXAMPLE2_COEFFS)
        for quad in build_quadratics(system, iterate):
            assert quad.value(0.0) < 0.0

    def test_vanishing_rhs_weight_escalates_to_the_linear_root(self):
        # p' = (a_1 + 2 a_2) / 3 = (0, 1) puts no weight on -b(t) and is a
        # witness up to t = 1.25: the column margins do not move with t, and
        # -b(t)'s margin is the line margin_n(t0) + (t - t0) u^T p'.
        system = example2_system()
        for t0 in (0.0, 0.5, 1.0):
            instance = shifted_instance(system, t0)
            iterate = make_iterate(instance, np.array([1.0, 2.0, 0.0]) / 3.0)
            assert check_witness(instance, iterate) is not None
            margin_n = float(hull.pivot_margins(iterate)[-1])
            u_point = float(system.u @ (instance.points @ iterate.coeffs))
            raw = next_shift(build_quadratics(system, iterate), t0, None)
            assert raw == pytest.approx(t0 - margin_n / u_point, rel=1e-14)
            assert raw == pytest.approx(1.25, rel=1e-14)

    def _random_witness(self, rng):
        """Witness iterates at shift 0 for systems with a negative solution."""
        while True:
            system, x_star = invertible_system(rng, rng.integers(2, 5))
            if (x_star >= 0).all():
                continue
            instance = shifted_instance(system, 0.0)
            coeffs = rng.dirichlet(np.ones(system.n + 1)) + 0.05
            coeffs /= coeffs.sum()
            iterate = make_iterate(instance, coeffs)
            if check_witness(instance, iterate) is not None:
                return system, iterate

    def test_coefficients_match_direct_evaluation(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            system, iterate = self._random_witness(rng)
            quads = build_quadratics(system, iterate)
            alpha_b = float(iterate.coeffs[-1])
            for t in rng.uniform(0.0, 5.0, 10):
                # At shift 0 the iterate's point is its shift-independent base.
                base = np.hstack([system.a, -system.b[:, None]]) @ iterate.coeffs
                moved = base - t * alpha_b * system.u
                moved_sq = float(moved @ moved)
                for quad in quads:
                    if quad.is_rhs:
                        direct = moved_sq + 2.0 * float(
                            moved @ (system.b + t * system.u)
                        )
                    else:
                        direct = moved_sq - 2.0 * float(
                            moved @ system.a[:, quad.index]
                        )
                    assert quad.value(t) == pytest.approx(
                        direct, rel=1e-9, abs=1e-9
                    )

    def test_sign_structure(self):
        # Columns open upward with a real root beyond the current shift; the
        # rhs quadratic opens downward and is negative at the current shift.
        # It can cross zero before every column root (-b(t) then becomes a
        # pivot), so the selected shift is the first zero of any quadratic.
        rng = np.random.default_rng(41)
        for _ in range(25):
            system, iterate = self._random_witness(rng)
            quads = build_quadratics(system, iterate)
            t0 = 0.0
            for quad in quads[:-1]:
                assert quad.c2 > 0.0
                root = next_shift([quad], t0, quantum=None)
                assert root > t0
                assert quad.value(root) == pytest.approx(0.0, abs=1e-7)
            rhs = quads[-1]
            assert rhs.c2 < 0.0
            assert rhs.value(t0) < 0.0
            selected = next_shift(quads, t0, quantum=None)
            for quad in quads[:-1]:
                assert selected <= next_shift([quad], t0, quantum=None)
            for t in np.linspace(t0, selected, 50)[:-1]:
                assert all(quad.value(t) < 0.0 for quad in quads)
            assert min(abs(quad.value(selected)) for quad in quads) == pytest.approx(
                0.0, abs=1e-7
            )


class TestNextShift:
    def test_example2_raw_root(self):
        system = example2_system()
        iterate = make_iterate(shifted_instance(system, 0.0), EXAMPLE2_COEFFS)
        raw = next_shift(build_quadratics(system, iterate), t0=0.0, quantum=None)
        assert raw == pytest.approx((-8.0 + math.sqrt(304.0)) / 10.0, abs=1e-12)

    def test_example2_quantized_to_one(self):
        system = example2_system()
        iterate = make_iterate(shifted_instance(system, 0.0), EXAMPLE2_COEFFS)
        assert next_shift(build_quadratics(system, iterate), t0=0.0, quantum=1) == 1.0

    def test_constructed_quadratics(self):
        quads = [
            ShiftQuadratic(0, 1.0, 0.0, -1.0),
            ShiftQuadratic(1, 1.0, 0.0, -4.0),
        ]
        assert next_shift(quads, t0=0.0, quantum=None) == pytest.approx(1.0)
        assert next_shift(quads, t0=0.0, quantum=3) == 3.0

    def test_rhs_root_before_column_roots(self):
        # -(t - 0.5)(t - 3) is negative at 0 and turns positive at 0.5, well
        # before the column roots 4 and 5.
        quads = [
            ShiftQuadratic(0, 1.0, 0.0, -16.0),
            ShiftQuadratic(1, 1.0, 0.0, -25.0),
            ShiftQuadratic(2, -1.0, 3.5, -1.5, is_rhs=True),
        ]
        assert next_shift(quads, t0=0.0, quantum=None) == pytest.approx(
            0.5, abs=1e-14
        )
        assert next_shift(quads, t0=0.0, quantum=1) == 1.0
        # Past both rhs roots only the column roots are left.
        assert next_shift(quads, t0=3.5, quantum=None) == pytest.approx(
            4.0, abs=1e-14
        )

    def test_rhs_root_without_cancellation(self):
        # -(t - 1e-8)(t - 1e8): the textbook formula loses the small root.
        quads = [
            ShiftQuadratic(0, 1.0, 0.0, -1.0),
            ShiftQuadratic(1, -1.0, 1e8 + 1e-8, -1.0, is_rhs=True),
        ]
        assert next_shift(quads, t0=0.0, quantum=None) == pytest.approx(
            1e-8, rel=1e-12
        )

    def test_rising_rhs_line_gives_its_root(self):
        # At alpha_b = 0 the columns' quadratics are constants and -b(t)'s a
        # line; 2 t - 5 turns nonnegative at 2.5.
        quads = [
            ShiftQuadratic(0, 0.0, 0.0, -1.0),
            ShiftQuadratic(1, 0.0, 2.0, -5.0, is_rhs=True),
        ]
        assert next_shift(quads, t0=0.0, quantum=None) == 2.5
        assert next_shift(quads, t0=0.0, quantum=1) == 3.0

    def test_falling_rhs_line_gives_no_root(self):
        falling = ShiftQuadratic(1, 0.0, -2.0, -5.0, is_rhs=True)
        assert next_shift([ShiftQuadratic(0, 1.0, 0.0, -4.0), falling], 0.0, None) == 2.0
        with pytest.raises(NoPositiveQuadratic):
            next_shift([ShiftQuadratic(0, 0.0, 0.0, -1.0), falling], t0=0.0)

    def test_no_upward_quadratic_raises(self):
        with pytest.raises(NoPositiveQuadratic):
            next_shift([ShiftQuadratic(0, 0.0, 1.0, -1.0)], t0=0.0)

    def test_double_root_gives_the_cauchy_bound(self):
        # (t - 1)^2: the discriminant is 0, so the root 1 is bounded above
        # by 1 + max(|c1|, |c0|) / c2 = 3 rather than solved for.
        assert next_shift([ShiftQuadratic(0, 1.0, -2.0, 1.0)], t0=0.0, quantum=None) == 3.0

    def test_quantized_increase_is_multiple(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            c2 = rng.uniform(0.1, 2.0)
            c1 = rng.uniform(-3.0, 3.0)
            t0 = rng.uniform(0.0, 4.0)
            value_at_t0 = rng.uniform(-5.0, -0.1)
            c0 = value_at_t0 - (c2 * t0 + c1) * t0
            quad = ShiftQuadratic(0, c2, c1, c0)
            new_t = next_shift([quad], t0, quantum=2)
            steps = (new_t - t0) / 2.0
            assert steps >= 1.0 - 1e-12
            assert steps == pytest.approx(round(steps), abs=1e-12)
            assert quad.value(t0) < 0.0


class TestCertificate:
    def test_example2_expanded_margins(self):
        # The witness margins are half the expanded inequalities
        # ||p'||^2 - 2 p'^T a_i < 0 and ||p'||^2 + 2 p'^T b(t0) < 0.
        system = example2_system()
        instance = shifted_instance(system, 0.0)
        witness = check_witness(instance, make_iterate(instance, EXAMPLE2_COEFFS))
        expanded = np.array([-0.75, -0.75, -27.0 / 4.0])
        margins = given_units(system, witness.margins, 2)
        assert np.allclose(margins, 0.5 * expanded, atol=1e-14)

    def test_rejects_non_witness(self):
        system = example1_system()
        instance = shifted_instance(system, 0.0)
        assert check_witness(instance, make_iterate(instance, np.full(3, 1 / 3))) is None


class TestSolveIncremental:
    def test_example2_end_to_end(self):
        system = example2_system()
        outcome = solve_incremental(system, SolveConfig(epsilon0=1e-8))
        assert outcome.status == CONVERGED
        assert outcome.residual_norm <= 1e-8 * given_units(system, system.rho)
        assert np.linalg.norm(outcome.x - np.array([-1.0, -2.0])) <= 1e-6
        # Final shift is large enough that x0 = x + t e is nonnegative.
        assert (outcome.x + outcome.shift_t * np.ones(2) >= -1e-9).all()

    @pytest.mark.parametrize("increment", ["quantized:1", "double"])
    def test_default_start_is_the_centroid(self, increment):
        # Without init_coeffs the run starts at equal weights 1/(n + 1) on
        # the n columns and -b(0): the same run, byte for byte, with the
        # shift re-optimised and with it pinned, which forces escalations.
        rng = np.random.default_rng(67)
        escalations = 0
        for n in (3, 6, 9):
            system, _ = invertible_system(rng, n)
            for hook in (None, lambda tau: 0.0):
                runs = [
                    solve_incremental(
                        system,
                        SolveConfig(epsilon0=1e-4, init_coeffs=coeffs, record_trace=True),
                        increment=increment,
                        tau_hook=hook,
                    )
                    for coeffs in (None, centroid_coeffs(n + 1))
                ]
                default, centroid = (
                    (o.status, o.iterations, o.shift_t, o.x.tobytes(), repr(o.trace))
                    for o in runs
                )
                assert default == centroid
                assert runs[0].status == CONVERGED
                escalations += runs[0].diagnostics["escalations"]
        assert escalations >= 5

    @pytest.mark.parametrize("quantum", [0, -5])
    def test_bad_quantum_raises_before_the_first_step(self, monkeypatch, quantum):
        # A solve that never escalates would otherwise not look at the rule.
        def started(*args):
            raise AssertionError("the solve started")

        monkeypatch.setattr(incremental, "shifted_instance", started)
        with pytest.raises(ValueError, match="quantum must be a positive integer"):
            solve_incremental(example2_system(), SolveConfig(), increment=f"quantized:{quantum}")

    @pytest.mark.parametrize(
        "a", [[[1.0, -1.0], [1.0, -1.0]], [[1.0, -1.0, -1.0, 1.0]] * 4]
    )
    def test_ones_in_null_space_raises_before_the_first_step(self, monkeypatch, a):
        # A e = 0 leaves b(t) = b at every shift: no shift can help.
        def started(*args):
            raise AssertionError("the solve started")

        monkeypatch.setattr(incremental, "shifted_instance", started)
        system = LinearSystem(np.array(a), np.eye(len(a))[0])
        with pytest.raises(SingularMatrixError, match="A e = 0"):
            solve_incremental(system, SolveConfig())

    def test_example2_double_plus_one_escalations(self):
        system = example2_system()
        outcome = solve_incremental(
            system, SolveConfig(epsilon0=1e-8), increment="double"
        )
        assert outcome.status == CONVERGED
        assert np.linalg.norm(outcome.x - np.array([-1.0, -2.0])) <= 1e-6
        # t_* = 2, so at most ceil(log2(t_* + 1)) = 2 witness escalations.
        assert outcome.diagnostics["escalations"] <= 2

    def test_witness_driven_path_crosses_t_star(self):
        # Suppress the shift optimization so escalations must do the work.
        # The solution (-0.5, -1.5) needs shift t_* = 1.5; unit-quantized
        # escalations 0 -> 1 -> 2 overshoot it, leaving the origin strictly
        # inside the shifted hull where convergence is fast.
        system = LinearSystem(
            np.array([[2.0, -1.0], [1.0, 1.0]]), np.array([0.5, -2.0])
        )
        config = SolveConfig(epsilon0=1e-6, init_coeffs=EXAMPLE2_COEFFS)
        outcome = solve_incremental(
            system, config, tau_hook=lambda tau: 0.0, increment="quantized:1"
        )
        assert outcome.status == CONVERGED
        assert outcome.diagnostics["escalations"] >= 1
        shifts = outcome.diagnostics["shifts"]
        assert shifts == sorted(shifts)
        assert shifts[-1] >= 1.5
        assert np.linalg.norm(outcome.x - np.array([-0.5, -1.5])) <= 1e-4

    def test_rounding_hook_replays_paper_iteration(self):
        # tau0 = 12/5 rounded down to 2: pivot on the first column. The
        # paper's Triangle step there has step 2/13 and alpha_b = 11/52.
        system = example2_system()
        instance = shifted_instance(system, 2.0)
        iterate = make_iterate(instance, EXAMPLE2_COEFFS)
        assert find_pivot(instance, iterate) == 0
        alpha = step_size(instance, iterate, 0)
        assert alpha == pytest.approx(2.0 / 13.0, abs=1e-14)
        triangle = apply_step(instance, iterate, 0, alpha)
        assert triangle.coeffs[-1] == pytest.approx(11.0 / 52.0, abs=1e-14)
        # The solver takes the better pairwise step instead: weight 1/6
        # moves from the second column to the first, to (5/12, 1/3, 1/4),
        # x0 = (5/3, 4/3) and gap 1/2; alpha_b stays 1/4.
        config = SolveConfig(
            epsilon0=1e-10,
            max_iterations=1,
            init_coeffs=EXAMPLE2_COEFFS,
            record_trace=True,
        )
        outcome = solve_incremental(system, config, tau_hook=math.floor)
        first_step = next(r for r in outcome.trace if r.pivot is not None)
        assert first_step.t == 2.0
        assert first_step.pivot == 0
        assert first_step.alpha_b == 0.25
        assert first_step.value == pytest.approx(2.0, abs=1e-14)
        gap = given_units(system, triangle.gap)
        assert gap == pytest.approx(0.58835, abs=1e-5)  # the transfer's 1/2 is nearer

    @pytest.mark.parametrize(
        "policy, hook, expected",
        [
            ("quantized", math.floor,
             [(12, [0.0, 1.0]), (39, [0.0, 1.0, 2.0]), (126, [0.0, 2.0, 3.0])]),
            ("quantized", lambda tau: 0.0,
             [(12, [0.0, 1.0]), (39, [0.0, 1.0, 2.0]), (142, [0.0, 1.0, 2.0, 3.0])]),
            ("double_plus_one", math.floor,
             [(12, [0.0, 1.0]), (38, [0.0, 1.0, 3.0]), (35, [0.0, 3.0])]),
            ("double_plus_one", lambda tau: 0.0,
             [(12, [0.0, 1.0]), (38, [0.0, 1.0, 3.0]), (40, [0.0, 1.0, 3.0])]),
        ],
    )
    def test_tau_hook_runs_repeat(self, policy, hook, expected):
        # Step counts and shift sequences of hooked solves, pinned so that
        # any change to the tau0 the hook post-processes shows.
        rng = np.random.default_rng(61)
        systems = [invertible_system(rng, n)[0] for n in (4, 7, 10)]
        for system, (iterations, shifts) in zip(systems, expected):
            config = SolveConfig(epsilon0=0.05, init_coeffs=nearest_half_coeffs(system))
            outcome = solve_incremental(system, config, increment=INCREMENTS[policy], tau_hook=hook)
            assert outcome.diagnostics["policy"] == policy
            assert outcome.status == CONVERGED
            assert outcome.iterations == iterations
            assert outcome.diagnostics["shifts"] == shifts
            assert outcome.shift_t == shifts[-1]

    def test_nonnegative_solution_never_escalates(self):
        system = example1_system()
        config = SolveConfig(epsilon0=1e-10, init_coeffs=centroid_coeffs(3))
        outcome = solve_incremental(system, config)
        assert outcome.status == CONVERGED
        assert outcome.shift_t == 0.0
        assert outcome.diagnostics["escalations"] == 0
        assert np.allclose(outcome.x, [1.0, 2.0], atol=1e-9)

    def test_random_mixed_sign_systems(self):
        rng = np.random.default_rng(47)
        for n in (3, 10, 30):
            system, x_star = invertible_system(rng, n)
            outcome = solve_incremental(system, SolveConfig(epsilon0=1e-6))
            assert outcome.status == CONVERGED
            assert outcome.residual_norm <= 1e-6 * given_units(system, system.rho)
            sigma_min = np.linalg.svd(system.a, compute_uv=False).min()
            bound = 1e-6 * system.rho / sigma_min
            assert np.linalg.norm(outcome.x - x_star) <= bound * (1 + 1e-9)

    def test_double_plus_one_witness_driven_sequence(self):
        # With the shift optimization suppressed, doubling-plus-one visits
        # 0, 1, 3, ... so a solution floor of t_* = 1.5 is crossed after
        # ceil(log2(t_* + 1)) = 2 escalations.
        system = LinearSystem(
            np.array([[2.0, -1.0], [1.0, 1.0]]), np.array([0.5, -2.0])
        )
        config = SolveConfig(epsilon0=1e-6, init_coeffs=EXAMPLE2_COEFFS)
        outcome = solve_incremental(
            system, config, increment="double", tau_hook=lambda tau: 0.0
        )
        assert outcome.status == CONVERGED
        shifts = outcome.diagnostics["shifts"]
        assert shifts[:3] == [0.0, 1.0, 3.0]
        assert outcome.diagnostics["escalations"] == 2

    @pytest.mark.parametrize(
        "increment, shifts",
        [("quantized", [0.0, 1.0, 2.0]), ("quantized:2", [0.0, 2.0]), ("quantized:3", [0.0, 3.0])],
    )
    def test_increment_spec_picks_the_rule(self, increment, shifts):
        # Witness-driven shifts of the system above (t_* = 1.5): each raise
        # is the next root rounded up to a multiple of N (bare "quantized"
        # is N = 1; "double" is test_double_plus_one_witness_driven_sequence).
        system = LinearSystem(
            np.array([[2.0, -1.0], [1.0, 1.0]]), np.array([0.5, -2.0])
        )
        config = SolveConfig(epsilon0=1e-6, init_coeffs=EXAMPLE2_COEFFS)
        outcome = solve_incremental(
            system, config, increment=increment, tau_hook=lambda tau: 0.0
        )
        assert outcome.status == CONVERGED
        assert outcome.diagnostics["policy"] == "quantized"
        assert outcome.diagnostics["shifts"] == shifts

    def test_no_witness_beyond_t_star(self):
        # Once the shift makes the solution nonnegative the origin is in
        # the hull, so no iterate can certify otherwise.
        system = LinearSystem(
            np.array([[2.0, -1.0], [1.0, 1.0]]), np.array([0.5, -2.0])
        )
        rng = np.random.default_rng(59)
        instance = shifted_instance(system, 3.0)  # t_* = 1.5
        for _ in range(200):
            coeffs = rng.dirichlet(np.ones(3))
            assert check_witness(instance, make_iterate(instance, coeffs)) is None

    @pytest.mark.parametrize("seed", [42, 134, 161, 259, 273, 302, 322])
    def test_forced_witness_without_rhs_weight_escalates(self, seed):
        # With the shift pinned at its floor, an alpha = 1 step lands on a
        # column that is a witness with alpha_b = 0; the shift must rise
        # from there, by the linear root of -b(t)'s margin or 2 t + 1.
        system, _ = invertible_system(np.random.default_rng(seed), 2 + seed % 7)
        for init in (None, centroid_coeffs(system.n + 1)):
            config = SolveConfig(epsilon0=1e-6, max_iterations=1_000, init_coeffs=init)
            for increment in ("quantized:1", "quantized:2", "double"):
                outcome = solve_incremental(
                    system, config, increment=increment, tau_hook=lambda tau: 0.0
                )
                assert outcome.status == CONVERGED, (init, increment)
                assert outcome.diagnostics["escalations"] >= 1
                assert outcome.residual_norm <= 1e-6 * given_units(system, system.rho)

    def test_escalation_cap_ends_the_solve(self):
        # The centroid is a witness at t = 0 and, with the shift
        # optimisation suppressed, again at t = 1 under "double": the
        # second escalation exceeds a cap of 1 before any step.
        system = LinearSystem(
            np.array([[2.0, -1.0], [1.0, 1.0]]), np.array([0.5, -2.0])
        )
        config = SolveConfig(epsilon0=1e-6, max_iterations=1, init_coeffs=centroid_coeffs(3))
        outcome = solve_incremental(system, config, increment="double", tau_hook=lambda tau: 0.0)
        assert (outcome.status, outcome.iterations) == (SOLVE_CAP_EXCEEDED, 0)
        assert outcome.x is None
        assert outcome.diagnostics["escalations"] == 2
        assert outcome.diagnostics["shifts"] == [0.0, 1.0]
        assert outcome.shift_t == 1.0
        assert "last_t" not in outcome.diagnostics

    def test_shift_sequence_monotone(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            system, x_star = invertible_system(rng, 4)
            outcome = solve_incremental(system, SolveConfig(epsilon0=1e-6))
            shifts = outcome.diagnostics["shifts"]
            assert all(b > a for a, b in zip(shifts, shifts[1:]))
            assert outcome.status == CONVERGED


def test_only_columns_give_weight(monkeypatch):
    # -b(t) is the active point of least margin on nearly every step of
    # this solve, so a transfer from it would lower alpha_b, which x0 and
    # the estimate gap / alpha_b divide by. solve_incremental lets the n
    # columns alone give weight: its transfers leave alpha_b as it was.
    # solve_nonneg lets every point give it.
    calls = []

    def step(instance, iterate, j, alpha, donors=0):
        stepped = hull.apply_step(instance, iterate, j, alpha, donors)
        triangle = hull.apply_step(instance, iterate, j, alpha)
        active = np.where(iterate.coeffs > 0.0, iterate.dot_cache, -np.inf)
        last = instance.n_points - 1
        transfer = not np.array_equal(stepped.coeffs, triangle.coeffs)
        calls.append((donors, last, transfer, int(active.argmax()) == last,
                      stepped.coeffs[last] - iterate.coeffs[last]))
        return stepped

    monkeypatch.setattr(incremental, "apply_step", step)
    monkeypatch.setattr(two_phase, "apply_step", step)
    system, _ = invertible_system(np.random.default_rng(5), 10)
    config = SolveConfig(epsilon0=1e-3, init_coeffs=nearest_half_coeffs(system))
    assert solve_incremental(system, config).status == CONVERGED
    assert {donors for donors, *_ in calls} == {10}
    assert sum(rhs_least for *_, rhs_least, _ in calls) >= 0.9 * len(calls)
    transfers = [rise for _, _, transfer, _, rise in calls if transfer]
    assert len(transfers) >= 20 and all(rise == 0.0 for rise in transfers)
    calls.clear()
    system, _ = nonneg_system(np.random.default_rng(5), 10, diag_boost=0.0)
    assert solve_nonneg(system, SolveConfig(epsilon0=1e-3)).status == CONVERGED
    assert {donors for donors, *_ in calls} == {11}
    assert any(transfer and rhs_least and rise < 0.0
               for _, _, transfer, rhs_least, rise in calls)


class TestOneGramMatrix:
    """Both solvers and analyze_system read the system's one A^T A, and a
    move of the shift leaves the hull a build at the new shift gives."""

    def test_moved_instance_is_the_built_one(self):
        # move_shift and shifted_instance write -b(t) and its Gram border
        # through one writer, place_shift: after moves from shift to
        # shift, the hull holds the points and A^T A of one built apart
        # from the system at the last shift, bit for bit, and -b(t)'s
        # products and squared norm within rounding of the formed ones.
        rng = np.random.default_rng(67)
        for n in (3, 10, 40):
            a = rng.normal(size=(n, n))
            system = LinearSystem(a, a @ rng.normal(size=n))
            a = np.ascontiguousarray(system.a)  # the stored A
            gram = a.T @ a
            t = rng.uniform(0.0, 3.0)
            instance = shifted_instance(system, t)
            iterate = make_iterate(instance, rng.dirichlet(np.ones(n + 1)))
            for new_t in rng.uniform(0.0, 10.0, size=5):
                u_point = incremental._shift_product(system, iterate.coeffs, t)
                iterate = incremental.move_shift(system, iterate, t, new_t, u_point)
                t = new_t
                b_t = system.b + t * system.u
                built = HullInstance(np.column_stack([a, -b_t]), np.zeros(n))
                assert instance.points.tobytes() == built.points.tobytes()
                assert instance.sq_norms[:n].tobytes() == built.sq_norms[:n].tobytes()
                for j in range(n):
                    assert instance.gram_column(j)[:n].tobytes() == gram[j].tobytes()
                scale = np.sqrt(built.sq_norms.max()) * (system.norm_b + t * np.sqrt(system.u_sq))
                tol = 4 * n * np.finfo(float).eps * scale
                assert np.abs(instance.gram_column(n) - built.gram_column(n)).max() <= tol
                assert abs(instance.sq_norms[n] - built.sq_norms[n]) <= tol

    def test_one_shifted_hull_per_system(self):
        system, _ = invertible_system(np.random.default_rng(71), 5)
        first = shifted_instance(system, 0.0)
        assert shifted_instance(system, 2.5) is first is system.hull
        assert np.shares_memory(first.points, system.a)

    def test_solves_in_sequence_match_solves_on_fresh_systems(self):
        # Each solve places -b(t) on the system's one hull for itself, so
        # solves one after another on one system give the bytes of the
        # same solves on fresh systems: status, steps, x, witness, shifts
        # and trace.
        def digest(outcome):
            return (
                outcome.status,
                outcome.iterations,
                outcome.shift_t,
                None if outcome.x is None else outcome.x.tobytes(),
                None if outcome.witness is None else outcome.witness.margins.tobytes(),
                repr(outcome.diagnostics),
                repr(outcome.trace),
            )

        solves = [
            lambda s, c: solve_nonneg(s, c),
            lambda s, c: solve_incremental(s, c),
            lambda s, c: solve_nonneg(s, c, phase1=True),
            lambda s, c: solve_incremental(s, c, increment="double"),
        ]
        config = SolveConfig(epsilon0=1e-6, record_trace=True)
        rng = np.random.default_rng(79)
        for n in (3, 8):
            for system, _ in (nonneg_system(rng, n), invertible_system(rng, n)):
                shared = [digest(solve(system, config)) for solve in solves]
                fresh = [
                    digest(solve(LinearSystem(*given_arrays(system)), config)) for solve in solves
                ]
                assert shared == fresh

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 16, 33, 64, 100, 257])
    def test_views_give_the_products_of_a_contiguous_copy(self, n):
        # system.a and system.gram are views into the hull's arrays; the
        # BLAS must give them the bytes it gives contiguous arrays, which
        # the solvers' bytes rest on.
        rng = np.random.default_rng([89, n])
        system = LinearSystem(rng.normal(size=(n, n)), rng.normal(size=n))
        a = np.ascontiguousarray(system.a)
        x = rng.normal(size=n)
        assert (system.a @ x).tobytes() == (a @ x).tobytes()
        assert (system.a.T @ x).tobytes() == (a.T @ x).tobytes()
        assert system.gram.tobytes() == (a.T @ a).tobytes()

    def test_system_and_nonneg_solve_hold_two_arrays(self):
        # A caller that keeps no A: the system's [A | -b(t)] and its
        # bordered Gram matrix are the solve's only n^2 arrays, so the
        # traced peak stays below 2.5 x 8 n^2 bytes, the caller's A
        # included while the system copies it. With a copy of each per
        # solve it was 4.1 x.
        n = 300
        rng = np.random.default_rng(97)
        x = rng.uniform(0.5, 1.5, n)
        tracemalloc.start()
        try:
            a = rng.normal(size=(n, n))
            a /= np.sqrt(np.einsum("ij,ij->j", a, a))
            system = LinearSystem(a, a @ (x / x.sum()))
            del a
            outcome = solve_nonneg(system, SolveConfig(epsilon0=0.005))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.status == CONVERGED
        assert peak < 2.5 * 8 * n * n

    def test_one_system_forms_its_gram_matrix_once(self, monkeypatch):
        # analyze_system, the two-phase solve with Phase 1 first and the
        # shift solve, on one system: A^T A is formed once, by
        # LinearSystem.gram, and left as it was, and each hull's column
        # block is that matrix bit for bit.
        formed = []
        form = LinearSystem.__dict__["gram"].func

        def counted(system):
            formed.append(system)
            return form(system)

        gram_property = functools.cached_property(counted)
        gram_property.__set_name__(LinearSystem, "gram")
        monkeypatch.setattr(LinearSystem, "gram", gram_property)
        hulls = []

        def record_built(build):
            def wrapper(system, t):
                hulls.append(build(system, t))
                return hulls[-1]

            return wrapper

        def record_run(run):
            def wrapper(instance, config):
                hulls.append(instance)
                return run(instance, config)

            return wrapper

        for module in (incremental, two_phase):
            monkeypatch.setattr(module, "shifted_instance", record_built(module.shifted_instance))
        monkeypatch.setattr(two_phase, "run_hull", record_run(two_phase.run_hull))

        system, _ = nonneg_system(np.random.default_rng(7), 20)
        analyze_system(system)
        assert len(formed) == 1
        gram = system.gram.copy()
        config = SolveConfig(epsilon0=0.01)
        nonneg = solve_nonneg(system, config, phase1=True)
        general = solve_incremental(system, config)
        assert nonneg.status == general.status == CONVERGED
        assert nonneg.diagnostics["phase1_iterations"] > 0
        assert len(formed) == 1
        assert system.gram.tobytes() == gram.tobytes()
        assert len(hulls) == 3  # Phase 1's columns, Phase 2's and the shift solve's hulls
        n = system.n
        for hull in hulls:
            block = np.array([hull.gram_column(j)[:n] for j in range(n)])
            assert block.tobytes() == gram.tobytes()

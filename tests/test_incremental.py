"""Incremental shift solver: worked example, quadratics, shift policies."""

import math

import numpy as np
import pytest

from helpers import example1_system, example2_system, invertible_system
from hullsolve import (
    CONVERGED,
    SOLVE_CAP_EXCEEDED,
    LinearSystem,
    NoPositiveQuadratic,
    ShiftQuadratic,
    SolveConfig,
    build_quadratics,
    check_witness,
    make_iterate,
    next_shift,
    optimize_shift_tau0,
    solve_incremental,
)
from hullsolve import incremental
from hullsolve.incremental import POLICY_DOUBLE_PLUS_ONE, shifted_instance
from hullsolve.oracles import solve_exact
from hullsolve.two_phase import AlphaBVanishes

EXAMPLE2_COEFFS = np.array([0.25, 0.5, 0.25])


class TestOptimizeShift:
    def test_example2_from_origin(self):
        system = example2_system()
        tau0, err = optimize_shift_tau0(system, np.array([1.0, 2.0]), t_floor=0.0)
        assert tau0 == pytest.approx(12.0 / 5.0, abs=1e-14)
        assert err == pytest.approx(6.0 / np.sqrt(5.0), abs=1e-12)

    def test_example2_floor_binds_later_iterate(self):
        system = example2_system()
        x0 = np.array([19.0 / 11.0, 2.0])
        tau0, err = optimize_shift_tau0(system, x0, t_floor=2.0)
        assert tau0 == pytest.approx(164.0 / 55.0, abs=1e-12)
        assert err == pytest.approx(42.0 * np.sqrt(5.0) / 55.0, abs=1e-12)

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
                sampled = np.linalg.norm(system.a @ x0 - system.rhs_shifted(t))
                assert err <= sampled + 1e-12


class TestBuildQuadratics:
    def test_example2_coefficients(self):
        system = example2_system()
        iterate = make_iterate(shifted_instance(system, 0.0), EXAMPLE2_COEFFS)
        quads = build_quadratics(system, iterate, 0.0)
        g1, g2, g3 = quads
        assert (g1.c2, g1.c1, g1.c0) == pytest.approx(
            (5.0 / 16.0, 0.5, -0.75), abs=1e-14
        )
        assert (g2.c2, g2.c1, g2.c0) == pytest.approx(
            (5.0 / 16.0, -1.0, -0.75), abs=1e-14
        )
        assert (g3.c2, g3.c1, g3.c0) == pytest.approx(
            (-35.0 / 16.0, 7.5, -27.0 / 4.0), abs=1e-14
        )
        assert g3.is_rhs

    def test_negative_at_current_shift(self):
        system = example2_system()
        iterate = make_iterate(shifted_instance(system, 0.0), EXAMPLE2_COEFFS)
        for quad in build_quadratics(system, iterate, 0.0):
            assert quad.value(0.0) < 0.0

    def test_vanishing_rhs_weight_raises(self):
        system = example2_system()
        instance = shifted_instance(system, 0.0)
        iterate = make_iterate(instance, np.array([0.5, 0.5, 0.0]))
        with pytest.raises(AlphaBVanishes):
            build_quadratics(system, iterate, 0.0)

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
            quads = build_quadratics(system, iterate, 0.0)
            alpha_b = float(iterate.coeffs[-1])
            for t in rng.uniform(0.0, 5.0, 10):
                # At shift 0 the iterate's point is its shift-independent base.
                moved = iterate.point - t * alpha_b * system.u
                moved_sq = float(moved @ moved)
                for quad in quads:
                    if quad.is_rhs:
                        direct = moved_sq + 2.0 * float(
                            moved @ system.rhs_shifted(t)
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
            quads = build_quadratics(system, iterate, 0.0)
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
        raw = next_shift(build_quadratics(system, iterate, 0.0), t0=0.0, quantum=None)
        assert raw == pytest.approx((-8.0 + math.sqrt(304.0)) / 10.0, abs=1e-12)

    def test_example2_quantized_to_one(self):
        system = example2_system()
        iterate = make_iterate(shifted_instance(system, 0.0), EXAMPLE2_COEFFS)
        assert next_shift(build_quadratics(system, iterate, 0.0), t0=0.0, quantum=1) == 1.0

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

    def test_no_upward_quadratic_raises(self):
        with pytest.raises(NoPositiveQuadratic):
            next_shift([ShiftQuadratic(0, 0.0, 1.0, -1.0)], t0=0.0)

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
        assert np.allclose(witness.margins, 0.5 * expanded, atol=1e-14)

    def test_rejects_non_witness(self):
        system = example1_system()
        instance = shifted_instance(system, 0.0)
        assert check_witness(instance, make_iterate(instance, np.full(3, 1 / 3))) is None


class TestSolveIncremental:
    def test_example2_end_to_end(self):
        system = example2_system()
        outcome = solve_incremental(system, SolveConfig(epsilon0=1e-8))
        assert outcome.status == CONVERGED
        assert outcome.residual_norm <= 1e-8 * system.rho
        assert np.linalg.norm(outcome.x - np.array([-1.0, -2.0])) <= 1e-6
        # Final shift is large enough that x0 = x + t e is nonnegative.
        assert (outcome.x + outcome.shift_t * np.ones(2) >= -1e-9).all()

    @pytest.mark.parametrize("quantum", [0, -5])
    def test_bad_quantum_raises_before_the_first_step(self, monkeypatch, quantum):
        # A solve that never escalates would otherwise not look at quantum.
        def started(*args):
            raise AssertionError("the solve started")

        monkeypatch.setattr(incremental, "shifted_instance", started)
        with pytest.raises(ValueError, match="quantum must be a positive integer"):
            solve_incremental(example2_system(), SolveConfig(), quantum=quantum)

    def test_example2_double_plus_one_escalations(self):
        system = example2_system()
        outcome = solve_incremental(
            system, SolveConfig(epsilon0=1e-8), policy=POLICY_DOUBLE_PLUS_ONE
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
        config = SolveConfig(
            epsilon0=1e-6, init_rule="given", init_coeffs=EXAMPLE2_COEFFS
        )
        outcome = solve_incremental(
            system, config, tau_hook=lambda tau: 0.0, quantum=1
        )
        assert outcome.status == CONVERGED
        assert outcome.diagnostics["escalations"] >= 1
        shifts = outcome.diagnostics["shifts"]
        assert shifts == sorted(shifts)
        assert shifts[-1] >= 1.5
        assert np.linalg.norm(outcome.x - np.array([-0.5, -1.5])) <= 1e-4

    def test_rounding_hook_replays_paper_iteration(self):
        # tau0 = 12/5 rounded down to 2: pivot on the first column with
        # step 2/13 and the documented coefficients.
        system = example2_system()
        config = SolveConfig(
            epsilon0=1e-10,
            max_iterations=1,
            init_rule="given",
            init_coeffs=EXAMPLE2_COEFFS,
            record_trace=True,
        )
        outcome = solve_incremental(system, config, tau_hook=math.floor)
        first_step = next(r for r in outcome.trace if r.pivot is not None)
        assert first_step.t == 2.0
        assert first_step.pivot == 0
        assert first_step.alpha_b == pytest.approx(11.0 / 52.0, abs=1e-14)

    @pytest.mark.parametrize(
        "policy, hook, expected",
        [
            ("quantized", math.floor,
             [(215, [0.0, 1.0]), (129, [0.0, 1.0, 2.0]), (613, [0.0, 2.0, 3.0])]),
            ("quantized", lambda tau: 0.0,
             [(215, [0.0, 1.0]), (129, [0.0, 1.0, 2.0]), (689, [0.0, 1.0, 2.0, 3.0])]),
            (POLICY_DOUBLE_PLUS_ONE, math.floor,
             [(215, [0.0, 1.0]), (297, [0.0, 1.0, 3.0]), (567, [0.0, 3.0])]),
            (POLICY_DOUBLE_PLUS_ONE, lambda tau: 0.0,
             [(215, [0.0, 1.0]), (297, [0.0, 1.0, 3.0]), (526, [0.0, 1.0, 3.0])]),
        ],
    )
    def test_tau_hook_runs_repeat(self, policy, hook, expected):
        # Step counts and shift sequences of hooked solves, pinned so that
        # any change to the tau0 the hook post-processes shows.
        rng = np.random.default_rng(61)
        systems = [invertible_system(rng, n)[0] for n in (4, 7, 10)]
        for system, (iterations, shifts) in zip(systems, expected):
            outcome = solve_incremental(
                system, SolveConfig(epsilon0=0.05), policy=policy, tau_hook=hook
            )
            assert outcome.status == CONVERGED
            assert outcome.iterations == iterations
            assert outcome.diagnostics["shifts"] == shifts
            assert outcome.shift_t == shifts[-1]

    def test_nonnegative_solution_never_escalates(self):
        system = example1_system()
        config = SolveConfig(epsilon0=1e-10, init_rule="centroid")
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
            assert outcome.residual_norm <= 1e-6 * system.rho
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
        config = SolveConfig(
            epsilon0=1e-6, init_rule="given", init_coeffs=EXAMPLE2_COEFFS
        )
        outcome = solve_incremental(
            system, config, policy=POLICY_DOUBLE_PLUS_ONE, tau_hook=lambda tau: 0.0
        )
        assert outcome.status == CONVERGED
        shifts = outcome.diagnostics["shifts"]
        assert shifts[:3] == [0.0, 1.0, 3.0]
        assert outcome.diagnostics["escalations"] == 2

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

    def test_escalation_cap_ends_the_solve(self, monkeypatch):
        # The initial iterate is a witness at t = 0; with the shift
        # optimisation suppressed, the first escalation exceeds a cap of 0.
        monkeypatch.setattr(incremental, "_default_escalation_cap", lambda system: 0)
        system = LinearSystem(
            np.array([[2.0, -1.0], [1.0, 1.0]]), np.array([0.5, -2.0])
        )
        config = SolveConfig(
            epsilon0=1e-6, init_rule="given", init_coeffs=EXAMPLE2_COEFFS
        )
        outcome = solve_incremental(system, config, tau_hook=lambda tau: 0.0)
        assert outcome.status == SOLVE_CAP_EXCEEDED
        assert outcome.x is None
        assert outcome.diagnostics["escalations"] == 1
        assert outcome.diagnostics["shifts"] == [0.0]
        assert outcome.diagnostics["last_t"] == outcome.shift_t == 0.0

    def test_shift_sequence_monotone(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            system, x_star = invertible_system(rng, 4)
            outcome = solve_incremental(system, SolveConfig(epsilon0=1e-6))
            shifts = outcome.diagnostics["shifts"]
            assert all(b > a for a, b in zip(shifts, shifts[1:]))
            assert outcome.status == CONVERGED

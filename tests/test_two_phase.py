"""Two-phase solver: epsilon selection, recovery, end-to-end guarantees."""

import math

import numpy as np
import pytest

from helpers import (
    example1_system,
    example2_system,
    invertible_system,
    nonneg_system,
    reference_margins,
)
from hullsolve import (
    CONVERGED,
    INFEASIBLE_NONNEG,
    SOLVE_CAP_EXCEEDED,
    HullInstance,
    LinearSystem,
    SingularMatrixError,
    SolveConfig,
    make_iterate,
    recover_solution,
    select_inner_epsilon,
    sensitivity_epsilon_prime,
    solve_incremental,
    solve_nonneg,
)
from hullsolve import two_phase
from hullsolve.oracles import delta_brute
from hullsolve.two_phase import AlphaBVanishes, _phase1_outcome


class TestLinearSystem:
    def test_scale_and_shift_direction(self):
        system = example2_system()
        assert system.rho == 3.0  # max(sqrt5, sqrt2, ||b||=3)
        assert system.rho >= system.norm_b
        assert np.array_equal(system.u, system.a @ np.ones(2))

    def test_zero_column_rejected(self):
        from hullsolve import SingularMatrixError

        with pytest.raises(SingularMatrixError):
            LinearSystem(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0]))

    def test_underflowing_columns_rejected_as_out_of_scale(self):
        # No column of Example 2 at 2^-540 is zero, but every square of an
        # entry underflows.
        system = example2_system()
        with pytest.raises(ValueError, match="too small"):
            LinearSystem(np.ldexp(system.a, -540), np.ldexp(system.b, -540))

    def test_overflowing_rhs_rejected_before_incremental_solve(self):
        # ||b||^2 of Example 2 at 2^511 overflows: rho would be inf and any
        # x would pass the residual test.
        system = example2_system()
        with pytest.raises(ValueError, match="too large"):
            solve_incremental(
                LinearSystem(np.ldexp(system.a, 511), np.ldexp(system.b, 511)),
                SolveConfig(),
            )

    def test_overflowing_columns_rejected_before_nonneg_solve(self):
        # A column of Example 1 at 2^511 has a squared norm past double
        # range; Phase 1 would report the origin in the hull at gap inf.
        system = example1_system()
        with pytest.raises(ValueError, match="too large"):
            solve_nonneg(
                LinearSystem(np.ldexp(system.a, 511), np.ldexp(system.b, 511)),
                SolveConfig(),
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearSystem(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            LinearSystem(np.eye(2), np.ones(3))


class TestSelectInnerEpsilon:
    def test_symmetric_case(self):
        system = LinearSystem(np.eye(2), np.array([1.0, 0.0]))
        assert system.rho == 1.0 and system.norm_b == 1.0
        eps = select_inner_epsilon(1.0, delta0_prime=1.0, system=system)
        assert eps == pytest.approx(0.25, abs=1e-15)

    def test_mixed_case(self):
        system = LinearSystem(
            np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([0.0, 2.0])
        )
        assert system.rho == 2.0 and system.norm_b == 2.0
        eps = select_inner_epsilon(0.1, delta0_prime=1.0, system=system)
        assert eps == pytest.approx(1.0 / 60.0, abs=1e-15)

    def test_always_below_sensitivity_precondition(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            system, _ = nonneg_system(rng, 4)
            delta = rng.uniform(1e-3, system.rho)
            eps0 = rng.uniform(1e-4, 0.9)
            eps = select_inner_epsilon(eps0, delta, system)
            assert eps <= delta / (2.0 * system.rho) + 1e-18

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            select_inner_epsilon(0.1, 0.0, example1_system())


class TestSensitivityEpsilonPrime:
    def test_direct_formula(self):
        assert sensitivity_epsilon_prime(0.01, 1.0, 1.0) == pytest.approx(0.04)

    def test_linear_in_epsilon(self):
        base = sensitivity_epsilon_prime(1e-3, 2.0, 3.0)
        assert sensitivity_epsilon_prime(1e-6, 2.0, 3.0) == pytest.approx(
            base * 1e-3
        )

    def test_equal_norms_give_factor_four(self):
        assert sensitivity_epsilon_prime(0.05, 7.0, 7.0) == pytest.approx(0.2)


class TestRecoverSolution:
    def _iterate(self, system, coeffs):
        points = np.hstack([system.a, -system.b[:, None]])
        return make_iterate(HullInstance(points, np.zeros(system.n)), coeffs)

    def test_example1_converged_coeffs(self):
        x = recover_solution(self._iterate(example1_system(), [0.25, 0.5, 0.25]),
                             example1_system())
        assert np.allclose(x, [1.0, 2.0], atol=1e-14)

    def test_example1_centroid_coeffs(self):
        system = example1_system()
        x = recover_solution(self._iterate(system, [1 / 3, 1 / 3, 1 / 3]), system)
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_example2_shifted_coeffs(self):
        system = example2_system()
        x = recover_solution(
            self._iterate(system, [19 / 52, 11 / 26, 11 / 52]), system
        )
        assert np.allclose(x, [19.0 / 11.0, 2.0], atol=1e-14)

    def test_vanishing_weight_raises(self):
        system = example1_system()
        with pytest.raises(AlphaBVanishes):
            recover_solution(self._iterate(system, [0.5, 0.5, 0.0]), system)


def _phase1_witness(system, config):
    """Phase 1's witness and delta0' = gap / 2."""
    outcome = _phase1_outcome(HullInstance(system.a, np.zeros(system.n)), config)
    assert outcome.witness is not None
    return outcome.witness, 0.5 * outcome.iterate.gap


class TestPhase1:
    def test_unit_basis_segment(self):
        system = LinearSystem(np.eye(2), np.array([1.0, 1.0]))
        witness, delta0p = _phase1_witness(system, SolveConfig(epsilon0=1e-6))
        exact = 1.0 / np.sqrt(2.0)
        assert 0.0 < delta0p <= exact * (1 + 1e-12)
        assert (witness.margins < 0.0).all()

    def test_example2_columns_witness_inequalities(self):
        system = example2_system()
        witness, _ = _phase1_witness(system, SolveConfig(epsilon0=1e-8))
        p_prime = witness.iterate.point
        half_sq = 0.5 * float(p_prime @ p_prime)
        for col in system.a.T:
            assert float(p_prime @ col) > half_sq

    def test_collinear_columns_contain_origin(self):
        system = LinearSystem(
            np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([1.0, 0.0])
        )
        with pytest.raises(SingularMatrixError):
            solve_nonneg(system, SolveConfig(epsilon0=1e-4))

    def test_bracket_against_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            system, _ = nonneg_system(rng, 3)
            _, delta0p = _phase1_witness(system, SolveConfig(epsilon0=1e-6))
            delta0 = delta_brute(system.a, np.zeros(3), grid_k=150)
            assert delta0p <= delta0 * (1 + 1e-6) + 1e-9
            assert delta0 <= 2.0 * delta0p * (1 + 1e-6) + 1e-9


class TestSolveNonneg:
    def test_example1_exact_in_one_step(self):
        config = SolveConfig(epsilon0=1e-10, init_rule="centroid")
        outcome = solve_nonneg(example1_system(), config, delta0_policy="skip")
        assert outcome.status == CONVERGED
        assert np.allclose(outcome.x, [1.0, 2.0], atol=1e-12)
        assert outcome.residual_norm <= 1e-12
        assert outcome.iterations == 1

    def test_random_systems_converge_within_cap(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            system, _ = nonneg_system(rng, 20)
            config = SolveConfig(epsilon0=0.01)
            outcome = solve_nonneg(system, config)
            assert outcome.status == CONVERGED
            assert outcome.relative_residual <= 0.01
            assert outcome.iterations <= outcome.diagnostics["phase2_cap"]
            # Independent residual recomputation backs the early exit.
            assert np.linalg.norm(system.a @ outcome.x - system.b) <= (
                0.01 * system.rho
            )
            assert (outcome.x >= -1e-12).all()

    def test_negative_solution_yields_witness(self):
        outcome = solve_nonneg(example2_system(), SolveConfig(epsilon0=1e-6))
        assert outcome.status == INFEASIBLE_NONNEG
        witness = outcome.witness
        assert witness is not None
        assert (witness.margins < 0.0).all()
        # The witness point is strictly closer to every generator than 0 is.
        points = np.hstack([example2_system().a, -example2_system().b[:, None]])
        p_prime = witness.iterate.point
        for i in range(points.shape[1]):
            assert np.linalg.norm(p_prime - points[:, i]) < np.linalg.norm(
                points[:, i]
            )

    def test_sensitivity_guarantee_at_hull_target(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            system, _ = nonneg_system(rng, 5)
            outcome = solve_nonneg(system, SolveConfig(epsilon0=0.25), residual_first=False)
            assert outcome.status == CONVERGED
            delta0p = outcome.phase1_delta0_prime
            eps = outcome.inner_epsilon
            eps_prime = sensitivity_epsilon_prime(eps, delta0p, system.norm_b)
            assert outcome.residual_norm <= eps_prime * system.rho
            assert (outcome.x >= 0.0).all()

    def test_phase1_cost_below_phase2_cap(self):
        rng = np.random.default_rng(10)
        for n in (5, 20):
            system, _ = nonneg_system(rng, n)
            config = SolveConfig(epsilon0=0.1)
            outcome1 = _phase1_outcome(HullInstance(system.a, np.zeros(n)), config)
            delta0p = 0.5 * outcome1.iterate.gap
            cap = math.ceil((48.0 / 0.1**2) * (system.rho / delta0p) ** 2)
            assert outcome1.iterations <= cap

    def test_phase1_cap_ends_the_solve(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(20, 20))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        system = LinearSystem(a, a @ rng.uniform(0.5, 1.5, 20))
        config = SolveConfig(epsilon0=0.01, max_iterations=2)
        outcome = solve_nonneg(system, config)
        assert outcome.status == SOLVE_CAP_EXCEEDED
        assert outcome.iterations == 2
        # The same diagnostics as every other outcome, and the cap message.
        assert outcome.diagnostics == {
            "phase1_iterations": 2,
            "delta0_source": "unavailable",
            "phase1": "phase 1 exceeded 2 iterations without a verdict",
        }
        assert outcome.x is None and outcome.phase1_delta0_prime is None
        assert outcome.inner_epsilon is None

    def test_phase2_cap_ends_the_solve(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(20, 20))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        system = LinearSystem(a, a @ rng.uniform(0.5, 1.5, 20))
        config = SolveConfig(epsilon0=0.01, max_iterations=3, record_trace=True)
        outcome = solve_nonneg(system, config, delta0_policy="skip")
        assert (outcome.status, outcome.iterations) == (SOLVE_CAP_EXCEEDED, 3)
        assert outcome.diagnostics["phase2_cap"] == 3
        # The gap of the iterate the cap stopped, as its step row holds it.
        assert outcome.trace[-1].iteration == 3
        assert outcome.diagnostics["last_gap"] == outcome.trace[-1].value > 0.0

    def test_skip_without_eigenvalue_bound(self):
        # A singular matrix gives no delta0': no epsilon', the default cap.
        system = LinearSystem(np.ones((2, 2)), np.ones(2))
        outcome = solve_nonneg(system, SolveConfig(epsilon0=0.01), delta0_policy="skip")
        assert outcome.status == CONVERGED
        assert outcome.diagnostics["delta0_source"] == "unavailable"
        assert outcome.diagnostics["guarantee"] == "direct residual check only"
        assert "epsilon_prime" not in outcome.diagnostics
        assert outcome.diagnostics["phase2_cap"] == 10**6
        assert outcome.inner_epsilon is None and outcome.phase1_delta0_prime is None

    def test_user_delta0_policy(self):
        rng = np.random.default_rng(12)
        system, _ = nonneg_system(rng, 6)
        outcome = solve_nonneg(
            system, SolveConfig(epsilon0=0.05), delta0_policy="user", delta0_user=0.05
        )
        assert outcome.status == CONVERGED
        assert outcome.phase1_delta0_prime == 0.05

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"delta0_policy": "bogus"}, "unknown delta0 policy 'bogus'"),
            ({"delta0_policy": "user"}, "requires a finite positive delta0_user"),
            ({"delta0_policy": "user", "delta0_user": np.nan}, "finite positive"),
            ({"delta0_policy": "user", "delta0_user": -1.0}, "finite positive"),
        ],
    )
    def test_delta0_settings_checked_before_phase1(self, monkeypatch, settings, message):
        def started(*args):
            raise AssertionError("the solve started")

        monkeypatch.setattr(two_phase, "run_hull", started)
        with pytest.raises(ValueError, match=message):
            solve_nonneg(example1_system(), SolveConfig(), **settings)

    def test_user_delta0_above_rho_is_refused(self):
        # No hull-to-origin distance exceeds ||b|| <= rho (sqrt(10) here); a
        # larger delta0' would make the Phase 2 cap (rho / delta0')^2 vanish.
        system = LinearSystem(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 1.0]))
        config = SolveConfig(epsilon0=0.01)
        for delta0 in (1e300, 100.0, np.nextafter(system.rho, np.inf)):
            with pytest.raises(ValueError, match=r"exceeds rho = 3\.16"):
                solve_nonneg(system, config, delta0_policy="user", delta0_user=delta0)
        outcome = solve_nonneg(system, config, delta0_policy="user", delta0_user=system.rho)
        assert outcome.status == CONVERGED


class TestPairwiseSteps:
    """Both phases take the better of the Triangle step and a pairwise
    transfer of weight; the exact residual and direct witness margins
    still decide every outcome."""

    def test_step_counts(self):
        # (total steps, Phase 1 steps); the Triangle step alone took
        # (2,304, 54) and (2,250, 67).
        rng = np.random.default_rng(409)
        for n, expected in ((20, (368, 33)), (40, (1198, 64))):
            system, _ = nonneg_system(rng, n, diag_boost=0.0)
            outcome = solve_nonneg(system, SolveConfig(epsilon0=3e-3))
            assert outcome.status == CONVERGED
            assert (outcome.iterations, outcome.diagnostics["phase1_iterations"]) == expected

    def test_half_the_steps_at_n_600(self):
        # A column-normalised Gaussian system with a positive solution, as
        # the nonneg_phases benchmark draws its n = 600 one: 2,292 steps,
        # 1,155 of them in Phase 1, where the Triangle step alone took 5,269
        # and 1,834. Bounded rather than pinned: at this size the count can
        # move with the BLAS build's rounding.
        rng = np.random.default_rng([0, 2, 1])
        a = rng.normal(size=(600, 600))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        x = rng.uniform(0.5, 1.5, 600)
        system = LinearSystem(a, a @ (x / x.sum()))
        outcome = solve_nonneg(system, SolveConfig(epsilon0=0.005))
        assert outcome.status == CONVERGED
        assert outcome.iterations <= 5269 // 2
        assert outcome.diagnostics["phase1_iterations"] < 1834
        assert np.linalg.norm(a @ outcome.x - system.b) <= 0.005 * system.rho
        assert (outcome.x >= 0.0).all()

    @pytest.mark.parametrize("n", [10, 25, 50])
    def test_infeasible_systems_end_with_a_direct_witness(self, n):
        for seed in range(4):
            rng = np.random.default_rng([613, n, seed])
            system, _ = invertible_system(rng, n)
            outcome = solve_nonneg(system, SolveConfig(epsilon0=1e-3))
            assert outcome.status == INFEASIBLE_NONNEG
            points = np.hstack([system.a, -system.b[:, None]])
            margins = reference_margins(
                HullInstance(points, np.zeros(n)), outcome.witness.iterate.point
            )
            assert np.array_equal(outcome.witness.margins, margins)
            assert (margins < 0.0).all()

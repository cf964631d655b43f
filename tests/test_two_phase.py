"""Two-phase solver: epsilon selection, recovery, end-to-end guarantees."""

import math
import time

import numpy as np
import pytest

from helpers import (
    centroid_coeffs,
    example1_system,
    example2_system,
    given_arrays,
    given_units,
    invertible_system,
    nonneg_system,
    reference_hull_target,
    reference_margins,
)
from hullsolve import (
    CAP_EXCEEDED,
    CONVERGED,
    INFEASIBLE_NONNEG,
    HullInstance,
    LinearSystem,
    SingularMatrixError,
    SolveConfig,
    solve_incremental,
    solve_nonneg,
)
from hullsolve import two_phase
from hullsolve.hull import make_iterate
from hullsolve.system import AlphaBVanishes, recover_solution
from hullsolve.two_phase import (
    _phase1_outcome,
    select_inner_epsilon,
    sensitivity_epsilon_prime,
)
from oracles import min_norm_point


class TestLinearSystem:
    def test_scale_and_shift_direction(self):
        # Example 2's largest |entry| is 3, so it is stored times 2^-2, its
        # largest stored entry in [1/2, 1).
        system = example2_system()
        assert system.exponent == -2
        assert np.array_equal(system.a, [[0.5, -0.25], [0.25, 0.25]])
        assert np.array_equal(system.b, [0.0, -0.75])
        assert given_units(system, system.rho) == 3.0  # max(sqrt5, sqrt2, ||b||=3)
        assert system.rho >= system.norm_b
        assert np.array_equal(system.u, system.a @ np.ones(2))

    def test_zero_column_rejected(self):
        from hullsolve import SingularMatrixError

        with pytest.raises(SingularMatrixError):
            LinearSystem(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0]))

    def test_underflowing_columns_rejected_as_out_of_scale(self):
        # Example 2 with its second column 2^-600 below the first: no
        # column is zero, but that column's squared norm underflows to 0
        # at any scale that keeps the largest entry a double.
        a, b = given_arrays(example2_system())
        a[:, 1] = np.ldexp(a[:, 1], -600)
        with pytest.raises(ValueError) as caught:
            LinearSystem(a, b)
        assert str(caught.value) == (
            "matrix too small: a squared norm underflows to 0; rescale the input"
        )

    @staticmethod
    def _same_solve(solve, a, b, exponent):
        """solve on A and b times 2^exponent reaches what it reaches on A
        and b: status, steps, bytes of x, shift, and the residual times
        2^exponent."""
        config = SolveConfig(epsilon0=1e-8)
        plain = solve(LinearSystem(a, b), config)
        scaled = solve(LinearSystem(np.ldexp(a, exponent), np.ldexp(b, exponent)), config)
        assert plain.status == CONVERGED
        assert (scaled.status, scaled.iterations, scaled.shift_t, scaled.x.tobytes()) == (
            plain.status, plain.iterations, plain.shift_t, plain.x.tobytes()
        )
        assert scaled.residual_norm == math.ldexp(plain.residual_norm, exponent)

    def test_overflowing_rhs_solves_as_unscaled(self):
        # ||b||^2 of Example 2 at 2^511 overflows a double, as ||b||^2 and
        # rho did before b was stored scaled; it now solves as Example 2.
        self._same_solve(solve_incremental, *given_arrays(example2_system()), 511)

    def test_overflowing_columns_solve_as_unscaled(self):
        # A column of Example 1 at 2^511 has a squared norm past double
        # range; the system now solves as Example 1.
        self._same_solve(solve_nonneg, *given_arrays(example1_system()), 511)

    @pytest.mark.parametrize("epsilon0", [1e-13, 1e-12])
    @pytest.mark.parametrize("solve", [solve_nonneg, solve_incremental])
    def test_tiny_scale_residual_does_not_underflow(self, solve, epsilon0):
        # At scale 1e-150 the squares of a residual near 1e-163 underflow:
        # a plain norm read 0 there, and both solvers stopped converged at
        # a true relative residual of 4.6e-13 > 1e-13. The system is stored
        # times a power of two that puts its largest entry in [1/2, 1),
        # where no square underflows and the scaling is exact.
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6)) * 1e-150
        b = a @ rng.uniform(0.5, 1.5, 6)
        config = SolveConfig(epsilon0=epsilon0, max_iterations=50_000)
        outcome = solve(LinearSystem(a, b), config)
        assert outcome.status == CONVERGED
        a, b = np.ldexp(a, 500), np.ldexp(b, 500)
        rho = max(np.sqrt(np.einsum("ij,ij->j", a, a)).max(), np.linalg.norm(b))
        residual = np.linalg.norm(a @ outcome.x - b)
        assert residual <= epsilon0 * rho
        assert np.ldexp(outcome.residual_norm, 500) == pytest.approx(residual, rel=1e-12)

    @pytest.mark.parametrize("exponent", [-520, -530, -535])
    def test_tiny_scale_norms_do_not_underflow(self, exponent):
        # Below 2^-511 the squares of the entries go subnormal: norms
        # formed from them were off by up to 3.3e-3 (a column at 2^-535)
        # and rho by 3.3e-4. Scaling by a power of two is exact, so the
        # system is stored as the unscaled one is, bit for bit, and its
        # norms in the units of A and b are the unscaled ones, scaled.
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6))
        b = a @ rng.normal(size=6)
        unscaled = LinearSystem(a, b)
        system = LinearSystem(np.ldexp(a, exponent), np.ldexp(b, exponent))
        assert system.exponent == unscaled.exponent - exponent
        assert system.a.tobytes() == unscaled.a.tobytes()
        assert system.b.tobytes() == unscaled.b.tobytes()
        for tiny, plain in ((system.rho, unscaled.rho), (system.norm_b, unscaled.norm_b)):
            assert tiny == plain
            assert given_units(system, tiny) == np.ldexp(given_units(unscaled, plain), exponent)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearSystem(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            LinearSystem(np.eye(2), np.ones(3))


class TestSelectInnerEpsilon:
    # delta0' is given in stored units, as the solver forms it.
    def test_symmetric_case(self):
        system = LinearSystem(np.eye(2), np.array([1.0, 0.0]))
        assert given_units(system, system.rho) == 1.0
        assert given_units(system, system.norm_b) == 1.0
        delta0_prime = np.ldexp(1.0, system.exponent)
        eps = select_inner_epsilon(1.0, delta0_prime=delta0_prime, system=system)
        assert eps == pytest.approx(0.25, abs=1e-15)

    def test_mixed_case(self):
        system = LinearSystem(
            np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([0.0, 2.0])
        )
        assert given_units(system, system.rho) == 2.0
        assert given_units(system, system.norm_b) == 2.0
        delta0_prime = np.ldexp(1.0, system.exponent)
        eps = select_inner_epsilon(0.1, delta0_prime=delta0_prime, system=system)
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
    outcome = _phase1_outcome(system, config)
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
        p_prime = system.a @ witness.iterate.coeffs
        half_sq = 0.5 * float(p_prime @ p_prime)
        for col in system.a.T:
            assert float(p_prime @ col) > half_sq

    def test_collinear_columns_contain_origin(self):
        system = LinearSystem(
            np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([1.0, 0.0])
        )
        with pytest.raises(SingularMatrixError):
            solve_nonneg(system, SolveConfig(epsilon0=1e-4))

    def test_bracket_against_exact_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            system, _ = nonneg_system(rng, 3)
            _, delta0p = _phase1_witness(system, SolveConfig(epsilon0=1e-6))
            delta0, _ = min_norm_point(system.a, np.zeros(3))
            assert delta0p <= delta0 * (1 + 1e-6) + 1e-9
            assert delta0 <= 2.0 * delta0p * (1 + 1e-6) + 1e-9


class TestSolveNonneg:
    def test_example1_exact_in_one_step(self):
        config = SolveConfig(epsilon0=1e-10, init_coeffs=centroid_coeffs(3))
        outcome = solve_nonneg(example1_system(), config)
        assert outcome.status == CONVERGED
        assert np.allclose(outcome.x, [1.0, 2.0], atol=1e-12)
        assert outcome.residual_norm <= 1e-12
        assert outcome.iterations == 1

    def test_random_systems_converge_within_cap(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            system, _ = nonneg_system(rng, 20)
            config = SolveConfig(epsilon0=0.01)
            outcome = solve_nonneg(system, config, phase1=True)
            assert outcome.status == CONVERGED
            assert outcome.relative_residual <= 0.01
            # Phase 2 within the paper's bound (48 / eps0^2) (rho / delta0')^2.
            ratio = given_units(system, system.rho) / outcome.phase1_delta0_prime
            phase2 = outcome.iterations - outcome.diagnostics["phase1_iterations"]
            assert phase2 <= math.ceil((48.0 / 0.01**2) * ratio**2)
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
        p_prime = points @ witness.iterate.coeffs
        for i in range(points.shape[1]):
            assert np.linalg.norm(p_prime - points[:, i]) < np.linalg.norm(
                points[:, i]
            )

    def test_sensitivity_guarantee_at_hull_target(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            system, _ = nonneg_system(rng, 5)
            run = reference_hull_target(system, 0.25)
            delta0p = run["delta0_prime"]
            eps = run["inner_epsilon"]
            eps_prime = sensitivity_epsilon_prime(eps, delta0p, system.norm_b)
            assert run["residual_norm"] <= eps_prime * system.rho
            assert (run["x"] >= 0.0).all()
            outcome = solve_nonneg(system, SolveConfig(epsilon0=0.25), phase1=True)
            assert (outcome.phase1_delta0_prime, outcome.inner_epsilon) == (
                given_units(system, delta0p), eps
            )

    def test_phase1_cost_below_phase2_cap(self):
        rng = np.random.default_rng(10)
        for n in (5, 20):
            system, _ = nonneg_system(rng, n)
            config = SolveConfig(epsilon0=0.1)
            outcome1 = _phase1_outcome(system, config)
            delta0p = 0.5 * outcome1.iterate.gap
            cap = math.ceil((48.0 / 0.1**2) * (system.rho / delta0p) ** 2)
            assert outcome1.iterations <= cap

    def test_phase1_cap_ends_the_solve(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(20, 20))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        system = LinearSystem(a, a @ rng.uniform(0.5, 1.5, 20))
        config = SolveConfig(epsilon0=0.01, max_iterations=2, record_trace=True)
        outcome = solve_nonneg(system, config, phase1=True)
        assert outcome.status == CAP_EXCEEDED
        assert outcome.iterations == 2
        # Phase 1's step rows, with no alpha_b.
        assert [(r.iteration, r.alpha_b) for r in outcome.trace] == [(1, None), (2, None)]
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
        outcome = solve_nonneg(system, config)
        assert (outcome.status, outcome.iterations) == (CAP_EXCEEDED, 3)
        # The gap of the iterate the cap stopped, as its step row holds it.
        assert outcome.trace[-1].iteration == 3
        assert outcome.diagnostics["last_gap"] == outcome.trace[-1].value > 0.0

    @pytest.mark.parametrize(
        "solve, kwargs",
        [
            pytest.param(solve_nonneg, {"phase1": True}, id="solve_nonneg-phase1"),
            pytest.param(solve_nonneg, {}, id="solve_nonneg-skip"),
            pytest.param(solve_incremental, {}, id="solve_incremental-None"),
        ],
    )
    def test_given_coeffs_span_the_n_plus_one_points(self, solve, kwargs):
        # Phase 2 and the incremental solve start over the columns and -b,
        # with or without Phase 1 first.
        system, _ = nonneg_system(np.random.default_rng(3), 20, diag_boost=0.0)

        def given(n):
            return SolveConfig(epsilon0=0.01, init_coeffs=centroid_coeffs(n))

        assert solve(system, given(21), **kwargs).status == CONVERGED
        with pytest.raises(ValueError, match="length must match the point count"):
            solve(system, given(20), **kwargs)

    def test_skip_without_eigenvalue_bound(self):
        # A singular matrix gives no delta0' and no epsilon'.
        system = LinearSystem(np.ones((2, 2)), np.ones(2))
        outcome = solve_nonneg(system, SolveConfig(epsilon0=0.01))
        assert outcome.status == CONVERGED
        assert outcome.diagnostics["delta0_source"] == "unavailable"
        assert outcome.diagnostics["guarantee"] == "direct residual check only"
        assert "epsilon_prime" not in outcome.diagnostics
        assert outcome.inner_epsilon is None and outcome.phase1_delta0_prime is None

    @pytest.mark.parametrize(
        "settings, old_message",
        [
            ({"delta0_policy": "bogus"}, "unknown delta0 policy 'bogus'"),
            ({"delta0_policy": "user"}, "requires a finite positive delta0_user"),
            ({"delta0_policy": "user", "delta0_user": np.nan}, "finite positive"),
            ({"delta0_policy": "user", "delta0_user": -1.0}, "finite positive"),
            ({"residual_first": False}, "delta0_policy 'phase1' or 'user'"),
        ],
    )
    def test_delta0_settings_checked_before_phase1(self, monkeypatch, settings, old_message):
        # The settings once refused with old_message are keywords no longer
        # taken: phase1 is the one left, delta0' is only reported and the
        # exact residual decides every stop. Each is still refused before
        # any step.
        def started(*args, **kwargs):
            raise AssertionError("the solve started")

        monkeypatch.setattr(two_phase, "run_hull", started)
        monkeypatch.setattr(two_phase, "apply_step", started)
        keyword = next(iter(settings))
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            solve_nonneg(example1_system(), SolveConfig(), **settings)


class TestPairwiseSteps:
    """Both phases take the better of the Triangle step and a pairwise
    transfer of weight; the exact residual and direct witness margins
    still decide every outcome."""

    def test_step_counts(self):
        # Phase 2 alone; with Phase 1 first the solves take 197 and 710
        # steps, 33 and 64 of them in Phase 1, and the Triangle step alone
        # takes 805 and 5,063. n = 40 took 656 steps when the iterate kept
        # its point: at step 462 the products of the active points 40 and
        # 29 lie 2.8e-13 apart (relative to |v_k^T p'| + ||p'||^2), inside
        # TIE, so the pairwise step's k is 29, whose transfer loses to the
        # Triangle step, where the point kernel transferred from 40.
        rng = np.random.default_rng(409)
        for n, expected in ((20, 164), (40, 646)):
            system, _ = nonneg_system(rng, n, diag_boost=0.0)
            outcome = solve_nonneg(system, SolveConfig(epsilon0=3e-3))
            assert outcome.status == CONVERGED
            assert (outcome.iterations, outcome.diagnostics["phase1_iterations"]) == (expected, 0)

    def test_half_the_steps_at_n_600(self):
        # A column-normalised Gaussian system with a positive solution, as
        # the nonneg_phases benchmark draws its n = 600 one: 903 steps, all in
        # Phase 2, where Phase 1 first makes it 2,058 and the Triangle step
        # alone 5,702. Bounded rather than pinned: at this size the count can
        # move with the BLAS build's rounding.
        rng = np.random.default_rng([0, 2, 1])
        a = rng.normal(size=(600, 600))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        x = rng.uniform(0.5, 1.5, 600)
        b = a @ (x / x.sum())
        system = LinearSystem(a, b)
        outcome = solve_nonneg(system, SolveConfig(epsilon0=0.005))
        assert outcome.status == CONVERGED
        assert outcome.iterations <= 2058 // 2
        assert outcome.diagnostics["phase1_iterations"] == 0
        assert np.linalg.norm(a @ outcome.x - b) <= 0.005 * given_units(system, system.rho)
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
                HullInstance(points, np.zeros(n)), points @ outcome.witness.iterate.coeffs
            )
            assert np.array_equal(outcome.witness.margins, given_units(system, margins, 2))
            assert (margins < 0.0).all()


class TestPhase2First:
    """The default solve runs Phase 2 alone. Phase 1 first, the paper's
    path, changes neither its steps nor its answer."""

    @pytest.mark.parametrize("epsilon0", [0.05, 0.01, 0.002])
    def test_same_answer_as_phase1_first(self, epsilon0):
        config = SolveConfig(epsilon0=epsilon0)
        for n in (5, 20, 60, 200):
            for seed in range(2):
                feasible, _ = nonneg_system(
                    np.random.default_rng([613, n, seed]), n, diag_boost=1.5 * (seed == 0)
                )
                infeasible, _ = invertible_system(np.random.default_rng([613, n, seed]), n)
                for system in (feasible, infeasible):
                    ours = solve_nonneg(system, config)
                    paper = solve_nonneg(system, config, phase1=True)
                    assert ours.status == paper.status
                    assert ours.status in (CONVERGED, INFEASIBLE_NONNEG)
                    if ours.x is not None:
                        assert ours.x.tobytes() == paper.x.tobytes()
                    else:
                        assert ours.witness.margins.tobytes() == paper.witness.margins.tobytes()
                    # Phase 1 runs by default only when Phase 2 loses -b near
                    # the origin, as on some infeasible systems at 0.05.
                    phase1 = paper.diagnostics["phase1_iterations"]
                    assert ours.diagnostics["phase1_iterations"] in (0, phase1)
                    assert (
                        ours.iterations - ours.diagnostics["phase1_iterations"]
                        == paper.iterations - phase1
                    )

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[1.0, -1.0], [1.0, -1.0]], [1.0, 0.0]),
            ([[1.0, -1.0], [1.0, -1.0]], [1.0, 1.0]),
            ([[1.0, -1.0], [0.0, 0.0]], [1.0, 0.0]),
        ],
    )
    def test_singular_systems_raise_at_once(self, a, b):
        # The origin lies in the column hull. Phase 2 loses its weight on -b
        # (after 101 steps, 1 and 1); without Phase 1 the solves would run
        # to the cap.
        system = LinearSystem(np.array(a), np.array(b))
        started = time.perf_counter()
        with pytest.raises(SingularMatrixError, match="the matrix is singular"):
            solve_nonneg(system, SolveConfig(epsilon0=0.01))
        assert time.perf_counter() - started < 1.0

    def test_phase1_rows_follow_the_stalled_step(self):
        # The columns pass 3e-5 from the origin. Phase 2's first step
        # leaves no weight on -b, Phase 1 finds a witness in one step, and
        # Phase 2 goes on to converge, as it does after Phase 1 first.
        system = LinearSystem(np.array([[1e-5, 4e-5], [-1.5, 0.75]]), np.array([1.0, 0.0]))
        config = SolveConfig(epsilon0=0.05, record_trace=True)
        ours = solve_nonneg(system, config)
        paper = solve_nonneg(system, config, phase1=True)
        assert ours.status == paper.status == CONVERGED
        assert ours.x.tobytes() == paper.x.tobytes()
        assert ours.diagnostics["phase1_iterations"] == 1
        assert ours.iterations == paper.iterations == 3
        rows = [(r.iteration, r.alpha_b is None, r.pivot is None) for r in ours.trace]
        assert rows == [(1, False, False), (2, True, False), (3, False, False), (3, False, True)]

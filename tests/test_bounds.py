"""A-priori bounds: eigenvalue distance bound and shift upper bounds."""

import math

import numpy as np
import pytest

from helpers import example1_system, example2_system, invertible_system
from hullsolve import (
    LinearSystem,
    bounds,
    analyze_system,
    delta0_lower_bound,
    tau_star_bounds,
)
from hullsolve.oracles import delta_brute, linear_system_oracle


class TestDelta0LowerBound:
    def test_identity(self):
        system = LinearSystem(np.eye(2), np.array([1.0, 1.0]))
        assert delta0_lower_bound(system) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-9
        )

    def test_diagonal_below_segment_distance(self):
        system = LinearSystem(np.diag([1.0, 3.0]), np.array([1.0, 1.0]))
        bound = delta0_lower_bound(system)
        assert bound == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)
        exact = 3.0 / math.sqrt(10.0)  # origin to segment (1,0)-(0,3)
        assert bound <= exact

    def test_example1_below_brute_force(self):
        system = example1_system()
        bound = delta0_lower_bound(system)
        delta0 = delta_brute(system.a, np.zeros(2), grid_k=400)
        assert 0.0 < bound <= delta0 * (1 + 1e-6)

    def test_scaled_identity_uses_provable_form(self):
        # For c I the stated lambda_min / sqrt(n) form would give c^2/sqrt(2),
        # exceeding the true distance c/sqrt(2) once c > 1; the safe bound
        # must stay below the truth.
        system = LinearSystem(5.0 * np.eye(2), np.array([1.0, 1.0]))
        analysis = analyze_system(system)
        truth = 5.0 / math.sqrt(2.0)
        assert analysis.delta0_lower <= truth * (1 + 1e-9)
        assert analysis.bound_discrepancy
        assert analysis.delta0_lower_stated == pytest.approx(
            25.0 / math.sqrt(2.0), rel=1e-9
        )

    def test_min_eigenvector_orthogonal_to_ones(self):
        # Q = [[2,1],[1,2]] has lambda_min = 1 with eigenvector (1,-1),
        # orthogonal to the all-ones seed; the second probe must find it.
        q = np.array([[2.0, 1.0], [1.0, 2.0]])
        a = np.linalg.cholesky(q).T
        system = LinearSystem(a, np.array([1.0, 0.0]))
        analysis = analyze_system(system)
        assert analysis.lambda_min == pytest.approx(1.0, rel=1e-8)

    def test_near_singular_flags_zero(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        system = LinearSystem(a, np.array([1.0, 1.0]))
        analysis = analyze_system(system)
        assert analysis.near_singular
        assert analysis.delta0_lower == 0.0


class TestTauStarBounds:
    def test_identity_sqrt2(self):
        system = LinearSystem(np.eye(2), np.array([1.0, 1.0]))
        log_prime, log_star, flags = tau_star_bounds(system)
        assert math.exp(log_prime) == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert math.exp(log_star) == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert not flags["near_singular"]

    def test_example2_dominates_t_star(self):
        system = example2_system()
        log_prime, log_star, _ = tau_star_bounds(system)
        tau_prime = math.exp(log_prime)
        # tau'_* = 2 sqrt(13) / 3 for this system; the solution floor is -2.
        assert tau_prime == pytest.approx(2.0 * math.sqrt(13.0) / 3.0, rel=1e-9)
        assert -tau_prime <= -2.0
        assert log_star >= log_prime - 1e-9

    def test_chain_on_random_systems(self):
        rng = np.random.default_rng(61)
        for n in (3, 8):
            for _ in range(20):
                system, _ = invertible_system(rng, n)
                t_star = linear_system_oracle(system).t_star
                log_prime, log_star, flags = tau_star_bounds(system)
                assert not flags["near_singular"]
                slack = 1e-9 * max(1.0, abs(log_star), abs(log_prime))
                assert log_star >= log_prime - slack
                if t_star > 0.0:
                    assert log_prime >= math.log(t_star) - slack

    def test_log_linear_agreement(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            system, _ = invertible_system(rng, 4)
            analysis = analyze_system(system)
            if analysis.tau_star_prime is not None:
                assert math.log(analysis.tau_star_prime) == pytest.approx(
                    analysis.log_tau_star_prime, rel=1e-9, abs=1e-9
                )
            if analysis.tau_star is not None:
                assert math.log(analysis.tau_star) == pytest.approx(
                    analysis.log_tau_star, rel=1e-9, abs=1e-9
                )

    def test_log_space_survives_norm_product_overflow(self):
        # The raw product of the 40 column norms of Q overflows a double;
        # the log-space bounds must stay finite anyway.
        rng = np.random.default_rng(71)
        n = 40
        a = rng.normal(size=(n, n)) * 1e9 + 1e10 * np.eye(n)
        system = LinearSystem(a, rng.normal(size=n) * 1e9)
        analysis = analyze_system(system)
        assert float(np.log(analysis.q_norms).sum()) > 709.0
        assert math.isfinite(analysis.log_tau_star)
        assert math.isfinite(analysis.log_tau_star_prime)

    def test_unrepresentable_bound_flagged(self):
        # One tiny singular direction sends lambda_min^(-n) past double
        # range: tau_* is only reportable in log space while tau'_* stays
        # materializable.
        n = 40
        a = np.diag([1e-5] + [10.0] * (n - 1))
        system = LinearSystem(a, np.ones(n))
        log_prime, log_star, flags = tau_star_bounds(system)
        assert not flags["near_singular"]
        assert log_star > 700.0 and flags["tau_star_overflow"]
        assert math.isfinite(log_prime) and not flags["tau_star_prime_overflow"]


class TestAnalysisInvariants:
    def test_det_dominates_lambda_min_power(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            system, _ = invertible_system(rng, 5)
            analysis = analyze_system(system)
            assert analysis.log_det_q >= 5.0 * math.log(
                analysis.lambda_min
            ) - 1e-6 * max(1.0, abs(analysis.log_det_q))

    def test_lambda_bounds_order(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            system, _ = invertible_system(rng, 6)
            analysis = analyze_system(system)
            assert 0.0 < analysis.lambda_min <= analysis.lambda_max * (1 + 1e-9)
            reference = np.linalg.eigvalsh(system.a.T @ system.a)
            assert analysis.lambda_min == pytest.approx(reference[0], rel=1e-6)
            # lambda_max only gates the near-singularity ratio; the capped
            # power iteration approaches it from below.
            assert reference[-1] * 0.9 <= analysis.lambda_max <= reference[-1] * (
                1 + 1e-9
            )


class TestSpectralIterations:
    @pytest.mark.parametrize(
        "a",
        [[[1.0, -1.0], [1.0, -1.0]], [[1.0, -1.0, -1.0, 1.0]] * 4],
        ids=["ones_in_null_space", "ones_and_ramp_in_null_space"],
    )
    def test_power_iteration_restarts_off_the_null_space(self, a):
        a = np.array(a)
        analysis = analyze_system(LinearSystem(a, np.arange(1.0, a.shape[0] + 1.0)))
        expected = np.linalg.eigvalsh(a.T @ a)[-1]
        assert analysis.lambda_max == pytest.approx(expected, rel=1e-12)
        assert analysis.near_singular

    def test_inverse_iteration_stops_at_rounding(self, monkeypatch):
        # lambda_min = 1e-10 with 1.69e-10 next to it: the relative stop test
        # alone sits below the Rayleigh quotient's rounding and ran to its cap.
        rng = np.random.default_rng(7)
        n = 100
        u = np.linalg.qr(rng.normal(size=(n, n)))[0]
        v = np.linalg.qr(rng.normal(size=(n, n)))[0]
        s = np.linspace(1.0, 2.0, n)
        s[-1], s[-2] = 1e-5, 1.3e-5
        a = u @ np.diag(s) @ v.T
        calls = []
        cho_solve = bounds.cho_solve

        def counting(*args, **kwargs):
            calls.append(None)
            return cho_solve(*args, **kwargs)

        monkeypatch.setattr(bounds, "cho_solve", counting)
        analysis = analyze_system(LinearSystem(a, a @ np.ones(n)))
        assert len(calls) <= 100  # the cap is 10 n per seed, 2,000 in all
        expected = np.linalg.eigvalsh(a.T @ a)[0]
        assert analysis.lambda_min == pytest.approx(expected, rel=1e-3)

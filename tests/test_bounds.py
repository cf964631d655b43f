"""A-priori bounds: eigenvalue distance bound and shift upper bounds."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hullsolve
from helpers import (
    example1_system,
    example2_system,
    given_arrays,
    given_units,
    invertible_system,
)
from hullsolve import LinearSystem, SolveConfig, analyze_system
from hullsolve.two_phase import _phase1_outcome
from oracles import min_norm_point, solve_exact


class TestDelta0LowerBound:
    def test_identity(self):
        system = LinearSystem(np.eye(2), np.array([1.0, 1.0]))
        assert analyze_system(system).delta0_lower == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-9
        )

    def test_diagonal_below_segment_distance(self):
        system = LinearSystem(np.diag([1.0, 3.0]), np.array([1.0, 1.0]))
        bound = analyze_system(system).delta0_lower
        assert bound == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)
        exact = 3.0 / math.sqrt(10.0)  # origin to segment (1,0)-(0,3)
        assert bound <= exact

    def test_example1_below_exact_distance(self):
        system = example1_system()
        bound = analyze_system(system).delta0_lower
        delta0, _ = min_norm_point(given_arrays(system)[0], np.zeros(2))
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

    def test_lambda_min_one_within_rounding_not_flagged(self):
        # A is symmetric with eigenvalues 1, 2 and 4, so lambda_min(A^T A)
        # is exactly 1, which rounding computes a few ulps above 1.
        a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        analysis = analyze_system(LinearSystem(a, np.ones(3)))
        assert analysis.lambda_min == pytest.approx(1.0, rel=1e-12)
        assert not analysis.bound_discrepancy

    @pytest.mark.parametrize("k", [-500, 0, 500])
    def test_scales_with_the_matrix(self, k):
        # sqrt(lambda_min / n) is linear in the scale of A, as the hull
        # distance it bounds is. Example 1: Q = [[13, -4], [-4, 5]],
        # lambda_min = 9 - 4 sqrt(2), rho = ||b|| = sqrt(17).
        a, b = given_arrays(example1_system())
        system = LinearSystem(np.ldexp(a, k), np.ldexp(b, k))
        expected = math.sqrt((9.0 - 4.0 * math.sqrt(2.0)) / 2.0) / math.sqrt(17.0)
        ratio = analyze_system(system).delta0_lower / given_units(system, system.rho)
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_below_phase1_witness_gap(self):
        # A witness gap bounds the hull distance from above, so it bounds
        # delta0_lower too.
        rng = np.random.default_rng(1)
        for n in (5, 20, 50):
            a = rng.normal(size=(n, n))
            system = LinearSystem(a / np.sqrt(np.einsum("ij,ij->j", a, a)), np.ones(n))
            outcome = _phase1_outcome(system, SolveConfig(epsilon0=1e-3))
            assert outcome.witness is not None
            gap = given_units(system, outcome.iterate.gap)
            assert 0.0 < analyze_system(system).delta0_lower <= gap

    def test_min_eigenvector_orthogonal_to_ones(self):
        # Q = [[2,1],[1,2]] has lambda_min = 1 with eigenvector (1,-1),
        # orthogonal to the all-ones vector.
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
        analysis = analyze_system(system)
        assert math.exp(analysis.log_tau_star_prime) == pytest.approx(
            math.sqrt(2.0), rel=1e-9
        )
        assert math.exp(analysis.log_tau_star) == pytest.approx(
            math.sqrt(2.0), rel=1e-9
        )
        assert not analysis.near_singular

    def test_zero_rhs(self):
        # x = 0 needs no shift: both bounds are 0 and their logarithms -inf.
        analysis = analyze_system(LinearSystem(np.eye(2), np.zeros(2)))
        assert analysis.tau_star == analysis.tau_star_prime == 0.0
        assert analysis.log_tau_star == analysis.log_tau_star_prime == -math.inf

    def test_example2_dominates_t_star(self):
        system = example2_system()
        analysis = analyze_system(system)
        log_prime, log_star = analysis.log_tau_star_prime, analysis.log_tau_star
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
                t_star = max(0.0, -float(solve_exact(system).min()))
                analysis = analyze_system(system)
                log_prime, log_star = analysis.log_tau_star_prime, analysis.log_tau_star
                assert not analysis.near_singular
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
        q = a.T @ a
        assert float(np.log(np.linalg.norm(q, axis=0)).sum()) > 709.0
        assert math.isfinite(analysis.log_tau_star)
        assert math.isfinite(analysis.log_tau_star_prime)

    def test_unrepresentable_bound_flagged(self):
        # One tiny singular direction sends lambda_min^(-n) past double
        # range: tau_* is only reportable in log space while tau'_* stays
        # materializable.
        n = 40
        a = np.diag([1e-5] + [10.0] * (n - 1))
        system = LinearSystem(a, np.ones(n))
        analysis = analyze_system(system)
        assert not analysis.near_singular
        assert analysis.log_tau_star > 700.0 and analysis.tau_star is None
        assert math.isfinite(analysis.log_tau_star_prime)
        assert analysis.tau_star_prime is not None


class TestExtremeScale:
    """Scaling A and b by 2^k scales Q and A^T b by 4^k exactly, and the
    shift bounds tau'_* and tau_* do not depend on the scale. Squares of
    entries of Q underflow at 2^-500 and overflow at 2^500."""

    @staticmethod
    def _systems():
        rng = np.random.default_rng(79)
        for n in (2, 6, 40):
            a = rng.normal(size=(n, n))
            yield a, rng.normal(size=n)
        yield np.array([[1.0, -1.0], [1.0, -1.0]]), np.array([1.0, 2.0])

    @pytest.mark.parametrize("k", [-500, 500])
    def test_log_bounds_scale_invariant(self, k):
        for a, b in self._systems():
            base = analyze_system(LinearSystem(a, b))
            scaled = analyze_system(LinearSystem(np.ldexp(a, k), np.ldexp(b, k)))
            assert scaled.near_singular == base.near_singular
            for name in ("log_tau_star_prime", "log_tau_star"):
                expected = getattr(base, name)
                got = getattr(scaled, name)
                if math.isfinite(expected):
                    assert abs(got - expected) <= 1e-12 * abs(expected), name
                else:
                    assert got == expected, name
            assert scaled.lambda_max == pytest.approx(
                math.ldexp(base.lambda_max, 2 * k), rel=1e-12
            )

    @pytest.mark.parametrize("k", [-500, 500])
    def test_cli_commands_run(self, tmp_path, k):
        from hullsolve.cli import main

        a, b = (np.ldexp(v, k) for v in given_arrays(example1_system()))
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        matrix.write_text("2 2\n%.17g %.17g\n%.17g %.17g\n" % tuple(a.ravel()))
        rhs.write_text("2 1\n%.17g\n%.17g\n" % tuple(b))
        files = ["--matrix", str(matrix), "--rhs", str(rhs)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", *files]) == 0
            assert main(["solve", *files]) == 0
            assert main(["solve", *files, "--mode", "nonneg", "--phase1"]) == 0
        assert caught == []

    def test_analyze_past_double_range_reads_inf(self, tmp_path):
        # Scaled by 2**1000, lambda and q leave double range and read inf
        # in the report; the log bounds and the verdict do not move.
        from hullsolve.cli import main

        system, _ = invertible_system(np.random.default_rng(2), 6)
        reports = []
        for k in (0, 1000):
            a, b = (np.ldexp(v, k) for v in given_arrays(system))
            matrix, rhs, report = (tmp_path / f"{name}{k}" for name in ("A", "b", "report"))
            np.savetxt(matrix, a, fmt="%.17g", header="6 6", comments="")
            np.savetxt(rhs, b, fmt="%.17g", header="6 1", comments="")
            files = ["--matrix", str(matrix), "--rhs", str(rhs), "--report", str(report)]
            assert main(["analyze", *files]) == 0
            reports.append(json.loads(report.read_text()))
        base, scaled = reports
        for name in ("lambda_min", "lambda_max", "q_min", "w_norm", "delta0_lower_stated"):
            assert math.isfinite(base[name]) and scaled[name] == math.inf, name
        for name in ("log_tau_star", "log_tau_star_prime", "tau_star", "tau_star_prime",
                     "near_singular"):
            assert scaled[name] == base[name], name


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
            a, _ = given_arrays(system)
            reference = np.linalg.eigvalsh(a.T @ a)
            assert analysis.lambda_min == pytest.approx(reference[0], rel=1e-6)
            assert analysis.lambda_max == pytest.approx(reference[-1], rel=1e-12)

    def test_lambda_max_of_normalised_gaussian(self):
        rng = np.random.default_rng(83)
        n = 200
        a = rng.normal(size=(n, n))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        analysis = analyze_system(LinearSystem(a, a @ np.ones(n)))
        expected = np.linalg.eigvalsh(a.T @ a)[-1]
        assert analysis.lambda_max == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 50, 400, 800])
    def test_gram_symmetric_bit_for_bit(self, n, seed):
        # analyze_system reads system.gram as it is, and
        # HullInstance.gram_column serves row j as column j: both rely on
        # numpy forming A^T A symmetric to the last bit.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        gram = LinearSystem(a, a @ np.ones(n)).gram
        assert np.array_equal(gram, gram.T)


class TestSpectralExtremes:
    @pytest.mark.parametrize(
        "a",
        [[[1.0, -1.0], [1.0, -1.0]], [[1.0, -1.0, -1.0, 1.0]] * 4],
        ids=["ones_in_null_space", "ones_and_ramp_in_null_space"],
    )
    def test_singular_lambda_max(self, a):
        a = np.array(a)
        analysis = analyze_system(LinearSystem(a, np.arange(1.0, a.shape[0] + 1.0)))
        expected = np.linalg.eigvalsh(a.T @ a)[-1]
        assert analysis.lambda_max == pytest.approx(expected, rel=1e-12)
        assert analysis.near_singular

    def test_tiny_lambda_min_to_rounding(self):
        # lambda_min = 1e-10 with 1.69e-10 next to it, against lambda_max 4.
        rng = np.random.default_rng(7)
        n = 100
        u = np.linalg.qr(rng.normal(size=(n, n)))[0]
        v = np.linalg.qr(rng.normal(size=(n, n)))[0]
        s = np.linspace(1.0, 2.0, n)
        s[-1], s[-2] = 1e-5, 1.3e-5
        a = u @ np.diag(s) @ v.T
        analysis = analyze_system(LinearSystem(a, a @ np.ones(n)))
        expected = np.linalg.eigvalsh(a.T @ a)
        assert abs(analysis.lambda_min - expected[0]) <= 1e-12 * expected[-1]
        assert not analysis.near_singular


def test_runs_without_scipy():
    # numpy is the only runtime dependency: importing the package and its
    # CLI, analysing a system and solving it must not touch scipy.
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import hullsolve, hullsolve.cli\n"
        "from hullsolve import CONVERGED, LinearSystem, SolveConfig\n"
        "system = LinearSystem(np.array([[2.0, -1.0], [1.0, 1.0]]), np.array([0.0, -3.0]))\n"
        "assert not hullsolve.analyze_system(system).near_singular\n"
        "outcome = hullsolve.solve_incremental(system, SolveConfig(epsilon0=1e-6))\n"
        "assert outcome.status == CONVERGED, outcome.status\n"
    )
    src = str(Path(hullsolve.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr

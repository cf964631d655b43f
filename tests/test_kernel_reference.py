"""The maintained-product kernel against margins recomputed from the points.

Every Triangle loop reads its pivot margins from products V^T p' that it
keeps up to date, instead of recomputing V^T (p - p') each step. These tests
check, on fixed seeds, that this changes no decision: the same status,
pivot sequence, iteration count and coefficients (or solution) bit for bit
as a loop that recomputes every margin from the points.
"""

import dataclasses

import numpy as np
import pytest

from helpers import (
    invertible_system,
    membership_instance,
    nonneg_system,
    outside_instance_2d,
    reference_find_pivot,
    reference_margins,
    reference_run_hull,
)
from hullsolve import (
    CONVERGED,
    IN_HULL_APPROX,
    INFEASIBLE_NONNEG,
    NOT_IN_HULL,
    HullConfig,
    HullInstance,
    LinearSystem,
    SolveConfig,
    apply_step,
    check_witness,
    find_pivot,
    make_iterate,
    run_hull,
    solve_incremental,
    solve_nonneg,
)
from hullsolve import hull, incremental, two_phase


def _with_reference_pivots(monkeypatch, solve, *args, **kwargs):
    """solve(*args) once as shipped and once with every pivot search
    recomputing its margins from the points."""
    shipped = solve(*args, **kwargs)
    with monkeypatch.context() as patch:
        for module in (hull, two_phase, incremental):
            patch.setattr(module, "find_pivot", reference_find_pivot)
        reference = solve(*args, **kwargs)
    return shipped, reference


def _assert_same_solve(shipped, reference):
    assert shipped.status == reference.status
    assert shipped.iterations == reference.iterations
    assert shipped.shift_t == reference.shift_t
    if reference.x is None:
        assert shipped.x is None
    else:
        assert np.array_equal(shipped.x, reference.x)
    assert [(r.iteration, r.t, r.pivot, r.witness) for r in shipped.trace] == [
        (r.iteration, r.t, r.pivot, r.witness) for r in reference.trace
    ]
    assert shipped.diagnostics == reference.diagnostics
    if reference.witness is None:
        assert shipped.witness is None
    else:
        assert np.array_equal(shipped.witness.margins, reference.witness.margins)


class TestRunHull:
    def _assert_same(self, instance, config):
        outcome = run_hull(instance, dataclasses.replace(config, record_trace=True))
        expected = reference_run_hull(instance, config)
        assert outcome.status == expected["status"]
        assert [r.pivot for r in outcome.trace] == expected["pivots"]
        assert outcome.iterations == expected["iterations"]
        assert np.array_equal(outcome.iterate.coeffs, expected["coeffs"])
        assert np.array_equal(outcome.iterate.point, expected["point"])
        assert outcome.iterate.gap == expected["gap"]
        assert outcome.certifying_vertex == expected["certifying_vertex"]
        if expected["witness_margins"] is None:
            assert outcome.witness is None
        else:
            assert np.array_equal(outcome.witness.margins, expected["witness_margins"])
        return outcome

    def test_membership_instances(self):
        rng = np.random.default_rng(401)
        for dim in (3, 6, 10):
            points, target = membership_instance(rng, dim)
            outcome = self._assert_same(HullInstance(points, target), HullConfig(epsilon=1e-3))
            assert outcome.status == IN_HULL_APPROX

    def test_outside_instances_witness(self):
        rng = np.random.default_rng(403)
        for _ in range(10):
            points, target, _ = outside_instance_2d(rng, n_points=12)
            outcome = self._assert_same(HullInstance(points, target), HullConfig(epsilon=1e-4))
            assert outcome.status == NOT_IN_HULL

    def test_column_hull_phase1(self):
        # Phase 1 of the nonnegative solver: columns against the origin.
        rng = np.random.default_rng(405)
        system, _ = nonneg_system(rng, 60)
        outcome = self._assert_same(
            HullInstance(system.a, np.zeros(60)), HullConfig(epsilon=1e-6)
        )
        assert outcome.status == NOT_IN_HULL

    def test_many_steps_and_cap(self):
        rng = np.random.default_rng(407)
        a = rng.normal(size=(40, 40))
        a /= np.linalg.norm(a, axis=0)
        target = a @ rng.dirichlet(np.ones(40))
        outcome = self._assert_same(
            HullInstance(a, target), HullConfig(epsilon=1e-6, max_iterations=3000)
        )
        assert outcome.iterations == 3000


class TestSolvers:
    def test_solve_nonneg(self, monkeypatch):
        rng = np.random.default_rng(409)
        for n in (20, 40):
            system, _ = nonneg_system(rng, n, diag_boost=0.0)
            # Pairwise steps reach 3e-3 in 368 and 1,198 steps; 5e-4 keeps
            # both runs long.
            config = SolveConfig(epsilon0=5e-4, record_trace=True)
            shipped, reference = _with_reference_pivots(
                monkeypatch, solve_nonneg, system, config
            )
            _assert_same_solve(shipped, reference)
            assert shipped.iterations > 2000

    def test_solve_nonneg_infeasible(self, monkeypatch):
        rng = np.random.default_rng(411)
        system, _ = invertible_system(rng, 25)
        shipped, reference = _with_reference_pivots(
            monkeypatch, solve_nonneg, system, SolveConfig(epsilon0=1e-3, record_trace=True)
        )
        _assert_same_solve(shipped, reference)
        assert shipped.status == INFEASIBLE_NONNEG

    def test_solve_incremental_many_shift_changes(self, monkeypatch):
        # The shift re-optimisation moves t on most steps of these runs.
        rng = np.random.default_rng(413)
        shift_changes = 0
        for n in (8, 20, 40):
            a = rng.normal(size=(n, n))
            a /= np.linalg.norm(a, axis=0)
            system = LinearSystem(a, a @ rng.normal(size=n))
            config = SolveConfig(epsilon0=0.05, record_trace=True)
            shipped, reference = _with_reference_pivots(
                monkeypatch, solve_incremental, system, config
            )
            _assert_same_solve(shipped, reference)
            ts = [r.t for r in shipped.trace]
            shift_changes += sum(1 for s, t in zip(ts, ts[1:]) if s != t)
        assert shift_changes >= 2000

    @pytest.mark.parametrize("policy", ["quantized", "double_plus_one"])
    def test_solve_incremental_escalations(self, monkeypatch, policy):
        # With the shift optimisation suppressed, witnesses raise the shift.
        rng = np.random.default_rng(423)
        escalations = 0
        for n in (4, 8):
            system, _ = invertible_system(rng, n)
            config = SolveConfig(epsilon0=1e-2, init_rule="centroid", record_trace=True)
            shipped, reference = _with_reference_pivots(
                monkeypatch, solve_incremental, system, config,
                policy=policy, tau_hook=lambda tau: 0.0,
            )
            _assert_same_solve(shipped, reference)
            escalations += shipped.diagnostics["escalations"]
        assert escalations >= 2


class TestCertificates:
    """Witness margins come from the points, never from the products."""

    def test_run_hull_witness_margins_are_direct(self):
        rng = np.random.default_rng(415)
        for _ in range(10):
            points, target, _ = outside_instance_2d(rng, n_points=9)
            instance = HullInstance(points, target)
            outcome = run_hull(instance, HullConfig(epsilon=1e-4))
            assert outcome.status == NOT_IN_HULL
            fresh = HullInstance(points.copy(), target.copy())
            expected = reference_margins(fresh, outcome.witness.iterate.point)
            assert np.array_equal(outcome.witness.margins, expected)

    def test_nonneg_witness_margins_are_direct(self):
        rng = np.random.default_rng(417)
        system, _ = invertible_system(rng, 15)
        outcome = solve_nonneg(system, SolveConfig(epsilon0=1e-4))
        assert outcome.status == INFEASIBLE_NONNEG
        points = np.hstack([system.a, -system.b[:, None]])
        expected = reference_margins(
            HullInstance(points, np.zeros(15)), outcome.witness.iterate.point
        )
        assert np.array_equal(outcome.witness.margins, expected)

    def test_witness_ignores_drifted_products(self):
        rng = np.random.default_rng(419)
        points, target, _ = outside_instance_2d(rng)
        instance = HullInstance(points, target)
        witness = run_hull(instance, HullConfig(epsilon=1e-4)).witness
        iterate = witness.iterate
        iterate.dot_cache = iterate.dot_cache + 1e-3
        assert np.array_equal(check_witness(instance, iterate).margins, witness.margins)

    def test_no_pivot_on_products_is_confirmed_directly(self):
        # Products that understate every margin must not yield a witness.
        rng = np.random.default_rng(421)
        points, target = membership_instance(rng, 6)
        instance = HullInstance(points, target)
        iterate = make_iterate(instance, rng.dirichlet(np.ones(6)))
        expected = reference_find_pivot(instance, iterate)
        assert expected is not None
        iterate.dot_cache = iterate.dot_cache + 1e6
        assert find_pivot(instance, iterate) == expected


class TestGatedResidual:
    """solve_nonneg computes ||A x0 - b|| only when gap / alpha_b nears the
    target or once every n steps; the stop step must be the one an exact
    check on every step finds."""

    @pytest.mark.parametrize(
        "n, eps0", [(40, 3e-3), (40, 2e-2), (200, 5e-3), (520, 5e-3), (520, 2e-2)]
    )
    def test_same_stop_as_every_step_check(self, monkeypatch, n, eps0):
        rng = np.random.default_rng([431, n])
        system, _ = nonneg_system(rng, n, diag_boost=0.0)
        config = SolveConfig(epsilon0=eps0)
        calls = []
        residual_norm = LinearSystem.residual_norm

        def counted(self, x):
            calls.append(x)
            return residual_norm(self, x)

        monkeypatch.setattr(LinearSystem, "residual_norm", counted)
        gated = solve_nonneg(system, config)
        gated_checks = len(calls)
        with monkeypatch.context() as patch:
            # An infinite margin lets the proxy pass on every step.
            patch.setattr(two_phase, "PROXY_MARGIN", np.inf)
            every_step = solve_nonneg(system, config)
        assert gated.status == every_step.status == CONVERGED
        assert gated.iterations == every_step.iterations
        assert gated.x.tobytes() == every_step.x.tobytes()
        assert gated.residual_norm == every_step.residual_norm
        phase2 = gated.iterations - gated.diagnostics["phase1_iterations"]
        # The Phase 1 witness puts no weight on -b, so the reference checks
        # from step 1 on; the gated run about once every n steps.
        assert len(calls) - gated_checks == phase2
        assert gated_checks <= phase2 // n + 3

    def test_backstop_converges_without_the_proxy(self, monkeypatch):
        rng = np.random.default_rng(433)
        n, eps0 = 30, 5e-3
        system, _ = nonneg_system(rng, n, diag_boost=0.0)
        proxied = solve_nonneg(system, SolveConfig(epsilon0=eps0))
        # A cap, so that a missing backstop fails instead of running on.
        config = SolveConfig(epsilon0=eps0, max_iterations=20 * proxied.iterations)

        def spoiled_step(instance, iterate, j, alpha, **kwargs):
            # A gap no estimate can pass: only the backstop checks remain.
            return dataclasses.replace(
                hull.apply_step(instance, iterate, j, alpha, **kwargs), gap=np.inf
            )

        monkeypatch.setattr(two_phase, "apply_step", spoiled_step)
        spoiled = solve_nonneg(system, config)
        assert spoiled.status == CONVERGED
        phase2 = spoiled.iterations - spoiled.diagnostics["phase1_iterations"]
        assert phase2 % n == 0
        assert spoiled.iterations >= proxied.iterations
        assert spoiled.residual_norm <= eps0 * system.rho
        assert system.residual_norm(spoiled.x) == spoiled.residual_norm


def test_step_coefficients_equal_clean_coeffs():
    # apply_step clamps and renormalises the mixed coefficients in place;
    # _clean_coeffs of the same update is the reference, bit for bit.
    rng = np.random.default_rng(435)
    n = 25
    points = rng.normal(size=(8, n))
    instance = HullInstance(points, points @ rng.dirichlet(np.ones(n)))
    iterate = make_iterate(instance, rng.dirichlet(np.ones(n)))
    clamped = 0
    for step in range(10_000):
        j = int(rng.integers(n))
        kind = step % 4
        if kind == 0:
            alpha = 10.0 ** rng.uniform(-6.0, 0.0)
        elif kind == 1:
            alpha = 1.0 - 10.0 ** rng.uniform(-16.0, -10.0)  # leaves dust
        elif kind == 2:
            alpha = 10.0 ** rng.uniform(-18.0, -12.0)
        else:
            alpha = 1.0 if step % 400 == 3 else float(rng.uniform())
        mixed = (1.0 - alpha) * iterate.coeffs
        mixed[j] += alpha
        expected = hull._clean_coeffs(mixed)
        clamped += int(((mixed > 0.0) & (mixed < hull.COEFF_DUST)).any())
        iterate = apply_step(instance, iterate, j, alpha)
        assert iterate.coeffs.tobytes() == expected.tobytes()
    assert clamped >= 100


def _column_normalised_system(rng, n, offset=0.0):
    """Column-normalised Gaussian A, solution Gaussian less offset."""
    a = rng.normal(size=(n, n))
    a /= np.sqrt(np.einsum("ij,ij->j", a, a))
    return LinearSystem(a, a @ (rng.normal(size=n) - offset))


def test_linear_time_shift_matches_direct_optimum():
    # solve_incremental moves the shift to tau0 = t0 + max(0, u^T p' /
    # (alpha_b ||u||^2)) and reads E(tau0) as the moved gap / alpha_b, both
    # O(n); optimize_shift_tau0 recomputes A x0 - b, O(n^2). Tolerance,
    # fixed in residual units: E within 1e-12 rho, and the two shifts
    # within 1e-12 rho / ||u||, so that their residual vectors differ by
    # at most 1e-12 rho.
    rng = np.random.default_rng(437)
    moved = clamped = 0
    for _ in range(300):
        n = int(rng.integers(5, 61))
        # Solutions offset by up to 10 put the best shift on both sides of t0.
        system = _column_normalised_system(rng, n, rng.uniform(0.0, 10.0))
        instance = incremental.shifted_instance(system, 0.0)
        alpha_b = rng.uniform(0.05, 1.0)
        coeffs = np.append((1.0 - alpha_b) * rng.dirichlet(np.ones(n)), alpha_b)
        iterate = make_iterate(instance, coeffs)
        t0 = rng.uniform(0.0, 10.0)
        iterate = incremental.move_shift(system, instance, iterate, 0.0, t0)
        for _ in range(int(rng.integers(0, 20))):
            j = int(rng.integers(n + 1))
            iterate = apply_step(instance, iterate, j, float(rng.uniform(0.0, 0.2)))
        u_norm = float(np.linalg.norm(system.u))
        x0 = iterate.coeffs[:-1] / iterate.coeffs[-1]
        expected_tau, expected_err = incremental.optimize_shift_tau0(system, x0, t0)
        tau0 = incremental._optimal_shift(system, iterate, t0, u_norm * u_norm)
        if tau0 != t0:
            iterate = incremental.move_shift(system, instance, iterate, t0, tau0)
            moved += 1
        else:
            clamped += 1
        tol = 1e-12 * system.rho
        assert abs(tau0 - expected_tau) * u_norm <= tol
        assert abs(iterate.gap / iterate.coeffs[-1] - expected_err) <= tol
    assert moved >= 50 and clamped >= 50


class TestGatedIncrementalResidual:
    """solve_incremental computes ||A x - b|| only when gap / alpha_b nears
    the target or once every n steps; the stop step must be the one an
    exact check on every pass finds."""

    @pytest.mark.parametrize("n, eps0", [(12, 1e-2), (30, 5e-2), (50, 5e-2)])
    def test_same_stop_as_every_pass_check(self, monkeypatch, n, eps0):
        rng = np.random.default_rng([439, n])
        system = _column_normalised_system(rng, n)
        config = SolveConfig(epsilon0=eps0)
        calls = []
        residual_norm = LinearSystem.residual_norm

        def counted(self, x):
            calls.append(x)
            return residual_norm(self, x)

        monkeypatch.setattr(LinearSystem, "residual_norm", counted)
        gated = solve_incremental(system, config)
        gated_checks = len(calls)
        with monkeypatch.context() as patch:
            # An infinite margin lets the estimate pass on every pass.
            patch.setattr(incremental, "PROXY_MARGIN", np.inf)
            every_pass = solve_incremental(system, config)
        assert gated.status == every_pass.status == CONVERGED
        assert gated.iterations == every_pass.iterations
        assert gated.shift_t == every_pass.shift_t
        assert gated.x.tobytes() == every_pass.x.tobytes()
        assert gated.residual_norm == every_pass.residual_norm
        assert len(calls) - gated_checks > gated.iterations
        assert gated_checks <= gated.iterations // n + 4

    def test_backstop_converges_without_the_estimate(self, monkeypatch):
        rng = np.random.default_rng(441)
        n, eps0 = 30, 5e-2
        system = _column_normalised_system(rng, n)
        estimated = solve_incremental(system, SolveConfig(epsilon0=eps0))
        # A cap, so that a missing backstop fails instead of running on.
        config = SolveConfig(epsilon0=eps0, max_iterations=20 * estimated.iterations)

        def spoiled(function):
            # A gap no estimate can pass: only the backstop checks remain.
            return lambda *args: dataclasses.replace(function(*args), gap=np.inf)

        monkeypatch.setattr(incremental, "apply_step", spoiled(hull.apply_step))
        monkeypatch.setattr(incremental, "move_shift", spoiled(incremental.move_shift))
        outcome = solve_incremental(system, config)
        assert outcome.status == CONVERGED
        assert outcome.iterations % n == 0
        assert outcome.iterations >= estimated.iterations
        assert outcome.residual_norm <= eps0 * system.rho
        assert system.residual_norm(outcome.x) == outcome.residual_norm


def test_converged_incremental_residuals_meet_the_target():
    # The 23 fixed systems of the general_shift benchmark workload (its
    # reference stream, numpy seed [0, 1, 1]): every converged outcome's
    # residual, recomputed in extended precision, is within epsilon0 * rho,
    # and the final shift is the best one from there on for its x0.
    rng = np.random.default_rng([0, 1, 1])
    eps0 = 0.05
    for _ in range(23):
        system = _column_normalised_system(rng, 50)
        outcome = solve_incremental(system, SolveConfig(epsilon0=eps0))
        assert outcome.status == CONVERGED
        a = system.a.astype(np.longdouble)
        r = a @ outcome.x.astype(np.longdouble) - system.b.astype(np.longdouble)
        assert np.sqrt(r @ r) <= eps0 * system.rho
        x0 = outcome.x + outcome.shift_t
        _, best = incremental.optimize_shift_tau0(system, x0, outcome.shift_t)
        assert outcome.residual_norm <= best + 1e-12 * system.rho


def test_escalation_cap_computed_only_on_escalation(monkeypatch):
    rng = np.random.default_rng(443)
    system = _column_normalised_system(rng, 20)

    def refuse(system):
        raise AssertionError("analyze_system ran in a solve without escalations")

    with monkeypatch.context() as patch:
        patch.setattr(incremental.bounds, "analyze_system", refuse)
        outcome = solve_incremental(system, SolveConfig(epsilon0=0.05))
    assert outcome.status == CONVERGED
    assert outcome.diagnostics["escalations"] == 0
    assert outcome.diagnostics["max_escalations"] is None
    # With the shift optimisation suppressed, witnesses raise the shift;
    # the cap is then the one the a-priori bound gives.
    system, _ = invertible_system(np.random.default_rng(445), 6)
    outcome = solve_incremental(
        system,
        SolveConfig(epsilon0=1e-2, init_rule="centroid"),
        tau_hook=lambda tau: 0.0,
    )
    assert outcome.diagnostics["escalations"] >= 1
    assert outcome.diagnostics["max_escalations"] == (
        incremental._default_escalation_cap(system)
    )

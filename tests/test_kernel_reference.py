"""The maintained-product kernel against margins recomputed from the points.

Every Triangle loop reads its pivot margins from products V^T p' that it
keeps up to date, instead of recomputing V^T (p - p') each step. These tests
check, on fixed seeds, that this changes no decision: the same status,
pivot sequence, iteration count and coefficients (or solution) bit for bit
as the same loop with every pivot search recomputing its margins from the
points. run_hull is also checked against a plain loop that keeps no
products at all: the same status, pivots, iterations and certifying vertex.
"""

import dataclasses
import functools
import math
import os
import sys

import numpy as np
import pytest

from helpers import (
    INCREMENTS,
    centroid_coeffs,
    check_witness,
    given_units,
    invertible_system,
    membership_instance,
    nearest_coeffs,
    nearest_half_coeffs,
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
    run_hull,
    solve_incremental,
    solve_nonneg,
)
from hullsolve import hull, incremental, two_phase
from hullsolve.hull import apply_step, find_pivot, make_iterate
from oracles import hull_verdict, min_norm_point


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
    def _assert_same(self, monkeypatch, instance, config):
        config = dataclasses.replace(config, record_trace=True)
        outcome = run_hull(instance, config)
        pivots = [r.pivot for r in outcome.trace]
        # The plain loop makes the same decisions. After an unclamped
        # transfer the margins of its two points tie, and both loops break
        # that tie to the lower index (find_pivot on the pair alone, the
        # plain loop on every point within TIE). Its arithmetic differs,
        # and where both steps are one move (a single active point)
        # rounding picks between them, so coefficients and margins agree
        # only to rounding.
        expected = reference_run_hull(instance, config)
        assert outcome.status == expected["status"]
        assert pivots == expected["pivots"]
        assert outcome.iterations == expected["iterations"]
        assert outcome.certifying_vertex == expected["certifying_vertex"]
        assert np.allclose(outcome.iterate.coeffs, expected["coeffs"], rtol=0.0, atol=1e-12)
        if expected["witness_margins"] is None:
            assert outcome.witness is None
        else:
            assert np.allclose(
                outcome.witness.margins, expected["witness_margins"], rtol=0.0, atol=1e-12
            )
        # The same steps with every pivot search recomputing its margins
        # from the points: bit for bit.
        with monkeypatch.context() as patch:
            patch.setattr(hull, "find_pivot", reference_find_pivot)
            reference = run_hull(instance, config)
        assert reference.status == outcome.status
        assert [r.pivot for r in reference.trace] == pivots
        assert np.array_equal(outcome.iterate.coeffs, reference.iterate.coeffs)
        assert np.array_equal(
            instance.points @ outcome.iterate.coeffs, instance.points @ reference.iterate.coeffs
        )
        assert outcome.iterate.gap == reference.iterate.gap
        assert outcome.certifying_vertex == reference.certifying_vertex
        if reference.witness is None:
            assert outcome.witness is None
        else:
            assert np.array_equal(outcome.witness.margins, reference.witness.margins)
        return outcome

    def test_membership_instances(self, monkeypatch):
        rng = np.random.default_rng(401)
        for dim in (3, 6, 10):
            points, target = membership_instance(rng, dim)
            outcome = self._assert_same(
                monkeypatch, HullInstance(points, target), HullConfig(epsilon=1e-3)
            )
            assert outcome.status == IN_HULL_APPROX

    def test_outside_instances_witness(self, monkeypatch):
        rng = np.random.default_rng(403)
        for _ in range(10):
            points, target, _ = outside_instance_2d(rng, n_points=12)
            outcome = self._assert_same(
                monkeypatch, HullInstance(points, target), HullConfig(epsilon=1e-4)
            )
            assert outcome.status == NOT_IN_HULL

    def test_outside_instances_after_steps(self):
        # The nearest vertex is already a witness for every target of the
        # test above; these, near the middle of an edge, take 8 to 306
        # steps. The two points of an unclamped transfer tie in margin, and
        # both loops break that tie to the lower index, so the plain loop
        # takes the same pivots to the same witness.
        rng = np.random.default_rng(403)
        outside = 0
        for _ in range(11):
            points = rng.normal(size=(5, 10))
            target = 0.5 * (points[:, 0] + points[:, 1]) + 0.05 * rng.normal(size=5)
            distance = min_norm_point(points, target)[0]
            if hull_verdict(points, target, distance)[0]:
                continue
            outside += 1
            instance = HullInstance(points, target)
            config = HullConfig(epsilon=1e-4, record_trace=True)
            outcome = run_hull(instance, config)
            expected = reference_run_hull(instance, config)
            assert outcome.status == NOT_IN_HULL == expected["status"]
            assert [r.pivot for r in outcome.trace] == expected["pivots"]
            assert outcome.iterations >= 8
            margins = reference_margins(instance, instance.points @ outcome.iterate.coeffs)
            assert np.array_equal(outcome.witness.margins, margins)
            assert (margins < 0.0).all()
            low, high = outcome.witness.distance_bracket
            assert low <= distance * (1 + 1e-9) and distance <= high * (1 + 1e-9)
        assert outside == 10

    def test_column_hull_phase1(self, monkeypatch):
        # Phase 1 of the nonnegative solver: columns against the origin.
        rng = np.random.default_rng(405)
        system, _ = nonneg_system(rng, 60)
        outcome = self._assert_same(
            monkeypatch, HullInstance(system.a, np.zeros(60)), HullConfig(epsilon=1e-6)
        )
        assert outcome.status == NOT_IN_HULL

    def test_many_steps_and_cap(self, monkeypatch):
        rng = np.random.default_rng(407)
        a = rng.normal(size=(40, 40))
        a /= np.linalg.norm(a, axis=0)
        target = a @ rng.dirichlet(np.ones(40))
        outcome = self._assert_same(
            monkeypatch, HullInstance(a, target), HullConfig(epsilon=1e-6, max_iterations=3000)
        )
        assert outcome.iterations == 3000


class TestSolvers:
    def test_solve_nonneg(self, monkeypatch):
        rng = np.random.default_rng(409)
        for n in (20, 40):
            system, _ = nonneg_system(rng, n, diag_boost=0.0)
            # These runs reach 3e-3 in 84 and 172 steps, 5e-4 in 377 and
            # 3,920, and 2.8e-4 in 977 and 6,010; 2.6e-4 keeps both runs
            # long, 6,476 and 6,288 steps.
            config = SolveConfig(epsilon0=2.6e-4, record_trace=True)
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
            # At 0.05 the pairwise steps converge after 704 shift changes.
            config = SolveConfig(
                epsilon0=0.02, init_coeffs=nearest_half_coeffs(system), record_trace=True
            )
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
            config = SolveConfig(
                epsilon0=1e-2, init_coeffs=centroid_coeffs(n + 1), record_trace=True
            )
            shipped, reference = _with_reference_pivots(
                monkeypatch, solve_incremental, system, config,
                increment=INCREMENTS[policy], tau_hook=lambda tau: 0.0,
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
            expected = reference_margins(fresh, fresh.points @ outcome.witness.iterate.coeffs)
            assert np.array_equal(outcome.witness.margins, expected)

    def test_nonneg_witness_margins_are_direct(self):
        rng = np.random.default_rng(417)
        system, _ = invertible_system(rng, 15)
        outcome = solve_nonneg(system, SolveConfig(epsilon0=1e-4))
        assert outcome.status == INFEASIBLE_NONNEG
        points = np.hstack([system.a, -system.b[:, None]])
        expected = reference_margins(
            HullInstance(points, np.zeros(15)), points @ outcome.witness.iterate.coeffs
        )
        # The outcome's margins are in the squared units of A and b.
        assert np.array_equal(outcome.witness.margins, given_units(system, expected, 2))

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
            patch.setattr("hullsolve.system.PROXY_MARGIN", np.inf)
            every_step = solve_nonneg(system, config)
        assert gated.status == every_step.status == CONVERGED
        assert gated.iterations == every_step.iterations
        assert gated.x.tobytes() == every_step.x.tobytes()
        assert gated.residual_norm == every_step.residual_norm
        phase2 = gated.iterations - gated.diagnostics["phase1_iterations"]
        # Phase 2 starts at the point nearest the origin, -b here, so the
        # reference checks from step 0 on; the gated run about once every
        # n steps.
        assert len(calls) - gated_checks == phase2 + 1
        assert gated_checks <= phase2 // n + 3

    def test_backstop_converges_without_the_proxy(self, monkeypatch):
        rng = np.random.default_rng(433)
        n, eps0 = 30, 5e-3
        system, _ = nonneg_system(rng, n, diag_boost=0.0)
        proxied = solve_nonneg(system, SolveConfig(epsilon0=eps0))
        # A cap, so that a missing backstop fails instead of running on.
        config = SolveConfig(epsilon0=eps0, max_iterations=20 * proxied.iterations)
        # A gate no estimate can pass: only the backstop checks remain.
        monkeypatch.setattr("hullsolve.system.PROXY_MARGIN", -np.inf)
        spoiled = solve_nonneg(system, config)
        assert spoiled.status == CONVERGED
        phase2 = spoiled.iterations - spoiled.diagnostics["phase1_iterations"]
        assert phase2 % n == 0
        assert spoiled.iterations >= proxied.iterations
        assert spoiled.residual_norm <= eps0 * given_units(system, system.rho)
        assert given_units(system, system.residual_norm(spoiled.x)) == spoiled.residual_norm


def test_step_coefficients_stay_a_probability_vector():
    # apply_step mixes c' = fl(1 - alpha) c, then adds alpha to c'_j, with
    # no clamp and no renormalisation. Its weights stay nonnegative, and
    # alpha = 1 gives e_j exactly (keep is 0, so every product is 0). The
    # sum drifts by rounding alone. Let u = 2^-53 and e = |sum(c) - 1|,
    # summed exactly (math.fsum). keep = (1 - alpha)(1 + d), each product
    # keep c_i carries a factor (1 + h_i) and the add at j (1 + g), with
    # |d|, |h_i|, |g| <= u, so
    #   sum(c') - 1 = keep (sum(c) - 1) + (keep - (1 - alpha))
    #                 + keep sum(c_i h_i) + g c'_j / (1 + g)
    # and, with keep <= (1 - alpha)(1 + u) and sum(c), c'_j <= 1 + e,
    #   e' <= (1 - alpha)(1 + u) e + u + 2 u (1 + u)^2 (1 + e),
    # which is at most e + 4 u while e stays below 1/8. Over N steps from
    # e_0 the drift is therefore at most e_0 + 4 u N; the adversarial
    # alphas below (near 0, near 1 and 1 itself) reach no further.
    rng = np.random.default_rng(435)
    n = 25
    points = rng.normal(size=(8, n))
    instance = HullInstance(points, points @ rng.dirichlet(np.ones(n)))
    iterate = make_iterate(instance, rng.dirichlet(np.ones(n)))
    unit = 2.0**-53
    drift, since, jumps = abs(math.fsum(iterate.coeffs) - 1.0), 0, 0
    for step in range(10_000):
        j = int(rng.integers(n))
        kind = step % 4
        if kind == 0:
            alpha = 10.0 ** rng.uniform(-6.0, 0.0)
        elif kind == 1:
            alpha = 1.0 - 10.0 ** rng.uniform(-16.0, -10.0)  # leaves weights near 1e-16
        elif kind == 2:
            alpha = 10.0 ** rng.uniform(-18.0, -12.0)
        else:
            alpha = 1.0 if step % 400 == 3 else float(rng.uniform())
        iterate = apply_step(instance, iterate, j, alpha)
        since += 1
        assert (iterate.coeffs >= 0.0).all()
        if alpha == 1.0:
            jumps += 1
            assert iterate.coeffs.tobytes() == np.eye(n)[j].tobytes()
            drift, since = 0.0, 0
        else:
            assert abs(math.fsum(iterate.coeffs) - 1.0) <= drift + 4.0 * unit * since
    assert jumps >= 20


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
        u_point = incremental._shift_product(system, iterate.coeffs, 0.0)
        iterate = incremental.move_shift(system, iterate, 0.0, t0, u_point)
        for _ in range(int(rng.integers(0, 20))):
            j = int(rng.integers(n + 1))
            iterate = apply_step(instance, iterate, j, float(rng.uniform(0.0, 0.2)))
        u_norm = float(np.linalg.norm(system.u))
        x0 = iterate.coeffs[:-1] / iterate.coeffs[-1]
        expected_tau, expected_err = incremental.optimize_shift_tau0(system, x0, t0)
        tau0, u_point = incremental._optimal_shift(system, iterate, t0)
        if tau0 != t0:
            iterate = incremental.move_shift(system, iterate, t0, tau0, u_point)
            moved += 1
        else:
            clamped += 1
        tol = 1e-12 * system.rho
        assert abs(tau0 - expected_tau) * u_norm <= tol
        assert abs(iterate.gap / iterate.coeffs[-1] - expected_err) <= tol
    assert moved >= 50 and clamped >= 50


def test_constant_time_move_tracks_the_formed_iterate():
    # move_shift reads -b(t)^T p'(t) and ||p'(t)||^2 in O(1) from u^T p'
    # and carries the rest of the products by one scaled add of A^T u.
    # After random moves, and after moves to the shift that explains all
    # but about 1e-2, 1e-6 or 1e-9 of the gap (x0 = x + t e + noise, so
    # p'(t) = alpha_b A noise), the moved products and ||p'||^2 are within
    # _tracks_fresh's bound of those formed from V c; a move whose
    # ||p'||^2 cancels below CANCELLATION of its terms is formed again.
    # Half the random moves go to the shift where b(t) = 0 (x = -t e),
    # where ||b(t)||^2, priced from ||b||^2, u^T b and ||u||^2, must not
    # round below 0 and holds only absolute accuracy.
    rng = np.random.default_rng(451)
    formed = kept = 0
    for trial in range(240):
        n = int(rng.integers(5, 41))
        x = rng.normal(size=n) if trial % 8 else np.full(n, -rng.uniform(0.5, 5.0))
        a = rng.normal(size=(n, n))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        system = LinearSystem(a, a @ x)
        t0 = rng.uniform(0.0, 3.0)
        instance = incremental.shifted_instance(system, t0)
        if trial % 4 == 0:
            alpha_b = rng.uniform(0.05, 1.0)
            coeffs = np.append((1.0 - alpha_b) * rng.dirichlet(np.ones(n)), alpha_b)
            iterate = make_iterate(instance, coeffs)
            t = t0 + rng.uniform(-t0, 5.0) if trial % 8 else -float(x[0])
            u_point = incremental._shift_product(system, coeffs, t0)
        else:
            t = t0 + max(rng.uniform(0.5, 3.0), 0.1 - x.min() - t0)
            noise = (0.0, 1e-2, 1e-6, 1e-9)[trial % 4] * rng.normal(size=n)
            x0 = x + t + noise
            iterate = make_iterate(instance, np.append(x0, 1.0) / (1.0 + x0.sum()))
            t, u_point = incremental._optimal_shift(system, iterate, t0)
        before = iterate.point_sq
        moved = incremental.move_shift(system, iterate, t0, t, u_point)
        assert np.array_equal(
            instance.points, np.column_stack([system.a, -(system.b + t * system.u)])
        )
        # ||b(t)||^2 is exact only to a few eps of its terms' magnitudes,
        # not of its value, but never below 0.
        column = instance.points[:, n]
        magnitude = system.b_sq + t * t * system.u_sq
        assert instance.sq_norms[n] >= 0.0
        assert abs(instance.sq_norms[n] - column @ column) <= 8 * np.finfo(float).eps * magnitude
        point = instance.points @ moved.coeffs
        fresh = instance.points.T @ point
        scale = np.sqrt(instance.sq_norms.max() * (point @ point))
        assert np.abs(moved.dot_cache - fresh).max() <= 1e-10 * scale
        assert abs(moved.point_sq - point @ point) <= 1e-10 * scale
        exact = hull.exact_iterate(instance, moved.coeffs)
        if moved.point_sq < hull.CANCELLATION * before:
            assert moved.dot_cache.tobytes() == exact.dot_cache.tobytes()
            assert moved.point_sq == exact.point_sq == moved.point_sq_scale
            formed += 1
        elif trial % 4 == 1:
            assert moved.point_sq < 1e-2 * before  # the shift explained most of the gap
            assert moved.dot_cache.tobytes() != exact.dot_cache.tobytes()
            kept += 1
    assert formed >= 100 and kept >= 50


class TestGatedIncrementalResidual:
    """solve_incremental computes ||A x - b|| only when gap / alpha_b nears
    the target or once every n steps, at most once a pass; the stop step
    must be the one an exact check on every pass finds."""

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
            patch.setattr("hullsolve.system.PROXY_MARGIN", np.inf)
            every_pass = solve_incremental(system, config)
        assert gated.status == every_pass.status == CONVERGED
        assert gated.iterations == every_pass.iterations
        assert gated.shift_t == every_pass.shift_t
        assert gated.x.tobytes() == every_pass.x.tobytes()
        assert gated.residual_norm == every_pass.residual_norm
        # One exact residual a pass: one per step and one at the stop.
        assert len(calls) - gated_checks == every_pass.iterations + 1
        assert gated_checks <= gated.iterations // n + 4

    def test_backstop_converges_without_the_estimate(self, monkeypatch):
        rng = np.random.default_rng(441)
        n, eps0 = 30, 5e-2
        system = _column_normalised_system(rng, n)
        estimated = solve_incremental(system, SolveConfig(epsilon0=eps0))
        # A cap, so that a missing backstop fails instead of running on.
        config = SolveConfig(epsilon0=eps0, max_iterations=20 * estimated.iterations)
        # A gate no estimate can pass: only the backstop checks remain.
        monkeypatch.setattr("hullsolve.system.PROXY_MARGIN", -np.inf)
        outcome = solve_incremental(system, config)
        assert outcome.status == CONVERGED
        assert outcome.iterations % n == 0
        assert outcome.iterations >= estimated.iterations
        assert outcome.residual_norm <= eps0 * given_units(system, system.rho)
        assert given_units(system, system.residual_norm(outcome.x)) == outcome.residual_norm


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
        residual = system.residual_norm(outcome.x)
        assert given_units(system, residual) == outcome.residual_norm
        assert residual <= best + 1e-12 * system.rho


def _tracks_fresh(function, counts, name):
    """function, which returns an iterate of the instance it takes (the
    first argument, or the system's hull for move_shift), checked at every
    call: the maintained products and ||p'||^2 within 1e-10 of those formed
    from V c, on the scale max_i ||v_i|| ||p'|| that bounds the products."""

    def checked(*args, **kwargs):
        stepped = function(*args, **kwargs)
        instance = args[0].hull if name == "move_shift" else args[0]
        point = instance.points @ stepped.coeffs
        fresh = instance.points.T @ point
        scale = np.sqrt(instance.sq_norms.max() * (point @ point))
        assert np.abs(stepped.dot_cache - fresh).max() <= 1e-10 * scale
        assert abs(stepped.point_sq - point @ point) <= 1e-10 * scale
        counts[name] = counts.get(name, 0) + 1
        return stepped

    return checked


class TestRecursedState:
    """Each loop steps on V^T p' and ||p'||^2 kept by recursion; over 10^4
    steps of each, and across the incremental solver's shift moves, they
    track the values formed from V c."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {}
        step = _tracks_fresh(hull.apply_step, counts, "step")
        for module in (hull, two_phase, incremental):
            monkeypatch.setattr(module, "apply_step", step)
        monkeypatch.setattr(
            incremental, "move_shift", _tracks_fresh(incremental.move_shift, counts, "move_shift")
        )
        return counts

    def test_run_hull(self, counts):
        rng = np.random.default_rng(447)
        a = rng.normal(size=(40, 40))
        a /= np.linalg.norm(a, axis=0)
        instance = HullInstance(a, a @ rng.dirichlet(np.ones(40)))
        outcome = run_hull(instance, HullConfig(epsilon=1e-9, max_iterations=10_000))
        assert outcome.iterations == counts["step"] == 10_000

    def test_solve_nonneg(self, counts):
        system, _ = nonneg_system(np.random.default_rng(449), 40, diag_boost=0.0)
        outcome = solve_nonneg(system, SolveConfig(epsilon0=1e-5, max_iterations=10_000))
        assert outcome.iterations == counts["step"] == 10_000

    def test_solve_incremental(self, counts):
        system = _column_normalised_system(np.random.default_rng([0, 1, 1]), 50)
        outcome = solve_incremental(system, SolveConfig(epsilon0=1e-3, max_iterations=10_000))
        assert outcome.iterations == counts["step"] == 10_000
        assert counts["move_shift"] >= 30


def test_step_counts_match_the_maintained_point_kernel():
    # The first 6 general_shift reference systems (n = 50, epsilon0 =
    # 0.05) and 3 nonneg_phases-style systems at n = 200 (epsilon0 =
    # 0.005), drawn as perfbench/workloads.py draws them. The nonneg counts
    # from the nearest point are pinned from the kernel that kept the point
    # p' and its products; the others are from the centroid start, both
    # solvers' default.
    rng = np.random.default_rng([0, 1, 1])
    general = [solve_incremental(_column_normalised_system(rng, 50), SolveConfig(epsilon0=0.05))
               for _ in range(6)]
    assert [o.iterations for o in general] == [223, 1096, 199, 414, 480, 229]
    rng = np.random.default_rng([0, 2, 1])
    nonneg = []
    for _ in range(3):
        a = rng.normal(size=(200, 200))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        x = rng.uniform(0.5, 1.5, 200)
        system = LinearSystem(a, a @ (x / x.sum()))
        nonneg += [solve_nonneg(system, SolveConfig(epsilon0=0.005, init_coeffs=coeffs))
                   for coeffs in (None, nearest_coeffs(system))]
    assert [o.iterations for o in nonneg] == [174, 619, 153, 670, 168, 613]
    assert all(o.status == CONVERGED for o in general + nonneg)


def _frames_per_step(run):
    """run()'s outcome, and the Python frames entered in the hullsolve
    package per step of it, counted by sys.setprofile's "call" events."""
    package = os.path.dirname(hull.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(profile)
    try:
        outcome = run()
    finally:
        sys.setprofile(None)
    return outcome, calls / outcome.iterations


def _simplex_solution_system(rng, n):
    """Column-normalised Gaussian A, solution uniform on [0.5, 1.5] scaled
    to sum 1."""
    a = rng.normal(size=(n, n))
    a /= np.sqrt(np.einsum("ij,ij->j", a, a))
    x = rng.uniform(0.5, 1.5, n)
    return LinearSystem(a, a @ (x / x.sum()))


@pytest.mark.parametrize(
    "kind, budget",
    # The counts are 11.7, 8.1 and 9.1 frames a step; each budget leaves
    # a margin below half a frame.
    [("incremental", 12.0), ("nonneg", 8.4), ("run_hull", 9.4)],
)
def test_frame_budget_per_step(kind, budget):
    # A step costs Python calls more than arithmetic at these sizes, so the
    # count of frames entered is the budget: a count, not a timing, the same
    # on every machine.
    if kind == "incremental":
        system = _column_normalised_system(np.random.default_rng(0), 50)
        run = functools.partial(solve_incremental, system, SolveConfig(epsilon0=0.05))
    elif kind == "nonneg":
        system = _simplex_solution_system(np.random.default_rng(1), 50)
        run = functools.partial(solve_nonneg, system, SolveConfig(epsilon0=1e-3))
    else:
        rng = np.random.default_rng(2)
        points = rng.normal(size=(20, 60))
        instance = HullInstance(points, 0.5 * points.mean(axis=1))
        run = functools.partial(run_hull, instance, HullConfig(epsilon=1e-4))
    outcome, frames = _frames_per_step(run)
    assert outcome.status in (CONVERGED, IN_HULL_APPROX)
    assert outcome.iterations >= 100
    assert frames <= budget

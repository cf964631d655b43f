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
from hullsolve.hull import PIVOT_FIRST_FOUND, PIVOT_MOST_VIOLATED


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

    @pytest.mark.parametrize("rule", [PIVOT_MOST_VIOLATED, PIVOT_FIRST_FOUND])
    def test_membership_instances(self, rule):
        rng = np.random.default_rng(401)
        for dim in (3, 6, 10):
            points, target = membership_instance(rng, dim)
            outcome = self._assert_same(
                HullInstance(points, target), HullConfig(epsilon=1e-3, pivot_rule=rule)
            )
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
            config = SolveConfig(epsilon0=3e-3, record_trace=True)
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
            config = SolveConfig(
                epsilon0=1e-2, record_trace=True, hull=HullConfig(init_rule="centroid")
            )
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

    @pytest.mark.parametrize("rule", [PIVOT_MOST_VIOLATED, PIVOT_FIRST_FOUND])
    def test_no_pivot_on_products_is_confirmed_directly(self, rule):
        # Products that understate every margin must not yield a witness.
        rng = np.random.default_rng(421)
        points, target = membership_instance(rng, 6)
        instance = HullInstance(points, target)
        iterate = make_iterate(instance, rng.dirichlet(np.ones(6)))
        expected = reference_find_pivot(instance, iterate, rule)
        assert expected is not None
        iterate.dot_cache = iterate.dot_cache + 1e6
        assert find_pivot(instance, iterate, rule) == expected


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
        cap = HullConfig(max_iterations=20 * proxied.iterations)
        config = SolveConfig(epsilon0=eps0, hull=cap)

        def spoiled_step(instance, iterate, j, alpha):
            # A gap no estimate can pass: only the backstop checks remain.
            return dataclasses.replace(
                hull.apply_step(instance, iterate, j, alpha), gap=np.inf
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

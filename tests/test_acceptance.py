"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    boundary_distance_2d,
    centroid_coeffs,
    example1_system,
    example2_system,
    given_units,
    hull_membership_2d,
    inside_instance_2d,
    invertible_system,
    iterate_point,
    membership_instance,
    nonneg_system,
    outside_instance_2d,
    radius_R,
    reference_hull_target,
    relative_interior_margin,
)
from hullsolve import (
    CONVERGED,
    IN_HULL_APPROX,
    NOT_IN_HULL,
    HullConfig,
    HullInstance,
    LinearSystem,
    SolveConfig,
    apply_step,
    build_quadratics,
    find_pivot,
    make_iterate,
    next_shift,
    optimize_shift_tau0,
    recover_solution,
    run_hull,
    select_inner_epsilon,
    sensitivity_epsilon_prime,
    solve_incremental,
    solve_nonneg,
    step_size,
)
from hullsolve.incremental import (
    _rebase,
    _shift_product,
    move_shift,
    shifted_instance,
)
from hullsolve.hull import initial_iterate
from oracles import min_norm_point, solve_exact


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_example1_regression():
    """First pivot, step size, coefficients, solution, residual; under 1 ms."""
    system = example1_system()
    points = np.hstack([system.a, -system.b[:, None]])
    instance = HullInstance(points, np.zeros(2))

    def regression_sequence():
        iterate = make_iterate(instance, np.full(3, 1.0 / 3.0))
        pivot = find_pivot(instance, iterate)
        alpha = step_size(instance, iterate, pivot)
        stepped = apply_step(instance, iterate, pivot, alpha)
        x = recover_solution(stepped, system)
        return pivot, alpha, stepped, x, system.residual_norm(x)

    pivot, alpha, stepped, x, residual = regression_sequence()
    ok = (
        pivot == 1
        and abs(alpha - 0.25) <= 1e-12
        and np.abs(stepped.coeffs - [0.25, 0.5, 0.25]).max() <= 1e-12
        and np.abs(x - [1.0, 2.0]).max() <= 1e-12
        and residual <= 1e-12
    )
    elapsed = min(
        (lambda t0: (regression_sequence(), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(5)
    )
    ok = ok and elapsed < 1e-3
    report(1, ok, f"pivot/step/coeffs/x exact to 1e-12, runtime {elapsed * 1e3:.3f} ms")
    assert ok


def test_criterion_2_example2_regression():
    """Worked shift iteration: errors, shift optimum, step, quadratics, root."""
    system = example2_system()
    coeffs = np.array([0.25, 0.5, 0.25])
    tol = 1e-12

    iterate0 = make_iterate(shifted_instance(system, 0.0), coeffs)
    x0 = iterate0.coeffs[:2] / iterate0.coeffs[2]
    # The system stores A and b times 2^exponent; the worked values are in
    # the units of Example 2 itself.
    e_at_0 = given_units(system, np.linalg.norm(system.a @ x0 - system.b))
    assert np.abs(x0 - [1.0, 2.0]).max() <= tol
    assert abs(e_at_0 - 6.0) <= tol

    tau0, err = optimize_shift_tau0(system, x0, t_floor=0.0)
    assert abs(tau0 - 12.0 / 5.0) <= tol
    assert abs(given_units(system, err) - 6.0 / math.sqrt(5.0)) <= tol

    instance2 = shifted_instance(system, 2.0)
    iterate2 = make_iterate(instance2, coeffs)
    point2 = given_units(system, instance2.points @ iterate2.coeffs)
    assert np.abs(point2 - [-0.5, 0.5]).max() <= tol
    pivot = find_pivot(instance2, iterate2)
    assert pivot == 0
    alpha = step_size(instance2, iterate2, 0)
    assert abs(alpha - 2.0 / 13.0) <= tol
    stepped = apply_step(instance2, iterate2, 0, alpha)
    assert np.abs(
        stepped.coeffs - [19.0 / 52.0, 11.0 / 26.0, 11.0 / 52.0]
    ).max() <= tol
    x1 = stepped.coeffs[:2] / stepped.coeffs[2]
    assert np.abs(x1 - [19.0 / 11.0, 2.0]).max() <= tol
    e_at_2 = given_units(system, np.linalg.norm(system.a @ x1 - (system.b + 2.0 * system.u)))
    assert abs(e_at_2 - math.sqrt(936.0) / 11.0) <= tol

    quads = build_quadratics(system, iterate0)
    expected = [
        (5.0 / 16.0, 0.5, -0.75),
        (5.0 / 16.0, -1.0, -0.75),
        (-35.0 / 16.0, 7.5, -27.0 / 4.0),
    ]
    for quad, (c2, c1, c0) in zip(quads, expected):
        assert abs(given_units(system, quad.c2, 2) - c2) <= tol
        assert abs(given_units(system, quad.c1, 2) - c1) <= tol
        assert abs(given_units(system, quad.c0, 2) - c0) <= tol

    raw = next_shift(quads, t0=0.0, quantum=None)
    assert abs(raw - (-8.0 + math.sqrt(304.0)) / 10.0) <= tol
    report(2, True, "shift iteration values and quadratics exact to 1e-12")


def test_criterion_3_example2_end_to_end():
    """Incremental solve of the mixed-sign system, both shift policies."""
    system = example2_system()
    outcome = solve_incremental(system, SolveConfig(epsilon0=1e-8))
    ok = (
        outcome.status == CONVERGED
        and outcome.residual_norm <= 1e-8 * given_units(system, system.rho)
        and np.linalg.norm(outcome.x - [-1.0, -2.0]) <= 1e-6
    )
    doubled = solve_incremental(
        system, SolveConfig(epsilon0=1e-8), increment="double"
    )
    escalations = doubled.diagnostics["escalations"]
    ok = ok and doubled.status == CONVERGED and escalations <= 2
    report(
        3,
        ok,
        f"residual {outcome.residual_norm:.2e}, error "
        f"{np.linalg.norm(outcome.x - [-1.0, -2.0]):.2e}, "
        f"double-plus-one escalations {escalations} <= 2",
    )
    assert ok


def test_criterion_4_iteration_bound():
    """Interior membership instances stay within 48/eps^2 iterations."""
    rng = np.random.default_rng(2024)
    dims = [2, 5, 10]
    worst = {0.3: 0, 0.1: 0}
    count = 0
    for index in range(200):
        dim = dims[index % 3]
        points, target = membership_instance(rng, dim, margin_frac=0.1)
        count += 1
        for epsilon in (0.3, 0.1):
            cap = math.ceil(48.0 / epsilon**2)
            outcome = run_hull(
                HullInstance(points, target),
                HullConfig(epsilon=epsilon, max_iterations=cap),
            )
            assert outcome.status == IN_HULL_APPROX
            assert outcome.iterations <= cap
            worst[epsilon] = max(worst[epsilon], outcome.iterations)
    report(
        4,
        True,
        f"{count} instances; worst iterations {worst[0.3]} <= 534 (eps 0.3), "
        f"{worst[0.1]} <= 4800 (eps 0.1)",
    )


def test_criterion_5_witness_soundness_and_bracket():
    """Witness margins, separation, factor-two bracket; no false negatives."""
    rng = np.random.default_rng(2025)
    for _ in range(200):
        points, target, delta_exact = outside_instance_2d(rng)
        instance = HullInstance(points, target)
        diffs = points - target[:, None]
        delta0 = float(np.sqrt(np.einsum("ij,ij->j", diffs, diffs).min()))
        radius = radius_R(instance)
        cap = math.ceil(
            8.0 * radius**2 / delta_exact**2
            * max(1.0, math.log(2.0 * delta0 / delta_exact))
        ) + 1
        outcome = run_hull(
            instance, HullConfig(epsilon=0.01, max_iterations=cap)
        )
        assert outcome.status == NOT_IN_HULL
        witness = outcome.witness
        assert (witness.margins < 0.0).all()
        p_prime = iterate_point(instance, witness.iterate)
        for i in range(points.shape[1]):
            assert np.linalg.norm(p_prime - points[:, i]) < np.linalg.norm(
                target - points[:, i]
            )
        low, high = witness.distance_bracket
        assert low <= delta_exact * (1 + 1e-9)
        assert delta_exact <= high * (1 + 1e-9)
    false_negatives = 0
    for _ in range(200):
        points, target = inside_instance_2d(rng)
        outcome = run_hull(
            HullInstance(points, target),
            HullConfig(epsilon=0.05, max_iterations=20_000),
        )
        false_negatives += outcome.status == NOT_IN_HULL
    assert false_negatives == 0
    report(5, True, "200 witnesses sound and bracketed; 0 false negatives on 200")


def test_criterion_6_sensitivity_theorem():
    """Hull-target convergence implies the certified relative residual."""
    rng = np.random.default_rng(2026)
    epsilon0 = 0.25
    for index in range(100):
        n = 5 if index % 2 == 0 else 20
        system, _ = nonneg_system(rng, n)
        run = reference_hull_target(system, epsilon0)
        delta0p = run["delta0_prime"]
        epsilon = run["inner_epsilon"]
        assert epsilon == select_inner_epsilon(epsilon0, delta0p, system)
        eps_prime = sensitivity_epsilon_prime(epsilon, delta0p, system.norm_b)
        assert run["residual_norm"] <= eps_prime * system.rho
        cap = math.ceil((48.0 / epsilon0**2) * (system.rho / delta0p) ** 2)
        assert run["steps"] <= cap
        # The solver reports the same delta0' and inner epsilon.
        shipped = solve_nonneg(system, SolveConfig(epsilon0=epsilon0), phase1=True)
        assert (shipped.phase1_delta0_prime, shipped.inner_epsilon) == (
            given_units(system, delta0p), epsilon
        )
    report(6, True, "100 systems: residual within eps' rho, cap respected")


def test_criterion_7_bounds_chain():
    """tau_* >= tau'_* >= t_* and the eigenvalue bound below the exact distance."""
    from hullsolve import analyze_system

    rng = np.random.default_rng(2027)
    for index in range(100):
        n = 3 if index % 2 == 0 else 8
        system, _ = invertible_system(rng, n)
        analysis = analyze_system(system)
        slack = 1e-9 * max(
            1.0, abs(analysis.log_tau_star), abs(analysis.log_tau_star_prime)
        )
        assert analysis.log_tau_star >= analysis.log_tau_star_prime - slack
        t_star = max(0.0, -float(solve_exact(system).min()))
        if t_star > 0.0:
            assert analysis.log_tau_star_prime >= math.log(t_star) - slack
        if n == 3:
            delta0, _ = min_norm_point(system.a, np.zeros(n))
            delta0 = given_units(system, delta0)
            assert analysis.delta0_lower <= delta0 * (1 + 1e-6) + 1e-12
    report(7, True, "100 systems: bound chain and eigenvalue bound hold")


def test_criterion_8_oracle_equivalence():
    """Membership decisions match exact 2-d geometry away from the boundary."""
    rng = np.random.default_rng(2028)
    epsilon = 0.05
    compared = excluded = inside_seen = outside_seen = 0
    draw = 0
    while compared + excluded < 500:
        draw += 1
        n_points = int(rng.integers(4, 9))
        points = rng.normal(size=(2, n_points)) * rng.uniform(0.5, 2.0)
        if draw % 2 == 0:
            # Convex combinations keep the inside class populated.
            target = points @ rng.dirichlet(np.ones(n_points))
        else:
            centroid = points.mean(axis=1)
            radius = float(
                np.sqrt(((points - centroid[:, None]) ** 2).sum(axis=0).max())
            )
            target = centroid + rng.uniform(-2.0, 2.0, 2) * radius
        instance = HullInstance(points, target)
        if boundary_distance_2d(points, target) < epsilon * radius_R(instance):
            excluded += 1
            continue
        inside, delta = hull_membership_2d(points, target)
        if inside:
            cap = math.ceil(48.0 / epsilon**2)
        else:
            diffs = points - target[:, None]
            delta0 = float(np.sqrt(np.einsum("ij,ij->j", diffs, diffs).min()))
            cap = math.ceil(
                8.0 * radius_R(instance)**2 / delta**2
                * max(1.0, math.log(2.0 * delta0 / delta))
            ) + 1
        outcome = run_hull(
            instance, HullConfig(epsilon=epsilon, max_iterations=cap)
        )
        assert outcome.status in (IN_HULL_APPROX, NOT_IN_HULL)
        assert (outcome.status == IN_HULL_APPROX) == inside
        compared += 1
        inside_seen += inside
        outside_seen += not inside
    assert inside_seen >= 50 and outside_seen >= 50
    report(
        8,
        True,
        f"{compared} decisions agree ({inside_seen} inside, {outside_seen} "
        f"outside, {excluded} near-boundary excluded)",
    )


def test_criterion_9_quadratic_consistency():
    """Coefficient forms match direct evaluation; rhs quadratic negativity.

    Witness states are harvested the way the solver reaches them: Triangle
    steps at the current shift, and on a witness an escalation to the
    quantized next shift, moving the shifted hull and the iterate there. The second clause
    checks the right-hand-side quadratic where escalation relies on it: it
    opens downward, is negative at the witness's own shift, and stays
    nonpositive up to the raw next shift. It is positive between its real
    roots, so next_shift must stop at the smaller root when that comes
    before every column root.
    """
    rng = np.random.default_rng(2029)
    states = []
    while len(states) < 40:
        n = int(rng.integers(2, 6))
        system, x_star = invertible_system(rng, n)
        if (x_star >= 0).all():
            continue
        t0 = 0.0
        instance = shifted_instance(system, t0)
        iterate = initial_iterate(instance, centroid_coeffs(instance.n_points))
        for _ in range(2000):
            j = find_pivot(instance, iterate)
            if j is None:
                if float(iterate.coeffs[-1]) >= 1e-12:
                    states.append((system, iterate, t0))
                    quads = build_quadratics(system, iterate)
                    new_t = next_shift(quads, t0, 1)
                    u_point = _shift_product(system, iterate.coeffs, t0)
                    iterate = move_shift(system, iterate, t0, new_t, u_point)
                    t0 = new_t
                    continue
                break
            alpha = step_size(instance, iterate, j)
            iterate = apply_step(instance, iterate, j, alpha)
            alpha_b = iterate.coeffs[-1]
            if alpha_b > 1e-12 and iterate.gap / alpha_b < 1e-9 * system.rho:
                break

    violation = None
    for system, iterate, t0 in states:
        quads = build_quadratics(system, iterate)
        alpha_b = float(iterate.coeffs[-1])
        base = _rebase(system, iterate)
        for t in rng.uniform(0.0, 5.0 + 2.0 * t0, 10):
            moved = base - t * alpha_b * system.u
            moved_sq = float(moved @ moved)
            for quad in quads:
                if quad.is_rhs:
                    direct = moved_sq + 2.0 * float(moved @ (system.b + t * system.u))
                else:
                    direct = moved_sq - 2.0 * float(moved @ system.a[:, quad.index])
                assert quad.value(t) == pytest.approx(direct, rel=1e-9, abs=1e-9)
        rhs = quads[-1]
        assert rhs.c2 < 0.0
        assert rhs.value(t0) < 0.0
        raw = next_shift(quads, t0, None)
        grid = np.linspace(t0, raw, 200)
        values = [rhs.value(t) for t in grid]
        peak = max(values)
        if peak > 1e-10 and violation is None:
            violation = (peak, float(grid[int(np.argmax(values))]), t0, raw)

    if violation is None:
        report(
            9,
            True,
            f"coefficients consistent on {len(states)} witness states; rhs "
            "quadratic negative at each shift and nonpositive up to the next",
        )
        return
    peak, at_t, t0, raw = violation
    report(
        9,
        False,
        f"coefficients consistent on {len(states)} states, but the rhs "
        f"quadratic of a witness at shift {t0:.3g} reaches {peak:.3g} > 0 "
        f"at shift {at_t:.3g}, before the next shift {raw:.3g}",
    )
    pytest.fail(
        "next shift overshoots the rhs quadratic's root: -b(t) becomes a "
        f"pivot at t={at_t:.3g} (value {peak:.3g}) before t={raw:.3g}"
    )


def test_criterion_10_desk_scale_performance():
    """n = 200 dense nonnegative-solution system at eps0 = 0.05."""
    rng = np.random.default_rng(2030)
    system, _ = nonneg_system(rng, 200)
    started = time.perf_counter()
    outcome = solve_nonneg(system, SolveConfig(epsilon0=0.05), phase1=True)
    elapsed = time.perf_counter() - started
    # Phase 2 within the paper's bound (48 / eps0^2) (rho / delta0')^2.
    ratio = given_units(system, system.rho) / outcome.phase1_delta0_prime
    ok = (
        outcome.status == CONVERGED
        and outcome.relative_residual <= 0.05
        and outcome.iterations - outcome.diagnostics["phase1_iterations"]
        <= math.ceil((48.0 / 0.05**2) * ratio**2)
        and elapsed < 60.0
    )
    report(
        10,
        ok,
        f"n=200 converged in {outcome.iterations} iterations, "
        f"{elapsed:.2f} s < 60 s",
    )
    assert ok

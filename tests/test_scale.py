"""Scale: A and b times 2^s solve and analyse as A and b do.

LinearSystem stores A and b times the power of two that puts their largest
|entry| in [1/2, 1). At every s where ldexp(A, s) and ldexp(b, s) are
exact, the stored system is therefore the same, bit for bit, and so is
every step of a solve on it; each value with units comes back times 2^s,
or 2^2s for a square."""

import math

import numpy as np
import pytest

from hullsolve import LinearSystem, SolveConfig, analyze_system, solve_incremental, solve_nonneg


def _subnormal_squares_system():
    # Solved on A and b as given, this system's squares go subnormal from
    # 2^-512 down: solve_nonneg took 553 steps from 2^0 to 2^-500, 5,954
    # at 2^-520, and ran to a 20,000-step cap at 2^-530 and 2^-535.
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 6))
    return a, a @ rng.uniform(0.5, 1.5, 6)


def _gaussian_system(seed, n, nonneg):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a /= np.sqrt(np.einsum("ij,ij->j", a, a))
    x = rng.uniform(0.5, 1.5, n) if nonneg else rng.normal(size=n)
    return a, a @ x


SYSTEMS = {
    "subnormal_squares": _subnormal_squares_system(),
    "nonneg": _gaussian_system(7, 8, nonneg=True),
    "mixed": _gaussian_system(5, 8, nonneg=False),
}

# The scales at which that system was measured.
MEASURED_SCALES = (0, -400, -500, -520, -530, -535)


def _exact_scales(a, b) -> range:
    """Every s at which A and b times 2^s are exact: each nonzero entry
    stays a normal double."""
    entries = np.abs(np.concatenate([a.ravel(), b]))
    low = math.frexp(entries[entries > 0.0].min())[1]  # the least is >= 2^(low - 1)
    high = math.frexp(entries.max())[1]  # the largest is < 2^high
    return range(-1021 - low, 1025 - high)


def _times(value, exponent):
    """value times 2^exponent, inf beyond double range."""
    with np.errstate(over="ignore"):
        return np.ldexp(value, exponent)


def _scaled(a, b, s) -> LinearSystem:
    return LinearSystem(np.ldexp(a, s), np.ldexp(b, s))


@pytest.mark.parametrize("name", SYSTEMS)
def test_stored_system_is_the_same_at_every_exact_scale(name):
    a, b = SYSTEMS[name]
    base = LinearSystem(a, b)
    scales = _exact_scales(a, b)
    assert scales[0] < -1000 and scales[-1] > 1000
    for s in scales:
        system = _scaled(a, b, s)
        assert system.exponent == base.exponent - s
        assert system.a.tobytes() == base.a.tobytes()
        assert system.b.tobytes() == base.b.tobytes()
        assert (system.rho, system.norm_b, system.u_sq) == (base.rho, base.norm_b, base.u_sq)


def _check_outcome(got, want, s):
    assert (got.status, got.iterations, got.shift_t) == (want.status, want.iterations, want.shift_t)
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert got.x.tobytes() == want.x.tobytes()
        assert got.relative_residual == want.relative_residual
        assert got.residual_norm == _times(want.residual_norm, s)
    assert [(r.iteration, r.t, r.alpha_b, r.pivot, r.witness) for r in got.trace] == [
        (r.iteration, r.t, r.alpha_b, r.pivot, r.witness) for r in want.trace
    ]
    values = np.array([r.value for r in want.trace])
    assert np.array_equal([r.value for r in got.trace], _times(values, s))
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert got.witness.iterate.coeffs.tobytes() == want.witness.iterate.coeffs.tobytes()
        assert np.array_equal(got.witness.margins, _times(want.witness.margins, 2 * s))
        assert got.witness.iterate.point_sq == _times(want.witness.iterate.point_sq, 2 * s)
        assert np.array_equal(
            got.witness.distance_bracket, _times(want.witness.distance_bracket, s)
        )


# Squares and norms of the analysis; the rest has no units but log det.
_SQUARES = ("lambda_min", "lambda_max", "q_min", "w_norm", "delta0_lower_stated")
_UNITLESS = (
    "log_tau_star", "log_tau_star_prime", "tau_star", "tau_star_prime", "near_singular"
)


@pytest.mark.parametrize("name", SYSTEMS)
def test_solves_and_analysis_do_not_depend_on_scale(name):
    # A full solve at each s costs milliseconds, so the solves run at every
    # 25th exact scale, both ends and the measured scales; the stored system,
    # which they depend on alone, is checked at every s above.
    a, b = SYSTEMS[name]
    config = SolveConfig(epsilon0=1e-6, max_iterations=20_000, record_trace=True)

    def run(s):
        system = _scaled(a, b, s)
        return solve_nonneg(system, config), solve_incremental(system, config), system

    base_nonneg, base_incremental, base_system = run(0)
    base_analysis = analyze_system(base_system)
    if name == "subnormal_squares":
        assert (base_nonneg.status, base_nonneg.iterations) == ("converged", 553)
    scales = _exact_scales(a, b)
    for s in sorted({*scales[::25], scales[0], scales[-1], *MEASURED_SCALES}):
        nonneg, incremental, system = run(s)
        _check_outcome(nonneg, base_nonneg, s)
        _check_outcome(incremental, base_incremental, s)
        analysis = analyze_system(system)
        for field in _SQUARES:
            assert getattr(analysis, field) == _times(getattr(base_analysis, field), 2 * s)
        assert analysis.delta0_lower == _times(base_analysis.delta0_lower, s)
        for field in _UNITLESS:
            assert getattr(analysis, field) == getattr(base_analysis, field)
        shift = 2 * s * a.shape[0] * math.log(2.0)
        tolerance = 1e-12 * abs(shift) + 1e-15
        assert analysis.log_det_q == pytest.approx(base_analysis.log_det_q + shift, abs=tolerance)

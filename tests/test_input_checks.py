"""Input checks: each raise of a check on files, points, weights or
settings, one case per check, with its exact message and, for a parse
error, the line it names."""

import math

import numpy as np
import pytest

from hullsolve import (
    HullConfig,
    HullInstance,
    LinearSystem,
    SolveConfig,
    run_hull,
    solve_incremental,
    solve_nonneg,
)
from hullsolve.hull import apply_step, make_iterate
from hullsolve.incremental import ShiftQuadratic, next_shift
from hullsolve.matio import FORMAT_MATRIX_MARKET, ParseError, load_matrix
from oracles import solve_exact

_MM_ARRAY = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize(
    "text, fmt, message, line",
    [
        pytest.param("1 1\n1\n", "csv", "unknown format 'csv'", None, id="unknown-format"),
        pytest.param("3\n1 2 3\n", None, "header must be two integers 'rows cols'", 1,
                     id="dense-header-one-token"),
        pytest.param("\n2 x\n1 2\n3 4\n", None, "header must be two integers 'rows cols'", 2,
                     id="dense-header-not-integers"),
        pytest.param("0 2\n", None, "matrix dimensions must be positive", 1,
                     id="dense-non-positive-dimensions"),
        pytest.param("1 2\n1 2\n3 4\n", None, "expected only 1 data rows", 3,
                     id="dense-extra-row"),
        pytest.param("2 2\n1 2\n3\n", None, "expected 2 values, found 1", 3,
                     id="dense-row-count"),
        # An empty file sniffs as DenseText; only a given format reads it
        # as Matrix Market.
        pytest.param("", FORMAT_MATRIX_MARKET, "empty file, expected a MatrixMarket header", 1,
                     id="mm-empty"),
        pytest.param("%%MatrixMarket matrix array real\n2 2\n", None,
                     "malformed MatrixMarket header", 1, id="mm-malformed-header"),
        pytest.param("%%MatrixMarket matrix dense real general\n", None,
                     "unsupported layout 'dense'", 1, id="mm-layout"),
        pytest.param("%%MatrixMarket matrix array complex general\n", None,
                     "unsupported field type 'complex'", 1, id="mm-field"),
        pytest.param("%%MatrixMarket matrix array real hermitian\n", None,
                     "unsupported symmetry 'hermitian'", 1, id="mm-symmetry"),
        pytest.param(_MM_ARRAY + "% a comment and no size line\n", None, "missing size line", 2,
                     id="mm-missing-size-line"),
        pytest.param(_MM_ARRAY + "% comment\n2 2 4\n", None,
                     "array size line must be 'rows cols'", 3, id="mm-size-line-form"),
        pytest.param(_MM_ARRAY + "2 x\n", None, "array size line must be integers", 2,
                     id="mm-size-line-not-integers"),
        pytest.param(_MM_ARRAY + "0 0\n", None, "matrix dimensions must be positive", 2,
                     id="mm-zero-dimensions"),
        pytest.param(_MM_ARRAY + "% comment\n-2 3\n", None, "matrix dimensions must be positive",
                     3, id="mm-negative-dimension"),
        pytest.param("%%MatrixMarket matrix coordinate real general\n2 2 -1\n", None,
                     "entry count must not be negative", 2, id="mm-negative-entry-count"),
    ],
)
def test_malformed_file_is_refused(tmp_path, text, fmt, message, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as caught:
        load_matrix(str(path), fmt)
    if line is None:
        assert str(caught.value) == message
    else:
        assert isinstance(caught.value, ParseError)
        assert str(caught.value) == f"line {line}: {message}"
        assert caught.value.line == line


def test_dense_text_skips_a_blank_line_between_rows(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("2 2\n1 2\n\n3 4\n")
    assert np.array_equal(load_matrix(str(path)), [[1.0, 2.0], [3.0, 4.0]])


def _triangle():
    return HullInstance(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([0.2, 0.2]))


def _step(alpha):
    instance = _triangle()
    return apply_step(instance, make_iterate(instance, [1.0, 0.0, 0.0]), 1, alpha)


def _capped_start(config_type, init_coeffs):
    return config_type(max_iterations=1000, init_coeffs=np.array(init_coeffs))


_ONES_IMAGE_2_600 = np.array([[1.0, -1.0], [2.0**-600, 0.0]])
_ONES_IMAGE_2_520 = np.array([[1.0, -1.0], [2.0**-520, 0.0]])
_NO_SECOND_PIVOT = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: HullInstance(np.ones(3), np.ones(3)),
                     "points must be a 2-d array, one column per point, and target 1-d",
                     id="points-not-2d"),
        pytest.param(lambda: HullInstance(np.ones((2, 0)), np.ones(2)),
                     "need at least one point in at least one dimension", id="no-points"),
        pytest.param(lambda: HullConfig(epsilon=0.0),
                     "epsilon must lie strictly between 0 and 1", id="epsilon-zero"),
        pytest.param(lambda: HullConfig(epsilon=1.0),
                     "epsilon must lie strictly between 0 and 1", id="epsilon-one"),
        pytest.param(lambda: make_iterate(_triangle(), [-0.5, 1.0, 0.5]),
                     "convex coefficients must be nonnegative", id="negative-weight"),
        pytest.param(lambda: make_iterate(_triangle(), [0.0, 0.0, 0.0]),
                     "convex coefficients must have positive sum", id="zero-sum"),
        pytest.param(lambda: _step(1.5),
                     "alpha must lie in [0, 1]", id="alpha-above-one"),
        pytest.param(lambda: _step(-0.5),
                     "alpha must lie in [0, 1]", id="alpha-below-zero"),
        pytest.param(lambda: LinearSystem(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),
                     "matrix and right-hand side must be finite", id="system-not-finite"),
        pytest.param(lambda: LinearSystem(np.zeros((0, 0)), np.zeros(0)),
                     "system must have at least one unknown", id="system-empty"),
        pytest.param(lambda: SolveConfig(epsilon0=0.0),
                     "epsilon0 must lie strictly between 0 and 1", id="epsilon0-zero"),
        pytest.param(lambda: SolveConfig(epsilon0=1.0),
                     "epsilon0 must lie strictly between 0 and 1", id="epsilon0-one"),
        # Every run has a step cap; none comes from the paper's bounds.
        pytest.param(lambda: HullConfig(max_iterations=None),
                     "max_iterations must be at least 1, not None", id="no-cap-hull"),
        pytest.param(lambda: SolveConfig(max_iterations=None),
                     "max_iterations must be at least 1, not None", id="no-cap-solve"),
        pytest.param(lambda: solve_incremental(LinearSystem(np.eye(2), np.ones(2)), SolveConfig(),
                                               increment="halving"),
                     "bad increment spec 'halving'; use quantized:N or double",
                     id="unknown-increment"),
        pytest.param(lambda: solve_incremental(LinearSystem(np.eye(2), np.ones(2)), SolveConfig(),
                                               increment="quantized:x"),
                     "bad increment spec 'quantized:x'", id="increment-not-integer"),
        pytest.param(lambda: next_shift([ShiftQuadratic(0, 1.0, 0.0, -1.0)], 0.0, quantum=0),
                     "quantum must be a positive integer", id="next-shift-quantum"),
        # Column 2 has no pivot left after the first elimination step.
        pytest.param(lambda: solve_exact(LinearSystem(_NO_SECOND_PIVOT, np.ones(3))),
                     "pivot 0.000e+00 below threshold", id="exact-solve-pivot"),
        # A e is nonzero, but 2^-600 below the largest entry: its squared
        # norm underflows to 0 at any scale that keeps that entry a double.
        pytest.param(lambda: LinearSystem(_ONES_IMAGE_2_600, np.ones(2)),
                     "A e too small: a squared norm underflows to 0; rescale the input",
                     id="ones-image-underflows"),
        # ||A e||^2 is subnormal next to the largest entry: A e = 0 to
        # working precision, and alpha_b ||A e||^2, which the incremental
        # solve divides by, may round to 0.
        pytest.param(lambda: solve_incremental(
                         LinearSystem(_ONES_IMAGE_2_520, np.ones(2)), SolveConfig()),
                     "A e = 0: the all-ones vector is a null vector; A is singular",
                     id="ones-image-subnormal"),
        # A column 2^-600 below b: its squared norm underflows to 0.
        pytest.param(lambda: LinearSystem(np.diag([1.0, 2.0**-600]), np.ones(2)),
                     "matrix too small: a squared norm underflows to 0; rescale the input",
                     id="column-underflows"),
        # b 2^-600 below the columns: its squared norm underflows to 0.
        pytest.param(lambda: LinearSystem(np.eye(2), np.array([2.0**-600, 0.0])),
                     "right-hand side too small: a squared norm underflows to 0; "
                     "rescale the input",
                     id="rhs-underflows"),
        # Each run would start from NaN weights and run its step cap.
        pytest.param(lambda: run_hull(_triangle(), _capped_start(HullConfig, [np.nan, 1.0, 0.0])),
                     "convex coefficients must be finite", id="nan-weight-hull"),
        pytest.param(lambda: run_hull(_triangle(), _capped_start(HullConfig, [np.inf, 1.0, 0.0])),
                     "convex coefficients must be finite", id="inf-weight-hull"),
        pytest.param(lambda: solve_nonneg(LinearSystem(np.eye(2), np.ones(2)),
                                          _capped_start(SolveConfig, [np.nan, 1.0, 1.0])),
                     "convex coefficients must be finite", id="nan-weight-nonneg"),
        pytest.param(lambda: solve_incremental(LinearSystem(np.eye(2), np.ones(2)),
                                               _capped_start(SolveConfig, [np.nan, 1.0, 1.0])),
                     "convex coefficients must be finite", id="nan-weight-incremental"),
    ],
)
def test_bad_argument_is_refused(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


# Systems that each scale of A and b refused when the solvers ran on A and
# b as given. A system is stored times a power of two that puts its
# largest entry in [1/2, 1), so each runs as A and b scaled into the
# middle of double range do: same status, steps and bytes of x, and the
# residual times the power of two.
_BIG = 5e153 * np.array([[1.0, 1.0, 1.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
_TINY = 1e-147 * np.array([[1.0, -1.0], [1.0, -1.0 + 2.0**-52]])
_SUBNORMAL = 1e-146 * np.array([[1.0, -1.0], [1.0, -1.0 + 2.0**-52]])


@pytest.mark.parametrize(
    "a, b, exponent, status",
    [
        # ||A e||^2 overflowed, though every column's and b's squared norm
        # fits.
        pytest.param(_BIG, _BIG @ np.full(3, 0.1), -510, "converged", id="ones-image-overflows"),
        # A e is nonzero, but its squared norm underflowed to 0, or to the
        # subnormal 5e-324. Both matrices are singular to within 2^-52, so
        # the incremental solve runs to its cap: a certificate for an
        # inconsistent system is what would end it.
        pytest.param(_TINY, 1e-147 * np.array([1.0, 0.0]), 480, "cap_exceeded",
                     id="ones-image-underflows"),
        pytest.param(_SUBNORMAL, 1e-146 * np.array([1.0, 0.0]), 480, "cap_exceeded",
                     id="ones-image-subnormal"),
    ],
)
def test_ones_image_past_double_range_solves_as_scaled(a, b, exponent, status):
    config = SolveConfig(epsilon0=1e-8, max_iterations=2_000)
    scaled = solve_incremental(LinearSystem(np.ldexp(a, exponent), np.ldexp(b, exponent)), config)
    given = solve_incremental(LinearSystem(a, b), config)
    assert (given.status, given.iterations, given.shift_t) == (
        status, scaled.iterations, scaled.shift_t
    )
    if status == "converged":
        assert given.x.tobytes() == scaled.x.tobytes()
        assert given.residual_norm == math.ldexp(scaled.residual_norm, -exponent)
    else:
        assert given.diagnostics == scaled.diagnostics

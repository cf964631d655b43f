"""File formats, CLI subcommands, reports, and traces."""

import json

import numpy as np
import pytest

from hullsolve import cli, matio
from hullsolve.cli import main
from hullsolve.hull import DegeneratePivot
from hullsolve.matio import (
    DimensionMismatch,
    ParseError,
    TRACE_HEADER,
    detect_format,
    load_matrix,
    load_vector,
)


@pytest.fixture
def ex1_files(tmp_path):
    matrix = tmp_path / "ex1A.txt"
    rhs = tmp_path / "ex1b.txt"
    matrix.write_text("2 2\n3 -2\n2 1\n")
    rhs.write_text("2 1\n-1\n4\n")
    return str(matrix), str(rhs)


@pytest.fixture
def ex2_files(tmp_path):
    matrix = tmp_path / "ex2A.mtx"
    rhs = tmp_path / "ex2b.txt"
    matrix.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% columns stored column-major\n"
        "2 2\n2\n1\n-1\n1\n"
    )
    rhs.write_text("2 1\n0\n-3\n")
    return str(matrix), str(rhs)


class TestLoadMatrix:
    def test_dense_text_example1(self, ex1_files):
        matrix, _ = ex1_files
        assert detect_format(matrix) == "dense_text"
        loaded = load_matrix(matrix)
        assert np.array_equal(loaded, [[3.0, -2.0], [2.0, 1.0]])

    def test_matrix_market_array_example2(self, ex2_files):
        matrix, _ = ex2_files
        assert detect_format(matrix) == "matrix_market"
        loaded = load_matrix(matrix)
        assert np.array_equal(loaded, [[2.0, -1.0], [1.0, 1.0]])

    def test_matrix_market_coordinate(self, tmp_path):
        path = tmp_path / "coord.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 4\n1 1 2.5\n2 3 -1.0\n3 1 4.0\n3 3 1.0\n"
        )
        loaded = load_matrix(str(path))
        expected = np.zeros((3, 3))
        expected[0, 0] = 2.5
        expected[1, 2] = -1.0
        expected[2, 0] = 4.0
        expected[2, 2] = 1.0
        assert np.array_equal(loaded, expected)

    def test_matrix_market_symmetric_mirrors(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 5.0\n2 1 -2.0\n2 2 3.0\n"
        )
        loaded = load_matrix(str(path))
        assert np.array_equal(loaded, [[5.0, -2.0], [-2.0, 3.0]])

    def test_empty_file_errors_line_one(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ParseError) as info:
            load_matrix(str(path))
        assert info.value.line == 1

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2\n3 oops\n")
        with pytest.raises(ParseError) as info:
            load_matrix(str(path))
        assert info.value.line == 3

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(ParseError):
            load_matrix(str(path))

    def test_vector_requires_single_axis(self, ex1_files):
        matrix, rhs = ex1_files
        assert np.array_equal(load_vector(rhs), [-1.0, 4.0])
        with pytest.raises(DimensionMismatch):
            load_vector(matrix)


class TestSolveCommand:
    def test_example1_nonneg(self, ex1_files, tmp_path):
        matrix, rhs = ex1_files
        report_path = tmp_path / "report.json"
        code = main(
            [
                "solve", "--matrix", matrix, "--rhs", rhs,
                "--mode", "nonneg", "--epsilon0", "1e-10",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["status"] == "converged"
        assert np.allclose(report["x"], [1.0, 2.0], atol=1e-9)

    def test_nonneg_coarse_epsilon_n200(self, tmp_path):
        # Phase 1 keeps its own tight epsilon whatever the command line's
        # --epsilon0: with 0.05 it once stopped at gap 0.0499 and reported
        # this nonsingular matrix as singular (exit 2).
        rng = np.random.default_rng(1)
        n = 200
        a = rng.normal(size=(n, n))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        x = rng.uniform(0.5, 1.5, n)
        b = a @ (x / x.sum())
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        np.savetxt(matrix, a, fmt="%.17g", header=f"{n} {n}", comments="")
        np.savetxt(rhs, b[:, None], fmt="%.17g", header=f"{n} 1", comments="")
        report_path = tmp_path / "report.json"
        code = main(
            [
                "solve", "--matrix", str(matrix), "--rhs", str(rhs),
                "--mode", "nonneg", "--epsilon0", "0.05",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["status"] == "converged"
        rho = max(np.linalg.norm(a, axis=0).max(), np.linalg.norm(b))
        assert np.linalg.norm(a @ np.array(report["x"]) - b) <= 0.05 * rho

    def test_example2_incremental(self, ex2_files, tmp_path):
        matrix, rhs = ex2_files
        report_path = tmp_path / "report.json"
        code = main(
            [
                "solve", "--matrix", matrix, "--rhs", rhs,
                "--mode", "incremental", "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert np.allclose(report["x"], [-1.0, -2.0], atol=1e-6)

    def test_nonneg_infeasible_exit_one(self, ex2_files, tmp_path):
        matrix, rhs = ex2_files
        report_path = tmp_path / "report.json"
        code = main(
            [
                "solve", "--matrix", matrix, "--rhs", rhs,
                "--mode", "nonneg", "--epsilon0", "1e-6",
                "--report", str(report_path),
            ]
        )
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["status"] == "infeasible_nonneg"
        assert all(m < 0 for m in report["witness_margins"])

    def test_trace_conservation(self, ex2_files, tmp_path):
        matrix, rhs = ex2_files
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.csv"
        code = main(
            [
                "solve", "--matrix", matrix, "--rhs", rhs,
                "--report", str(report_path), "--trace", str(trace_path),
            ]
        )
        assert code == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == TRACE_HEADER
        final_value = float(lines[-1].split(",")[2])
        report = json.loads(report_path.read_text())
        assert final_value == report["residual_norm"]

    def test_reports_deterministic(self, ex2_files, tmp_path):
        matrix, rhs = ex2_files
        blobs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(
                ["solve", "--matrix", matrix, "--rhs", rhs, "--report", str(path)]
            ) == 0
            parsed = json.loads(path.read_text())
            assert parsed == json.loads(json.dumps(parsed))  # round-trips
            parsed.pop("wall_time_s")
            blobs.append(json.dumps(parsed, sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_bad_increment_spec_exit_two(self, ex2_files):
        matrix, rhs = ex2_files
        assert main(
            ["solve", "--matrix", matrix, "--rhs", rhs, "--increment", "bogus"]
        ) == 2

    def test_missing_file_exit_two(self, tmp_path):
        absent = str(tmp_path / "nope.txt")
        assert main(["solve", "--matrix", absent, "--rhs", absent]) == 2

    def test_dimension_mismatch_exit_two(self, ex1_files, tmp_path):
        matrix, _ = ex1_files
        bad_rhs = tmp_path / "bad_rhs.txt"
        bad_rhs.write_text("3 1\n1\n2\n3\n")
        assert main(["solve", "--matrix", matrix, "--rhs", str(bad_rhs)]) == 2


class TestHullCommand:
    def test_outside_point_witness_exit_one(self, tmp_path):
        points = tmp_path / "square.txt"
        points.write_text("2 4\n0 1 0 1\n0 0 1 1\n")
        target = tmp_path / "p.txt"
        target.write_text("2 1\n10\n10\n")
        report_path = tmp_path / "hull.json"
        code = main(
            [
                "hull", "--points", str(points), "--target", str(target),
                "--report", str(report_path),
            ]
        )
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["status"] == "not_in_hull"
        assert all(m < 0 for m in report["witness_margins"])

    def test_inside_point_exit_zero(self, tmp_path):
        points = tmp_path / "square.txt"
        points.write_text("2 4\n0 1 0 1\n0 0 1 1\n")
        target = tmp_path / "p.txt"
        target.write_text("2 1\n0.5\n0.5\n")
        code = main(
            ["hull", "--points", str(points), "--target", str(target),
             "--epsilon", "0.05"]
        )
        assert code == 0


class TestotherCommands:
    def test_analyze(self, ex2_files, tmp_path):
        matrix, rhs = ex2_files
        report_path = tmp_path / "analysis.json"
        code = main(
            ["analyze", "--matrix", matrix, "--rhs", rhs, "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["log_tau_star"] >= report["log_tau_star_prime"]
        assert report["delta0_lower"] > 0.0

    def test_oracle_linear(self, ex2_files, tmp_path):
        matrix, rhs = ex2_files
        report_path = tmp_path / "oracle.json"
        code = main(
            ["oracle", "--matrix", matrix, "--rhs", rhs, "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert np.allclose(report["x_star"], [-1.0, -2.0], atol=1e-12)
        assert report["t_star"] == pytest.approx(2.0)

    def test_oracle_membership(self, tmp_path):
        points = tmp_path / "pts.txt"
        points.write_text("2 3\n0 2 0\n0 0 2\n")
        target = tmp_path / "q.txt"
        target.write_text("2 1\n0.5\n0.5\n")
        assert main(["oracle", "--points", str(points), "--target", str(target)]) == 0

    def test_oracle_requires_inputs(self):
        assert main(["oracle"]) == 2

    def test_bench_rows_sorted(self, tmp_path):
        report_path = tmp_path / "bench.json"
        code = main(
            [
                "bench", "--suite", "nonneg", "--sizes", "3", "5",
                "--count", "2", "--epsilon0", "0.1", "--seed", "7",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        ids = [row["id"] for row in report["rows"]]
        assert ids == sorted(ids)
        assert len(ids) == 4
        assert all(row["status"] == "converged" for row in report["rows"])


class TestNoTraceback:
    @pytest.fixture
    def ones_in_null_space_files(self, tmp_path):
        # A e = 0, so power iteration from the all-ones vector finds nothing.
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        matrix.write_text("2 2\n1 -1\n1 -1\n")
        rhs.write_text("2 1\n1\n0\n")
        return str(matrix), str(rhs)

    def test_analyze_ones_in_null_space(self, ones_in_null_space_files, tmp_path):
        matrix, rhs = ones_in_null_space_files
        report_path = tmp_path / "analysis.json"
        code = main(
            ["analyze", "--matrix", matrix, "--rhs", rhs, "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["lambda_max"] == pytest.approx(4.0, rel=1e-12)
        assert report["near_singular"]

    def test_solve_ones_in_null_space(self, ones_in_null_space_files, tmp_path):
        matrix, rhs = ones_in_null_space_files
        report_path = tmp_path / "report.json"
        code = main(
            [
                "solve", "--matrix", matrix, "--rhs", rhs, "--max-iters", "100",
                "--report", str(report_path),
            ]
        )
        assert code == 1
        assert json.loads(report_path.read_text())["status"] == "cap_exceeded"

    def test_header_larger_than_data(self, tmp_path, capsys):
        # The header declares 7.28 TiB; the rows present are checked first.
        path = tmp_path / "huge.txt"
        path.write_text("1000000 1000000\n1 2\n")
        code = main(["analyze", "--matrix", str(path), "--rhs", str(path)])
        assert code == 2
        assert "expected 1000000 data rows, found 1" in capsys.readouterr().err

    def test_memory_error_exit_two(self, ex1_files, monkeypatch, capsys):
        def load_matrix(path, fmt=None):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(matio, "load_matrix", load_matrix)
        matrix, rhs = ex1_files
        assert main(["analyze", "--matrix", matrix, "--rhs", rhs]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"

    def test_degenerate_pivot_exit_two(self, tmp_path, monkeypatch, capsys):
        def run_hull(instance, config):
            raise DegeneratePivot("pivot coincides with the current iterate")

        monkeypatch.setattr(cli, "run_hull", run_hull)
        points, target = tmp_path / "pts.txt", tmp_path / "q.txt"
        points.write_text("2 2\n0 1\n0 1\n")
        target.write_text("2 1\n2\n2\n")
        assert main(["hull", "--points", str(points), "--target", str(target)]) == 2
        assert "error: pivot coincides" in capsys.readouterr().err

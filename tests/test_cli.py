"""File formats, CLI subcommands, reports, and traces."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import example2_system, reference_run_hull
from hullsolve import SolveConfig, cli, matio, solve_incremental
from hullsolve.cli import main
from hullsolve.hull import (
    INIT_CENTROID,
    NOT_IN_HULL,
    DegeneratePivot,
    HullConfig,
    HullInstance,
    run_hull,
)
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

    @staticmethod
    def _reference_matrix_market(text):
        # Line by line, filling cells in file order: the parse the loader,
        # whose array body is one vectorised conversion, must match bit
        # for bit.
        lines = [
            raw for raw in text.split("\n")[1:] if raw.strip() and not raw.lstrip().startswith("%")
        ]
        _, layout, _, symmetry = text.split("\n")[0].split()[1:]
        symmetric = symmetry == "symmetric"
        rows, cols = (int(s) for s in lines[0].split()[:2])
        if layout == "array":
            # Column by column, from the diagonal down when symmetric.
            cells = [(i, j) for j in range(cols) for i in range(j if symmetric else 0, rows)]
            values = [float(f) for raw in lines[1:] for f in raw.split()]
        else:
            cells = [(int(raw.split()[0]) - 1, int(raw.split()[1]) - 1) for raw in lines[1:]]
            values = [float(raw.split()[2]) for raw in lines[1:]]
        out = np.zeros((rows, cols))
        for (i, j), value in zip(cells, values):
            out[i, j] = value
            if symmetric:
                out[j, i] = value
        return out

    @pytest.mark.parametrize("layout", ["array", "coordinate"])
    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_matrix_market_matches_line_by_line_parse(self, tmp_path, layout, symmetry):
        rng = np.random.default_rng(71)
        n = 9
        values = [repr(float(v)) for v in rng.normal(size=n * n)]
        body = ["% a comment", ""]
        if layout == "array":
            count = n * n if symmetry == "general" else n * (n + 1) // 2
            body.append(f"{n} {n}")
            body += [" ".join(values[k:k + 3]) for k in range(0, count, 3)]
        else:
            # Repeated cells, and in the symmetric case mirrored ones: the
            # entry later in the file holds.
            cells = rng.integers(1, n + 1, size=(60, 2))
            body.append(f"{n} {n} {len(cells)}")
            body += [f"{i} {j} {v}" for (i, j), v in zip(cells, values)]
        body.insert(6, "   % an indented comment")
        text = f"%%MatrixMarket matrix {layout} real {symmetry}\n" + "\n".join(body) + "\n"
        path = tmp_path / "m.mtx"
        path.write_text(text)
        expected = self._reference_matrix_market(text)
        assert load_matrix(str(path)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "layout, body, line, message",
        [
            ("array", "2 2\n1\n% c\n\n2 x\n3\n", 7, "could not parse a numeric value"),
            ("array", "2 2\n1\n2\n3\n\n", 7, "expected 4 values, found 3"),
            ("coordinate", "2 2 2\n1 1 1\n", 4, "declared 2 entries, found 1"),
            ("coordinate", "2 2 1\n1 1 1\n\n2 2 2\n", 6, "declared 1 entries, found 2"),
            ("coordinate", "2 2 2\n1 1 1\n% c\n2 2\n", 6, "entry must be 'i j value'"),
            ("coordinate", "2 2 2\n1 1 1\n2 2.0 1\n", 5, "could not parse entry"),
            ("coordinate", "2 2 2\n1 1 1\n3 1 1\n", 5, "index out of range"),
            ("coordinate", "2 2 2\n99999999999999999999999 1 1\n1 1 1\n", 4, "index out of range"),
        ],
    )
    def test_matrix_market_errors_name_their_line(self, tmp_path, layout, body, line, message):
        path = tmp_path / "bad.mtx"
        path.write_text(f"%%MatrixMarket matrix {layout} real general\n% c\n{body}")
        with pytest.raises(ParseError) as info:
            load_matrix(str(path))
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("layout, sizes", [("array", "2 3"), ("coordinate", "2 3 0")])
    def test_matrix_market_symmetric_must_be_square(self, tmp_path, layout, sizes):
        path = tmp_path / "sym.mtx"
        path.write_text(f"%%MatrixMarket matrix {layout} real symmetric\n{sizes}\n")
        with pytest.raises(ParseError) as info:
            load_matrix(str(path))
        assert str(info.value) == "line 2: a symmetric matrix must be square"

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

    def test_init_centroid_matches_library(self, ex2_files, tmp_path):
        matrix, rhs = ex2_files
        report_path = tmp_path / "report.json"
        main(["solve", "--matrix", matrix, "--rhs", rhs, "--init", "centroid",
              "--report", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["config"]["init_rule"] == INIT_CENTROID
        centroid = solve_incremental(example2_system(), SolveConfig(init_rule=INIT_CENTROID))
        nearest = solve_incremental(example2_system(), SolveConfig())
        assert (report["status"], report["iterations"]) == (centroid.status, centroid.iterations)
        assert centroid.iterations != nearest.iterations

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

    def test_init_centroid_matches_library(self, tmp_path):
        rng = np.random.default_rng(19)
        points = rng.normal(size=(3, 8))
        center = points.mean(axis=1)
        target = center + 0.5 * (points[:, 3] - center)
        points_path, target_path = tmp_path / "pts.txt", tmp_path / "q.txt"
        np.savetxt(points_path, points, fmt="%.17g", header="3 8", comments="")
        np.savetxt(target_path, target[:, None], fmt="%.17g", header="3 1", comments="")
        report_path = tmp_path / "hull.json"
        main(["hull", "--points", str(points_path), "--target", str(target_path),
              "--init", "centroid", "--report", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["config"]["init_rule"] == INIT_CENTROID
        instance = HullInstance(points, target)
        centroid = run_hull(instance, HullConfig(epsilon=1e-2, init_rule=INIT_CENTROID))
        nearest = run_hull(instance, HullConfig(epsilon=1e-2))
        assert (report["status"], report["iterations"]) == (centroid.status, centroid.iterations)
        assert centroid.iterations != nearest.iterations

    @pytest.mark.parametrize(
        "spread, max_iters, status",
        [(0.0, None, "in_hull_approx"), (1.5, None, "not_in_hull"), (0.0, 3, "cap_exceeded")],
    )
    def test_trace_rows_match_run_hull(self, tmp_path, spread, max_iters, status):
        # One row per step, i,0.0,gap,,pivot,0, then the verdict row.
        rng = np.random.default_rng(19)
        points = rng.normal(size=(3, 8))
        center = points.mean(axis=1)
        target = center + spread * (points[:, 3] - center)
        points_path, target_path = tmp_path / "pts.txt", tmp_path / "q.txt"
        trace_path = tmp_path / "trace.csv"
        points_path.write_text("3 8\n" + "\n".join(" ".join("%.17g" % v for v in row) for row in points))
        target_path.write_text("3 1\n" + "\n".join("%.17g" % v for v in target))
        argv = ["hull", "--points", str(points_path), "--target", str(target_path),
                "--trace", str(trace_path)]
        if max_iters is not None:
            argv += ["--max-iters", str(max_iters)]
        main(argv)
        instance = HullInstance(points, target)
        config = HullConfig(epsilon=1e-2, max_iterations=max_iters)
        outcome = run_hull(instance, config)
        assert outcome.status == status and outcome.iterations > 0
        rows = [line.split(",") for line in trace_path.read_text().splitlines()]
        assert rows[0] == TRACE_HEADER.split(",")
        steps, verdict = rows[1:-1], rows[-1]
        assert [int(r[0]) for r in steps] == list(range(1, outcome.iterations + 1))
        assert all(r[1] == "0.0" and r[3] == "" and r[5] == "0" for r in steps)
        assert [int(r[4]) for r in steps] == reference_run_hull(instance, config)["pivots"]
        gaps = [float(r[2]) for r in steps]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] == outcome.iterate.gap
        assert verdict == [
            str(outcome.iterations), "0.0", repr(outcome.iterate.gap), "", "",
            "1" if outcome.status == NOT_IN_HULL else "0",
        ]


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

    def test_oracle_brute_rejects_zero_grid(self, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        points.write_text("3 4\n1 0 0 1\n0 1 0 1\n0 0 1 1\n")
        target = tmp_path / "q.txt"
        target.write_text("3 1\n0\n0\n0\n")
        argv = ["oracle", "--points", str(points), "--target", str(target)]
        assert main(argv + ["--grid-k", "0"]) == 2
        assert "grid_k" in capsys.readouterr().err

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
        # A e = 0: the all-ones vector lies in the null space of A.
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
        assert report["near_singular"] is True

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

    def test_underflowing_matrix_exit_two(self, tmp_path, capsys):
        # Example 2 at 2^-540: the squares of every entry underflow to 0,
        # although no column is zero.
        system = example2_system()
        a, b = np.ldexp(system.a, -540), np.ldexp(system.b, -540)
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        matrix.write_text("2 2\n%.17g %.17g\n%.17g %.17g\n" % tuple(a.ravel()))
        rhs.write_text("2 1\n%.17g\n%.17g\n" % tuple(b))
        assert main(["solve", "--matrix", str(matrix), "--rhs", str(rhs)]) == 2
        assert capsys.readouterr().err == (
            "error: matrix too small: a squared norm underflows to 0; rescale the input\n"
        )

    def test_degenerate_pivot_exit_two(self, tmp_path, monkeypatch, capsys):
        def run_hull(instance, config):
            raise DegeneratePivot("pivot coincides with the current iterate")

        monkeypatch.setattr(cli, "run_hull", run_hull)
        points, target = tmp_path / "pts.txt", tmp_path / "q.txt"
        points.write_text("2 2\n0 1\n0 1\n")
        target.write_text("2 1\n2\n2\n")
        assert main(["hull", "--points", str(points), "--target", str(target)]) == 2
        assert "error: pivot coincides" in capsys.readouterr().err

    def test_target_within_rounding_of_a_point_exit_zero(self, tmp_path):
        pts = np.random.default_rng(19).normal(size=(3, 8))
        centroid = pts.mean(axis=1)
        q = centroid + 1.0 * (pts[:, 5] - centroid)
        points, target = tmp_path / "pts.txt", tmp_path / "q.txt"
        points.write_text("3 8\n" + "".join(" ".join(map(repr, r)) + "\n" for r in pts.tolist()))
        target.write_text("3 1\n" + "".join(f"{v!r}\n" for v in q.tolist()))
        report_path = tmp_path / "hull.json"
        argv = ["hull", "--points", str(points), "--target", str(target)]
        assert main(argv + ["--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert (report["status"], report["iterations"]) == ("in_hull_approx", 0)
        assert report["certifying_vertex"] == 6

    def test_degenerate_pivot_no_point_certifies_exit_two(self, tmp_path, capsys):
        points, target = tmp_path / "pts.txt", tmp_path / "q.txt"
        points.write_text("2 3\n1 1 1\n1 1 1\n")
        target.write_text(f"2 1\n1\n{1.0 + 2.0**-52!r}\n")
        assert main(["hull", "--points", str(points), "--target", str(target)]) == 2
        assert capsys.readouterr().err == "error: pivot coincides with the current iterate\n"

    def test_shape_mismatch_same_message_everywhere(self, ex1_files, tmp_path, capsys):
        matrix, rhs2 = ex1_files
        rhs = tmp_path / "b3.txt"
        rhs.write_text("3 1\n1\n2\n3\n")
        for command in (["solve"], ["solve", "--mode", "nonneg"], ["analyze"], ["oracle"]):
            assert main(command + ["--matrix", matrix, "--rhs", str(rhs)]) == 2
            err = capsys.readouterr().err
            assert err == "error: matrix is 2x2, right-hand side has length 3\n"
        # oracle --points on 2-d points (the exact 2-d oracle) and 3-d ones;
        # the triangle's oracle once answered for (0.5, 0.5) instead.
        triangle, points3, target3 = tmp_path / "t.txt", tmp_path / "p3.txt", tmp_path / "q3.txt"
        triangle.write_text("2 3\n0 2 0\n0 0 2\n")
        points3.write_text("3 2\n1 0\n0 1\n0 0\n")
        target3.write_text("3 1\n0.5\n0.5\n1\n")
        for command, points, target, dims in (
            ("hull", matrix, rhs, (2, 3)),
            ("oracle", matrix, rhs, (2, 3)),
            ("oracle", triangle, target3, (2, 3)),
            ("oracle", points3, rhs2, (3, 2)),
        ):
            assert main([command, "--points", str(points), "--target", str(target)]) == 2
            err = capsys.readouterr().err
            assert err == "error: points live in dimension %d, target in %d\n" % dims

    @pytest.mark.parametrize(
        "mode, option",
        [
            ([], ["--delta0", "0.01"]),
            ([], ["--skip-phase1"]),
            (["--mode", "incremental"], ["--delta0", "nan"]),
            (["--mode", "nonneg"], ["--increment", "quantized:1"]),
        ],
    )
    def test_option_of_the_other_mode_exit_two(self, ex1_files, tmp_path, capsys, mode, option):
        matrix, rhs = ex1_files
        report_path = tmp_path / "report.json"
        argv = ["solve", "--matrix", matrix, "--rhs", rhs, *mode, *option]
        assert main([*argv, "--report", str(report_path)]) == 2
        other = "nonneg" if option[0] == "--increment" else "incremental"
        assert capsys.readouterr().err == f"error: {option[0]} does not apply to --mode {other}\n"
        assert not report_path.exists()

    @pytest.mark.parametrize("mode", ["incremental", "nonneg"])
    def test_increment_echo_without_the_option(self, ex1_files, tmp_path, mode):
        matrix, rhs = ex1_files
        report_path = tmp_path / "report.json"
        argv = ["solve", "--matrix", matrix, "--rhs", rhs, "--mode", mode]
        assert main([*argv, "--report", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["config"]["increment"] == "quantized:1"

    @pytest.mark.parametrize("quantum", ["0", "-5"])
    def test_bad_quantum_exit_two(self, ex2_files, capsys, quantum):
        matrix, rhs = ex2_files
        argv = ["solve", "--matrix", matrix, "--rhs", rhs, "--increment", f"quantized:{quantum}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: quantum must be a positive integer\n"

    @pytest.mark.parametrize("epsilon", ["1e-200", "1e-160"])
    def test_tiny_epsilon_exit_two(self, tmp_path, capsys, epsilon):
        # 48 / epsilon^2, the default cap, divides by zero or overflows.
        points, target = tmp_path / "square.txt", tmp_path / "p.txt"
        points.write_text("2 4\n0 1 0 1\n0 0 1 1\n")
        target.write_text("2 1\n0.3\n0.6\n")
        argv = ["hull", "--points", str(points), "--target", str(target), "--epsilon", epsilon]
        assert main(argv) == 2
        assert f"epsilon {float(epsilon)!r} is too small" in capsys.readouterr().err

    def test_tiny_epsilon_with_a_cap_runs(self, tmp_path):
        points, target = tmp_path / "square.txt", tmp_path / "p.txt"
        points.write_text("2 4\n0 1 0 1\n0 0 1 1\n")
        target.write_text("2 1\n0.3\n0.6\n")
        report_path = tmp_path / "hull.json"
        argv = [
            "hull", "--points", str(points), "--target", str(target), "--epsilon", "1e-200",
            "--max-iters", "10", "--report", str(report_path),
        ]
        assert main(argv) == 1
        report = json.loads(report_path.read_text())
        assert (report["status"], report["iterations"]) == ("cap_exceeded", 10)
        assert report["config"]["max_iterations"] == 10

    @pytest.mark.parametrize("delta0", ["nan", "inf"])
    def test_non_finite_delta0_exit_two(self, tmp_path, capsys, delta0):
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        matrix.write_text("2 2\n2 1\n1 3\n")
        rhs.write_text("2 1\n1\n1\n")
        argv = [
            "solve", "--matrix", str(matrix), "--rhs", str(rhs), "--mode", "nonneg",
            "--epsilon0", "0.01", "--delta0", delta0,
        ]
        assert main(argv) == 2
        assert "finite positive delta0_user" in capsys.readouterr().err

    def test_delta0_above_rho_exit_two(self, tmp_path, capsys):
        # rho = sqrt(10) bounds every hull-to-origin distance.
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        matrix.write_text("2 2\n2 1\n1 3\n")
        rhs.write_text("2 1\n1\n1\n")
        report_path = tmp_path / "report.json"
        argv = [
            "solve", "--matrix", str(matrix), "--rhs", str(rhs), "--mode", "nonneg",
            "--epsilon0", "0.01", "--delta0", "1e300", "--report", str(report_path),
        ]
        assert main(argv) == 2
        assert "exceeds rho = 3.16" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize(
        "args",
        [["--epsilon0", "1e-170"], ["--epsilon0", "0.01", "--delta0", "1e-160"]],
        ids=["tiny_epsilon0", "tiny_delta0"],
    )
    @pytest.mark.parametrize("cap", [None, "2"], ids=["no_cap", "cap"])
    def test_phase2_cap_bound_not_finite(self, tmp_path, capsys, args, cap):
        # (48 / epsilon0^2) (rho / delta0')^2 divides by zero or overflows;
        # a cap of one's own still runs.
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        matrix.write_text("2 2\n2 1\n1 3\n")
        rhs.write_text("2 1\n1\n1\n")
        report_path = tmp_path / "report.json"
        argv = [
            "solve", "--matrix", str(matrix), "--rhs", str(rhs), "--mode", "nonneg",
            *args, "--report", str(report_path),
        ]
        if cap is None:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "too small for the iteration bound" in err and "--max-iters" in err
            assert not report_path.exists()
        else:
            assert main([*argv, "--max-iters", cap]) == 1
            report = json.loads(report_path.read_text())
            assert (report["status"], report["iterations"]) == ("cap_exceeded", 2)


def _readme_synopsis_flags() -> dict[str, set[str]]:
    """{subcommand: the --flags of its lines in the README's command-line
    synopsis}."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    flags: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("hullsolve "):
            command = flags.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z0-9-]+", line))
    return flags


def test_readme_synopsis_lists_every_option():
    # --report and --trace are documented once, under the synopsis.
    subparsers = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")}
        - {"--help", "--report", "--trace"}
        for name, sub in subparsers.choices.items()
    }
    assert _readme_synopsis_flags() == parsed

"""File formats, CLI subcommands, reports, and traces."""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    centroid_coeffs,
    example2_system,
    hull_membership_2d,
    inside_instance_2d,
    nonneg_system,
    reference_run_hull,
)
from hullsolve import (
    SolveConfig,
    cli,
    matio,
    solve_incremental,
)
from hullsolve.cli import main
from hullsolve.hull import (
    MAX_ITERATIONS,
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

    @pytest.mark.parametrize(
        "layout, body, message",
        [
            ("array", "2 2\n1\n2\n3", "expected 4 values, found 3"),
            ("coordinate", "2 2 2\n1 1 1", "declared 2 entries, found 1"),
        ],
    )
    def test_short_body_without_final_newline_names_its_last_line(
        self, tmp_path, layout, body, message
    ):
        path = tmp_path / "short.mtx"
        path.write_text(f"%%MatrixMarket matrix {layout} real general\n{body}")
        with pytest.raises(ParseError) as info:
            load_matrix(str(path))
        last = 1 + body.count("\n") + 1
        assert str(info.value) == f"line {last}: {message}"

    @pytest.mark.parametrize(
        "layout, body, line, message",
        [
            ("array", "2 2\n1\n% a\x0cb\u2028c\n2\nx\n3\n", 6, "could not parse a numeric value"),
            ("coordinate", "2 2 2\n1 1 1\n% a\x0cb\x85c\n2 x 1\n", 5, "could not parse entry"),
        ],
    )
    def test_form_feed_in_a_comment_starts_no_line(self, tmp_path, layout, body, line, message):
        # Only a line end starts a line, as readlines() numbers them;
        # str.splitlines() would also break at the form feed, U+0085 and
        # U+2028.
        path = tmp_path / "bad.mtx"
        path.write_text(f"%%MatrixMarket matrix {layout} real general\n{body}", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_matrix(str(path))
        assert str(info.value) == f"line {line}: {message}"

    def test_array_body_held_once(self, tmp_path):
        # The file's text, its token list and the values: a copy of the
        # text as a list of lines, or joined again, would add about 80
        # bytes a value.
        values = np.random.default_rng(29).normal(size=100_000)
        path = tmp_path / "column.mtx"
        path.write_text(
            f"%%MatrixMarket matrix array real general\n{values.size} 1\n"
            + "".join(f"{v!r}\n" for v in values.tolist())
        )
        tracemalloc.start()
        try:
            loaded = load_matrix(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded[:, 0], values)
        assert peak / values.size < 150

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
                "--mode", "nonneg", "--epsilon0", "0.05", "--phase1",
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

    @pytest.mark.parametrize(
        "mode, options, phase1",
        [
            pytest.param("incremental", [], 0, id="incremental"),
            pytest.param("nonneg", [], 0, id="nonneg"),
            pytest.param("nonneg", ["--phase1"], 17, id="nonneg-phase1"),
        ],
    )
    def test_trace_conservation(self, tmp_path, mode, options, phase1):
        # A positive solution, so both modes converge; with --phase1, Phase 1
        # takes 17 steps, and its rows come first, with alpha_b empty.
        system, _ = nonneg_system(np.random.default_rng(3), 20, diag_boost=0.0)
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        np.savetxt(matrix, system.a, fmt="%.17g", header="20 20", comments="")
        np.savetxt(rhs, system.b[:, None], fmt="%.17g", header="20 1", comments="")
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.csv"
        code = main(
            [
                "solve", "--matrix", str(matrix), "--rhs", str(rhs), "--mode", mode,
                "--epsilon0", "0.01", "--report", str(report_path), "--trace", str(trace_path),
                *options,
            ]
        )
        assert code == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == TRACE_HEADER
        rows = [line.split(",") for line in lines[1:]]
        report = json.loads(report_path.read_text())
        assert float(rows[-1][2]) == report["residual_norm"]
        assert int(rows[-1][0]) == report["iterations"]
        iters = [int(r[0]) for r in rows]
        assert iters == sorted(iters)
        assert report["diagnostics"].get("phase1_iterations", 0) == phase1
        assert [r[3] == "" for r in rows] == [i < phase1 for i in range(len(rows))]
        assert iters[:phase1] == list(range(1, phase1 + 1))

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
        # --init centroid starts from equal weights on the n + 1 = 3 points.
        matrix, rhs = ex2_files
        first_rows = {}
        for init in ("centroid", "nearest"):
            report_path, trace_path = tmp_path / f"{init}.json", tmp_path / f"{init}.csv"
            main(["solve", "--matrix", matrix, "--rhs", rhs, "--init", init,
                  "--report", str(report_path), "--trace", str(trace_path)])
            first_rows[init] = trace_path.read_text().splitlines()[1].split(",")
        report = json.loads((tmp_path / "centroid.json").read_text())
        assert report["config"]["init_rule"] == "centroid"
        library = solve_incremental(example2_system(), SolveConfig(init_coeffs=centroid_coeffs(3)))
        assert (report["status"], report["iterations"], report["x"]) == (
            library.status, library.iterations, library.x.tolist()
        )
        # The first step tells the starts apart, far from any tie: it ends
        # at residual 0.6 with t = 2.2 from the centroid, at 1.2 with
        # t = 1.4 from the nearest point.
        for init, t, value in (("centroid", 2.2, 0.6), ("nearest", 1.4, 1.2)):
            assert float(first_rows[init][1]) == pytest.approx(t, abs=1e-12)
            assert float(first_rows[init][2]) == pytest.approx(value, abs=1e-3)

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
    def test_near_facet_query_ends_in_few_steps(self, tmp_path):
        # The target lies 0.05 off the edge v_0 v_1 of ten points in 5-D.
        # Triangle steps alone crawled toward a witness in 128 steps.
        rng = np.random.default_rng(20261018)
        points = rng.normal(size=(5, 10))
        rng.uniform(0.5, 1.5, 10)  # two draws the query does not use
        rng.normal(size=5)
        target = (points[:, 0] + points[:, 1]) / 2 + 0.05 * rng.normal(size=5)
        points_path, target_path = tmp_path / "pts.txt", tmp_path / "q.txt"
        np.savetxt(points_path, points, fmt="%.17g", header="5 10", comments="")
        np.savetxt(target_path, target[:, None], fmt="%.17g", header="5 1", comments="")
        report_path = tmp_path / "hull.json"
        code = main(["hull", "--points", str(points_path), "--target", str(target_path),
                     "--report", str(report_path)])
        assert code == 1
        report = json.loads(report_path.read_text())
        assert (report["status"], report["iterations"]) == ("not_in_hull", 9)
        assert all(m < 0 for m in report["witness_margins"])

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
        first_rows = {}
        for init in ("centroid", "nearest"):
            report_path, trace_path = tmp_path / f"{init}.json", tmp_path / f"{init}.csv"
            main(["hull", "--points", str(points_path), "--target", str(target_path),
                  "--init", init, "--report", str(report_path), "--trace", str(trace_path)])
            first_rows[init] = trace_path.read_text().splitlines()[1].split(",")
        report = json.loads((tmp_path / "centroid.json").read_text())
        assert report["config"]["init_rule"] == "centroid"
        library = run_hull(
            HullInstance(points, target), HullConfig(epsilon=1e-2, init_coeffs=centroid_coeffs(8))
        )
        assert (report["status"], report["iterations"], report["coeffs"]) == (
            library.status, library.iterations, library.iterate.coeffs.tolist()
        )
        # The target is as far from the centroid as from its nearest point,
        # so delta0 cannot tell the starts apart; the first step can: it
        # pivots on point 5 to gap 0.177 from the centroid, on point 1 to
        # gap 0.048 from the nearest point.
        for init, pivot, gap in (("centroid", "5", 0.177), ("nearest", "1", 0.048)):
            assert first_rows[init][4] == pivot
            assert float(first_rows[init][2]) == pytest.approx(gap, abs=1e-3)

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
        config = HullConfig(epsilon=1e-2, max_iterations=max_iters or MAX_ITERATIONS)
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

    def test_oracle_has_no_grid_option(self, tmp_path):
        points = tmp_path / "pts.txt"
        points.write_text("3 4\n1 0 0 1\n0 1 0 1\n0 0 1 1\n")
        target = tmp_path / "q.txt"
        target.write_text("3 1\n0\n0\n0\n")
        argv = ["oracle", "--points", str(points), "--target", str(target)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--grid-k", "1"])
        assert exc.value.code == 2

    def test_oracle_points_in_3d(self, tmp_path, capsys):
        # The hull's nearest point to the origin is the centroid of the
        # three unit vectors, at distance 1/sqrt(3).
        points = tmp_path / "pts.txt"
        points.write_text("3 5\n1 0 0 1 2\n0 1 0 1 2\n0 0 1 1 3\n")
        target = tmp_path / "q.txt"
        target.write_text("3 1\n0\n0\n0\n")
        report_path = tmp_path / "oracle.json"
        argv = ["oracle", "--points", str(points), "--target", str(target)]
        assert main(argv + ["--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["membership"] is False
        assert report["delta_exact"] == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
        coeffs = np.array(report["coeffs"])
        assert np.allclose(coeffs, [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)
        assert "delta_exact = 0.577350269189625" in capsys.readouterr().out

    def test_oracle_membership_matches_2d_geometry(self, tmp_path):
        points = tmp_path / "pts.txt"
        target = tmp_path / "q.txt"
        report_path = tmp_path / "oracle.json"
        rng = np.random.default_rng(12)
        queries = []
        for _ in range(10):
            pts, p = inside_instance_2d(rng, n_points=5)
            queries.append((pts, p + rng.normal(size=2)))
        # A triangle 1e-6 thick and a target inside it, 5e-7 from its apex.
        queries.append((np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 1e-6]]), np.array([0.0, 5e-7])))
        for pts, p in queries:
            rows = "".join(" ".join(map(repr, r)) + "\n" for r in pts.tolist())
            points.write_text(f"2 {pts.shape[1]}\n{rows}")
            target.write_text("2 1\n" + "".join(f"{v!r}\n" for v in p.tolist()))
            argv = ["oracle", "--points", str(points), "--target", str(target)]
            assert main(argv + ["--report", str(report_path)]) == 0
            report = json.loads(report_path.read_text())
            inside, delta = hull_membership_2d(pts, p)
            assert report["membership"] is inside
            assert report["delta_exact"] == pytest.approx(delta, rel=1e-12)
            assert np.linalg.norm(pts @ report["coeffs"] - p) == pytest.approx(delta, abs=1e-12)

    @pytest.mark.parametrize(
        "points_text, target_text, message",
        [
            ("2 3\n0 2 nan\n0 0 2\n", "2 1\n0.5\n0.5\n", "points and target must be finite\n"),
            ("3 2\n0 2\n0 0\n1 inf\n", "3 1\n1\n1\n1\n", "points and target must be finite\n"),
            ("2 2\n1e200 0\n0 1\n", "2 1\n0\n0\n", "points too large: a squared norm"),
            ("3 2\n1 0\n0 1\n0 0\n", "3 1\n1e-200\n0\n0\n", "target too small: a squared norm"),
        ],
    )
    def test_oracle_refuses_what_hull_refuses(
        self, tmp_path, capsys, points_text, target_text, message
    ):
        points, target = tmp_path / "pts.txt", tmp_path / "q.txt"
        points.write_text(points_text)
        target.write_text(target_text)
        for command in ("oracle", "hull"):
            assert main([command, "--points", str(points), "--target", str(target)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_bench_rows_sorted(self, tmp_path):
        report_path = tmp_path / "bench.json"
        wanted = {"nonneg": "converged", "membership": "in_hull_approx", "general": "converged"}
        for suite, status in wanted.items():
            code = main(
                [
                    "bench", "--suite", suite, "--sizes", "3", "5",
                    "--count", "2", "--epsilon0", "0.1", "--seed", "7",
                    "--report", str(report_path),
                ]
            )
            assert code == 0
            report = json.loads(report_path.read_text())
            ids = [row["id"] for row in report["rows"]]
            assert ids == sorted(ids)
            assert len(ids) == 4
            assert [row["status"] for row in report["rows"]] == [status] * 4


class TestOutputPath:
    """Every subcommand's summary, printed after its report and trace."""

    @pytest.fixture
    def files(self, tmp_path):
        texts = {
            "square": "2 4\n0 1 0 1\n0 0 1 1\n",
            "inside": "2 1\n0.25\n0.5\n",
            "outside": "2 1\n2\n0.5\n",
            "identity": "2 2\n1 0\n0 1\n",
            "diagonal": "2 2\n2 0\n0 1\n",
            "ones": "2 1\n1\n1\n",
            "quarters": "2 1\n0.25\n0.75\n",
            "mixed": "2 1\n1\n-1\n",
            "flipped": "2 1\n-1\n1\n",
        }
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        return tmp_path

    @staticmethod
    def _argv(files, command):
        return [str(files / w) if (files / w).is_file() else w for w in command.split()]

    @pytest.mark.parametrize(
        "command, code, stdout",
        [
            ("hull --points square --target inside", 0,
             "hull: in_hull_approx gap=3.231258e-03 iterations=4\n"),
            ("hull --points square --target outside", 1,
             "hull: not_in_hull gap=1.118034e+00 iterations=0\n"),
            ("solve --matrix diagonal --rhs ones", 0,
             "solve: converged residual=0.000000e+00 shift=0 iterations=1\n"),
            ("solve --matrix identity --rhs flipped --epsilon0 0.1", 0,
             "solve: converged residual=1.313198e-01 shift=0.907143 iterations=3\n"),
            ("solve --matrix identity --rhs quarters --epsilon0 1e-12 --max-iters 1", 1,
             "solve: cap_exceeded iterations=1\n"),
            ("analyze --matrix diagonal --rhs mixed", 0,
             "n = 2\nrho = 2.0\nlambda_min = 1.0\nlambda_max = 4.0\n"
             "log_det_q = 1.3862943611198904\nq_min = 1.0\nw_norm = 2.23606797749979\n"
             "delta0_lower = 0.7071067811865475\ndelta0_lower_stated = 0.7071067811865475\n"
             "bound_discrepancy = False\nlog_tau_star = 2.19101331733694\n"
             "log_tau_star_prime = 0.8047189562170498\ntau_star = 8.944271909999152\n"
             "tau_star_prime = 2.236067977499789\nnear_singular = False\n"),
            ("oracle --matrix diagonal --rhs mixed", 0, "x_star = [0.5, -1.0]\nt_star = 1.0\n"),
            ("oracle --points square --target outside", 0,
             "membership = False\ndelta_exact = 1.0\ncoeffs = [0.0, 0.5, 0.0, 0.5]\n"),
            ("bench --suite nonneg --sizes 3 --count 2", 0,
             "bench[0] n=3 converged iterations=2 seconds=S\n"
             "bench[1] n=3 converged iterations=4 seconds=S\n"),
        ],
    )
    def test_stdout(self, files, capsys, command, code, stdout):
        argv = self._argv(files, command)
        report_path = files / "report.json"
        assert main([*argv, "--report", str(report_path)]) == code
        out = capsys.readouterr().out
        assert re.sub(r"seconds=\d+\.\d{4}\n", "seconds=S\n", out) == stdout
        assert json.loads(report_path.read_text())["command"] == argv[0]

    @pytest.mark.parametrize(
        "command",
        ["hull --points square --target inside", "solve --matrix diagonal --rhs ones"],
    )
    def test_failed_trace_write_prints_nothing(self, files, capsys, command):
        # The report is written first, then the trace; the summary is
        # printed only after both.
        argv = self._argv(files, command)
        report_path, trace_path = files / "report.json", files / "missing" / "trace.csv"
        assert main([*argv, "--report", str(report_path), "--trace", str(trace_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2]")
        assert json.loads(report_path.read_text())["command"] == argv[0]
        assert not trace_path.parent.exists()


class TestNoTraceback:
    @pytest.fixture
    def ones_in_null_space_files(self, tmp_path):
        # A e = 0: the all-ones vector lies in the null space of A.
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        matrix.write_text("2 2\n1 -1\n1 -1\n")
        rhs.write_text("2 1\n1\n0\n")
        return str(matrix), str(rhs)

    def test_closed_stdout_exit_two(self, tmp_path):
        # A reader that stops early, as grep -q does, closes the pipe
        # before the summary is written.
        points, target = tmp_path / "tiny_points.txt", tmp_path / "tiny_target.txt"
        points.write_text("2 3\n0 1e-15 0\n0 0 1e-15\n")
        target.write_text("2 1\n2e-15\n2e-15\n")
        package_root = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        argv = ["oracle", "--points", str(points), "--target", str(target)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "hullsolve", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        lines = err.decode().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: cannot write the summary to stdout: ")

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

    def test_solve_ones_in_null_space(self, ones_in_null_space_files, tmp_path, capsys):
        # Both modes refuse the singular matrix before their first step.
        matrix, rhs = ones_in_null_space_files
        report_path = tmp_path / "report.json"
        for mode in ("incremental", "nonneg"):
            argv = ["solve", "--matrix", matrix, "--rhs", rhs, "--mode", mode]
            assert main([*argv, "--report", str(report_path)]) == 2
            assert "singular" in capsys.readouterr().err
            assert not report_path.exists()

    def test_header_larger_than_data(self, tmp_path, capsys):
        # The header declares 7.28 TiB; the rows present are checked first.
        path = tmp_path / "huge.txt"
        path.write_text("1000000 1000000\n1 2\n")
        code = main(["analyze", "--matrix", str(path), "--rhs", str(path)])
        assert code == 2
        assert "expected 1000000 data rows, found 1" in capsys.readouterr().err

    def test_negative_entry_count_exit_two(self, ex1_files, tmp_path, capsys):
        # The count once indexed past the entries found, an IndexError.
        _, rhs = ex1_files
        path = tmp_path / "neg.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 -1\n")
        assert main(["analyze", "--matrix", str(path), "--rhs", rhs]) == 2
        assert capsys.readouterr().err == "error: line 2: entry count must not be negative\n"

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
            ([], ["--phase1"]),
            (["--mode", "incremental"], ["--phase1"]),
            (["--mode", "nonneg"], ["--increment", "quantized:1"]),
            (["--mode", "nonneg"], ["--increment", "double"]),
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
        # The config echoes what the mode reads: the shift rule in
        # incremental mode, the delta0 policy in nonneg mode, the cap in both.
        matrix, rhs = ex1_files
        report_path = tmp_path / "report.json"
        argv = ["solve", "--matrix", matrix, "--rhs", rhs, "--mode", mode]
        assert main([*argv, "--report", str(report_path)]) == 0
        own = {"incremental": {"increment": "quantized:1"}, "nonneg": {"delta0_policy": "skip"}}
        assert json.loads(report_path.read_text())["config"] == {
            "mode": mode,
            "epsilon0": 1e-8,
            "init_rule": "nearest_vertex",
            "max_iterations": 10**6,
            **own[mode],
        }

    @pytest.mark.parametrize("quantum", ["0", "-5"])
    def test_bad_quantum_exit_two(self, ex2_files, capsys, quantum):
        matrix, rhs = ex2_files
        argv = ["solve", "--matrix", matrix, "--rhs", rhs, "--increment", f"quantized:{quantum}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: quantum must be a positive integer\n"

    @pytest.mark.parametrize(
        "spec, policy, quantum",
        [("double", "double_plus_one", None), ("quantized", "quantized", 1)],
    )
    def test_increment_spelling_matches_library(self, ex2_files, tmp_path, spec, policy, quantum):
        # Bare "quantized" is "quantized:1".
        matrix, rhs = ex2_files
        report_path = tmp_path / "report.json"
        argv = ["solve", "--matrix", matrix, "--rhs", rhs, "--increment", spec]
        assert main([*argv, "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["increment"] == spec
        increment = "double" if quantum is None else f"quantized:{quantum}"
        library = solve_incremental(example2_system(), SolveConfig(), increment=increment)
        assert report["diagnostics"]["policy"] == library.diagnostics["policy"] == policy
        assert (report["status"], report["iterations"], report["shift_t"], report["x"]) == (
            library.status, library.iterations, library.shift_t, library.x.tolist()
        )

    @pytest.mark.parametrize("spec", ["quantized:2", "double"])
    def test_increment_spec_matches_library(self, ex2_files, tmp_path, spec):
        # solve passes its --increment spec to solve_incremental as it is.
        matrix, rhs = ex2_files
        report_path = tmp_path / "report.json"
        argv = ["solve", "--matrix", matrix, "--rhs", rhs, "--increment", spec]
        assert main([*argv, "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        library = solve_incremental(example2_system(), SolveConfig(), increment=spec)
        assert report["config"]["increment"] == spec
        assert (
            report["status"], report["iterations"], report["shift_t"], report["x"],
            report["diagnostics"],
        ) == (
            library.status, library.iterations, library.shift_t, library.x.tolist(),
            library.diagnostics,
        )

    @pytest.mark.parametrize("mode", ["incremental", "nonneg"])
    @pytest.mark.parametrize(
        "a, b, message",
        [
            # Every column's and b's squared norm fits, but ||A e||^2
            # overflows, and ||b(t)||^2 would be priced from an inf.
            (5e153 * np.array([[1.0, 1.0, 1.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]]),
             5e152 * np.array([3.0, 0.1, 0.1]),
             "A e too large: a squared norm overflows; rescale the input"),
            # A e is nonzero, but its squared norm underflows to 0.
            (1e-147 * np.array([[1.0, -1.0], [1.0, -1.0 + 2.0**-52]]),
             1e-147 * np.array([-1.0, 2.0]),
             "A e too small: a squared norm underflows to 0; rescale the input"),
        ],
        ids=["ones-image-overflows", "ones-image-underflows"],
    )
    def test_out_of_scale_ones_image_exit_two(self, tmp_path, capsys, a, b, message, mode):
        n = len(b)
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        matrix.write_text(f"{n} {n}\n" + "".join(
            " ".join(f"{v!r}" for v in row) + "\n" for row in a.tolist()
        ))
        rhs.write_text(f"{n} 1\n" + "".join(f"{v!r}\n" for v in b.tolist()))
        argv = ["solve", "--matrix", str(matrix), "--rhs", str(rhs), "--mode", mode]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_subnormal_ones_image_exit_two(self, tmp_path, capsys):
        # ||A e||^2 is 5e-324, subnormal: the incremental solve divided by
        # alpha_b ||A e||^2, which rounds to 0, and ended in a traceback.
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        a = 1e-146 * np.array([[1.0, -1.0], [1.0, -1.0 + 2.0**-52]])
        rows = (" ".join(f"{v!r}" for v in row) for row in a.tolist())
        matrix.write_text("2 2\n" + "".join(row + "\n" for row in rows))
        rhs.write_text("2 1\n1e-146\n0\n")
        assert main(["solve", "--matrix", str(matrix), "--rhs", str(rhs)]) == 2
        assert capsys.readouterr().err == (
            "error: A e too small: a squared norm underflows to 0; rescale the input\n"
        )

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_bench_count_below_one_exit_two(self, tmp_path, capsys, count):
        # A bench of no instances is an input error, not an empty report.
        report_path = tmp_path / "bench.json"
        argv = [
            "bench", "--suite", "membership", "--sizes", "3", "--count", count,
            "--report", str(report_path),
        ]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: --count must be at least 1, not {count}\n")
        assert not report_path.exists()

    @pytest.mark.parametrize("epsilon", ["1e-200", "1e-160"])
    def test_tiny_epsilon_answers(self, tmp_path, epsilon):
        # 48 / epsilon^2 divides by zero or overflows, and caps nothing: the
        # query answers well inside the default cap.
        points, target = tmp_path / "square.txt", tmp_path / "p.txt"
        points.write_text("2 4\n0 1 0 1\n0 0 1 1\n")
        target.write_text("2 1\n0.3\n0.6\n")
        report_path = tmp_path / "hull.json"
        argv = [
            "hull", "--points", str(points), "--target", str(target), "--epsilon", epsilon,
            "--report", str(report_path),
        ]
        assert main(argv) == 0
        report = json.loads(report_path.read_text())
        assert (report["status"], report["iterations"]) == ("in_hull_approx", 32)
        assert report["config"]["max_iterations"] == 10**6

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

    @pytest.mark.parametrize("delta0", ["nan", "inf", "1e300"])
    def test_delta0_option_is_gone_exit_two(self, tmp_path, capsys, delta0):
        # delta0' comes only from Phase 1 (--phase1); the values the option
        # once refused, non-finite or above rho, now meet argparse's usage
        # error.
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        matrix.write_text("2 2\n2 1\n1 3\n")
        rhs.write_text("2 1\n1\n1\n")
        report_path = tmp_path / "report.json"
        argv = [
            "solve", "--matrix", str(matrix), "--rhs", str(rhs), "--mode", "nonneg",
            "--epsilon0", "0.01", "--delta0", delta0, "--report", str(report_path),
        ]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hullsolve") and "unrecognized arguments: --delta0" in err
        assert not report_path.exists()

    @pytest.mark.parametrize(
        "scale, epsilon0, cap",
        [
            pytest.param("", "1e-170", None, id="no_cap-tiny_epsilon0"),
            pytest.param("", "1e-170", "2", id="cap-tiny_epsilon0"),
            pytest.param("e-155", "0.01", "2", id="cap-tiny_delta0"),
        ],
    )
    def test_phase2_cap_bound_not_finite(self, tmp_path, scale, epsilon0, cap):
        # (48 / epsilon0^2) (rho / delta0')^2 divides by zero or overflows,
        # and caps nothing: the solve converges in 4 steps, and a cap of
        # one's own ends it. Columns scaled by 1e-155 against b = (1, 1)
        # give Phase 1 a delta0' near 1e-155.
        matrix, rhs = tmp_path / "A.txt", tmp_path / "b.txt"
        matrix.write_text(f"2 2\n2{scale} 1{scale}\n1{scale} 3{scale}\n")
        rhs.write_text("2 1\n1\n1\n")
        report_path = tmp_path / "report.json"
        argv = [
            "solve", "--matrix", str(matrix), "--rhs", str(rhs), "--mode", "nonneg",
            "--epsilon0", epsilon0, "--phase1", "--report", str(report_path),
        ]
        code = main(argv if cap is None else [*argv, "--max-iters", cap])
        report = json.loads(report_path.read_text())
        expected = (0, "converged", 4) if cap is None else (1, "cap_exceeded", 2)
        assert (code, report["status"], report["iterations"]) == expected
        if scale:
            assert report["phase1_delta0_prime"] < 1e-150


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

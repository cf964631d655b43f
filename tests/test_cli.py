"""File formats, CLI subcommands, reports, and traces."""

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    CLI_CASES,
    CLI_FILES,
    NONNEG_COPIES,
    centroid_coeffs,
    example2_system,
    given_arrays,
    nearest_half_coeffs,
    nonneg_system,
    reference_run_hull,
    run_cli,
    write_cli_files,
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
from oracles import min_norm_point


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


@pytest.mark.parametrize("case", CLI_CASES, ids=[case.command for case in CLI_CASES])
def test_cli_case(tmp_path, case):
    write_cli_files(tmp_path)
    code, out, err = run_cli(tmp_path, case.command, tmp_path / "report.json",
                             tmp_path / "trace.csv")
    assert code == case.code, err
    if case.status is not None:
        lines = out.splitlines()
        assert lines and all(case.status in line.split() for line in lines), out
    if case.stderr is not None:
        assert err == case.stderr + "\n"
    if case.report is not None:
        report = json.loads((tmp_path / "report.json").read_text())
        assert {key: reduce(dict.get, key.split("."), report) for key in case.report} == case.report


def test_nonneg_copies_give_one_x(tmp_path):
    write_cli_files(tmp_path)
    reports = []
    for k, command in enumerate(NONNEG_COPIES):
        report = tmp_path / f"report{k}.json"
        assert run_cli(tmp_path, command, report, tmp_path / "trace.csv")[0] == 0
        reports.append(json.loads(report.read_text()))
    phase2 = [r["iterations"] - r["diagnostics"]["phase1_iterations"] for r in reports]
    assert [r["x"] for r in reports] == [reports[0]["x"]] * len(reports)
    assert phase2 == [phase2[0]] * len(reports)
    assert reports[1]["diagnostics"]["phase1_iterations"] > 0


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
            # numpy converts whitespace alone to [-1.0].
            ("array", "1 1\n \n", 4, "expected 1 values, found 0"),
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

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13])
    def test_array_body_read_in_chunks(self, tmp_path, monkeypatch, chunk):
        # Chunks of a few characters cut values, comment lines, CRLF ends
        # and blank lines apart; the values are those of the whole body
        # converted at once, bit for bit.
        values = [repr(float(v)) for v in np.random.default_rng(73).normal(size=12)]
        lines = ["4 3", *values[:5], "% a comment", "", *values[5:9], "  ", "   % indented",
                 " ".join(values[9:]), ""]
        path = tmp_path / "m.mtx"
        path.write_bytes(("%%MatrixMarket matrix array real general\r\n"
                          + "\r\n".join(lines)).encode())
        body = "\n".join(raw for raw in lines[1:] if "%" not in raw)
        expected = np.fromstring(body, sep=" ").reshape((3, 4)).T
        monkeypatch.setattr(matio, "_CHUNK", chunk)
        assert load_matrix(str(path)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [1, 4, 7, 1 << 20])
    @pytest.mark.parametrize("name, message", [
        ("bad_value.mtx", "line 7: could not parse a numeric value"),
        ("separator_line.mtx", "line 5: could not parse a numeric value"),
        ("short_array.mtx", "line 6: expected 4 values, found 3"),
    ])
    def test_array_errors_in_a_later_chunk(self, tmp_path, monkeypatch, chunk, name, message):
        # The line a refused value or a count error names does not depend
        # on the chunk it falls in: every chunk goes through _numbers, which
        # numbers its lines from where the chunk starts.
        texts = {**CLI_FILES, "short_array.mtx": "%%MatrixMarket matrix array real general\n"
                 "2 2\n1\n2\n\n3"}
        (tmp_path / name).write_text(texts[name], encoding="utf-8")
        monkeypatch.setattr(matio, "_CHUNK", chunk)
        with pytest.raises(ParseError) as info:
            load_matrix(str(tmp_path / name))
        assert str(info.value) == message

    def test_array_body_held_once(self, tmp_path):
        # A Matrix Market array file peaks at its values and their joined
        # copy, read a chunk at a time, DenseText at its lines and the
        # values: the whole text, or a token list, would add about 20 or 60
        # bytes a value.
        values = np.random.default_rng(29).normal(size=100_000)
        body = f"{values.size} 1\n" + "".join(f"{v!r}\n" for v in values.tolist())
        for name, head, bound in [
            ("column.mtx", "%%MatrixMarket matrix array real general\n", 30),
            ("column.txt", "", 150),
        ]:
            path = tmp_path / name
            path.write_text(head + body)
            tracemalloc.start()
            try:
                loaded = load_matrix(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(loaded[:, 0], values)
            assert peak / values.size < bound, name

    @pytest.mark.parametrize(
        "head, line",
        [pytest.param("", 2, id="dense"),
         pytest.param("%%MatrixMarket matrix array real general\n", 3, id="array")],
    )
    @pytest.mark.parametrize(
        "sizes, data, expected",
        [pytest.param("1 2", f"{token} 7", [[float(token), 7.0]], id=token)
         for token in ["nan", "inf", "Infinity", "-0", "1e999", "+1.5", ".5", "5."]]
        + [
            pytest.param("1 2", "1\x0b7", [[1.0, 7.0]], id="vertical-tab"),
            pytest.param("1 2", "1\x0c7", [[1.0, 7.0]], id="form-feed"),
            # Text mode reads "\r" as a line end, so it parts two rows.
            pytest.param("2 1", "1\r7", [[1.0], [7.0]], id="carriage-return"),
        ]
        + [pytest.param("1 2", data, None, id=name) for name, data in [
            ("underscore", "1_0 7"),
            ("arabic-indic-digit", "\u0663 7"),
            ("fullwidth-digit", "\uff11 7"),
            ("line-separator", "1\u20287"),
            ("next-line", "1\x857"),
            ("percent-after-a-value", "1 7 % note"),
        ]]
        # A line of whitespace that numpy does not skip is no blank line:
        # it is read, and refused, before the row after it.
        + [pytest.param("1 2", f"{space}\n1 7", None, id=f"{name}-line") for name, space in [
            ("file-separator", "\x1c"),
            ("line-separator", "\u2028"),
            ("no-break-space", "\xa0"),
        ]],
    )
    def test_number_syntax(self, tmp_path, head, line, sizes, data, expected):
        # numpy's C conversion reads both formats' values. Python's float
        # accepts every refused case here but the percent sign and the
        # whitespace lines.
        path = tmp_path / "m.txt"
        path.write_text(f"{head}{sizes}\n{data}\n", encoding="utf-8")
        if expected is not None:
            assert load_matrix(str(path)).tobytes() == np.array(expected).tobytes()
            return
        with pytest.raises(ParseError) as info:
            load_matrix(str(path))
        assert str(info.value) == f"line {line}: could not parse a numeric value"

    @pytest.mark.parametrize("space", ["\x1c", "\u2028", "\xa0"],
                             ids=["file-separator", "line-separator", "no-break-space"])
    @pytest.mark.parametrize(
        "text, line, message",
        [
            pytest.param("%%MatrixMarket matrix coordinate real general\n1 2 3\n1 1 7\n{}\n"
                         "1 2 8\n", 4, "entry must be 'i j value'", id="coordinate-entry"),
            pytest.param("%%MatrixMarket matrix array real general\n{}\n1 1\n7\n", 2,
                         "array size line must be 'rows cols'", id="size-line"),
            pytest.param("{}\n1 1\n7\n", 1, "header must be two integers 'rows cols'",
                         id="dense-header"),
        ],
    )
    def test_whitespace_numpy_reads_is_no_blank_line(self, tmp_path, text, line, message, space):
        # The one blank-line rule of every layout: only the whitespace
        # numpy's conversion skips makes a line blank. Another line is
        # read where it stands, as an entry, a size line or a header.
        path = tmp_path / "m.txt"
        path.write_text(text.format(space), encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_matrix(str(path))
        assert str(info.value) == f"line {line}: {message}"

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
        # An incremental solve ends as solve_incremental does from explicit
        # equal weights on the n + 1 = 3 points.
        matrix, rhs = ex2_files
        report_path = tmp_path / "report.json"
        assert main(["solve", "--matrix", matrix, "--rhs", rhs, "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        library = solve_incremental(example2_system(), SolveConfig(init_coeffs=centroid_coeffs(3)))
        assert (report["status"], report["iterations"], report["x"], report["shift_t"]) == (
            library.status, library.iterations, library.x.tolist(), library.shift_t
        )

    def test_default_start_is_the_centroid(self, ex2_files, tmp_path):
        # The report names the centroid start, and the first step tells it
        # apart from the start half on the nearest point and half on -b(0),
        # far from any tie: it ends at residual 0.6 with t = 2.2 from the
        # centroid, at 1.2 with t = 1.4 from that start.
        matrix, rhs = ex2_files
        report_path, trace_path = tmp_path / "report.json", tmp_path / "trace.csv"
        assert main(["solve", "--matrix", matrix, "--rhs", rhs,
                     "--report", str(report_path), "--trace", str(trace_path)]) == 0
        first_row = trace_path.read_text().splitlines()[1].split(",")
        assert json.loads(report_path.read_text())["config"]["init_rule"] == "centroid"
        assert float(first_row[1]) == pytest.approx(2.2, abs=1e-12)
        assert float(first_row[2]) == pytest.approx(0.6, abs=1e-3)
        system = example2_system()
        config = SolveConfig(init_coeffs=nearest_half_coeffs(system), record_trace=True)
        other = solve_incremental(system, config).trace[0]
        assert other.t == pytest.approx(1.4, abs=1e-12)
        assert other.value == pytest.approx(1.2, abs=1e-3)

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


SOLVE_KEYS = {
    "command", "config", "status", "iterations", "shift_t", "residual_norm",
    "relative_residual", "phase1_delta0_prime", "inner_epsilon", "diagnostics", "wall_time_s",
}
HULL_KEYS = {
    "command", "config", "status", "iterations", "gap", "initial_gap_delta0", "coeffs",
    "wall_time_s",
}
WITNESS_KEYS = {"witness_margins", "distance_bracket"}


@pytest.mark.parametrize(
    "data, argv, status, keys",
    [
        pytest.param("ex1", ["solve", "--mode", "nonneg"], "converged", SOLVE_KEYS | {"x"},
                     id="solve-converged-nonneg"),
        pytest.param("ex2", ["solve"], "converged", SOLVE_KEYS | {"x"},
                     id="solve-converged-incremental"),
        pytest.param("ex2", ["solve", "--mode", "nonneg"], "infeasible_nonneg",
                     SOLVE_KEYS | WITNESS_KEYS, id="solve-infeasible"),
        pytest.param("ex2", ["solve", "--max-iters", "1"], "cap_exceeded", SOLVE_KEYS,
                     id="solve-cap"),
        pytest.param("0.5", ["hull", "--epsilon", "0.05"], "in_hull_approx",
                     HULL_KEYS | {"certifying_vertex"}, id="hull-in"),
        pytest.param("10", ["hull"], "not_in_hull", HULL_KEYS | WITNESS_KEYS, id="hull-out"),
    ],
)
def test_report_keys(ex1_files, ex2_files, tmp_path, data, argv, status, keys):
    # A report takes an outcome's fields as they are, so a field added to
    # or dropped from an outcome shows here. data names a solve's files, or
    # gives both coordinates of a hull query's target on the unit square.
    if argv[0] == "solve":
        matrix, rhs = ex1_files if data == "ex1" else ex2_files
        argv = argv + ["--matrix", matrix, "--rhs", rhs]
    else:
        points, target = tmp_path / "square.txt", tmp_path / "p.txt"
        points.write_text("2 4\n0 1 0 1\n0 0 1 1\n")
        target.write_text(f"2 1\n{data}\n{data}\n")
        argv = argv + ["--points", str(points), "--target", str(target)]
    report_path = tmp_path / "report.json"
    main(argv + ["--report", str(report_path)])
    report = json.loads(report_path.read_text())
    assert report["status"] == status
    assert set(report) == keys


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

    @pytest.mark.parametrize(
        "spread, max_iters, status",
        [(0.0, None, "in_hull_approx"), (1.5, None, "not_in_hull"), (0.0, 3, "cap_exceeded")],
    )
    def test_trace_rows_match_run_hull(self, tmp_path, spread, max_iters, status):
        # One row per step, i,0.0,gap,,pivot,0, then the verdict row; the
        # run starts at the nearest point, as run_hull does with no weights.
        rng = np.random.default_rng(19)
        points = rng.normal(size=(3, 8))
        center = points.mean(axis=1)
        target = center + spread * (points[:, 3] - center)
        points_path, target_path = tmp_path / "pts.txt", tmp_path / "q.txt"
        trace_path, report_path = tmp_path / "trace.csv", tmp_path / "report.json"
        points_path.write_text("3 8\n" + "\n".join(" ".join("%.17g" % v for v in row) for row in points))
        target_path.write_text("3 1\n" + "\n".join("%.17g" % v for v in target))
        argv = ["hull", "--points", str(points_path), "--target", str(target_path),
                "--trace", str(trace_path), "--report", str(report_path)]
        if max_iters is not None:
            argv += ["--max-iters", str(max_iters)]
        main(argv)
        instance = HullInstance(points, target)
        config = HullConfig(epsilon=1e-2, max_iterations=max_iters or MAX_ITERATIONS)
        outcome = run_hull(instance, config)
        assert outcome.status == status and outcome.iterations > 0
        assert json.loads(report_path.read_text())["config"] == {
            "epsilon": 1e-2, "init_rule": "nearest_vertex", "max_iterations": config.max_iterations
        }
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
        # The ground truth of tests/oracles.py checks its input as hull does.
        points, target = tmp_path / "pts.txt", tmp_path / "q.txt"
        points.write_text(points_text)
        target.write_text(target_text)
        assert main(["hull", "--points", str(points), "--target", str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        with pytest.raises(ValueError) as refused:
            min_norm_point(load_matrix(str(points)), load_vector(str(target)))
        assert f"{refused.value}\n".startswith(message)

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
             "solve: converged residual=7.878521e-09 shift=0.5 iterations=11\n"),
            ("solve --matrix identity --rhs flipped --epsilon0 0.1", 0,
             "solve: converged residual=0.000000e+00 shift=1 iterations=1\n"),
            ("solve --matrix identity --rhs quarters --epsilon0 1e-12 --max-iters 1", 0,
             "solve: converged residual=0.000000e+00 shift=0.5 iterations=1\n"),
            ("solve --matrix diagonal --rhs ones --max-iters 1", 1,
             "solve: cap_exceeded iterations=1\n"),
            ("analyze --matrix diagonal --rhs mixed", 0,
             "n = 2\nrho = 2.0\nlambda_min = 1.0\nlambda_max = 4.0\n"
             "log_det_q = 1.3862943611198908\nq_min = 1.0\nw_norm = 2.23606797749979\n"
             "delta0_lower = 0.7071067811865475\ndelta0_lower_stated = 0.7071067811865475\n"
             "bound_discrepancy = False\nlog_tau_star = 2.191013317336941\n"
             "log_tau_star_prime = 0.8047189562170503\ntau_star = 8.944271909999161\n"
             "tau_star_prime = 2.23606797749979\nnear_singular = False\n"),
            ("bench --suite nonneg --sizes 3 --count 2", 0,
             "bench[0] n=3 converged iterations=5 seconds=S\n"
             "bench[1] n=3 converged iterations=1 seconds=S\n"),
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
        write_cli_files(tmp_path)
        points, target = tmp_path / "tiny_points.txt", tmp_path / "tiny_target.txt"
        package_root = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        argv = ["hull", "--points", str(points), "--target", str(target)]
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

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_stdout_leaks_no_descriptor(self, tmp_path, monkeypatch, capsys):
        # In process, stdout is a stream whose writes fail as on a closed
        # pipe; its descriptor is a scratch file that dup2 may overwrite.
        write_cli_files(tmp_path)
        points, target = tmp_path / "tiny_points.txt", tmp_path / "tiny_target.txt"
        scratch = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return scratch

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            before = len(os.listdir("/proc/self/fd"))
            code = main(["hull", "--points", str(points), "--target", str(target)])
            after = len(os.listdir("/proc/self/fd"))
        finally:
            os.close(scratch)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write the summary to stdout: ")
        assert after == before

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
        # Example 2 with its second column 2^-600 below the first: no
        # column is zero, but that column's squared norm underflows to 0
        # at any scale that keeps the largest entry a double.
        a, b = given_arrays(example2_system())
        a[:, 1] = np.ldexp(a[:, 1], -600)
        assert _solve_files(tmp_path, a, b) == (2, None)
        assert capsys.readouterr().err == (
            "error: matrix too small: a squared norm underflows to 0; rescale the input\n"
        )

    def test_tiny_matrix_solves_as_unscaled(self, tmp_path):
        # Example 2 at 2^-540, where every square of an entry underflows,
        # is stored as Example 2 is: the same solve, its residual 2^-540
        # times Example 2's.
        a, b = given_arrays(example2_system())
        code, report = _solve_files(tmp_path, a, b)
        tiny_code, tiny = _solve_files(tmp_path, np.ldexp(a, -540), np.ldexp(b, -540))
        assert (code, report["status"]) == (0, "converged")
        assert (tiny_code, *_same_run(tiny)) == (code, *_same_run(report))
        assert tiny["residual_norm"] == math.ldexp(report["residual_norm"], -540)

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
        for command in (["solve"], ["solve", "--mode", "nonneg"], ["analyze"]):
            assert main(command + ["--matrix", matrix, "--rhs", str(rhs)]) == 2
            err = capsys.readouterr().err
            assert err == "error: matrix is 2x2, right-hand side has length 3\n"
        points3 = tmp_path / "p3.txt"
        points3.write_text("3 2\n1 0\n0 1\n0 0\n")
        for points, target, dims in ((matrix, rhs, (2, 3)), (points3, rhs2, (3, 2))):
            assert main(["hull", "--points", str(points), "--target", str(target)]) == 2
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
        assert capsys.readouterr() == ("", f"error: {option[0]} does not apply to --mode {other}\n")
        assert not report_path.exists()

    @pytest.mark.parametrize("mode", ["incremental", "nonneg"])
    def test_increment_echo_without_the_option(self, ex1_files, tmp_path, mode):
        # The config echoes what the mode reads: the shift rule in
        # incremental mode, the delta0 policy in nonneg mode, the cap in both.
        matrix, rhs = ex1_files
        report_path = tmp_path / "report.json"
        argv = ["solve", "--matrix", matrix, "--rhs", rhs, "--mode", mode]
        assert main([*argv, "--report", str(report_path)]) == 0
        own = {
            "incremental": {"increment": "quantized:1", "init_rule": "centroid"},
            "nonneg": {"delta0_policy": "skip", "init_rule": "centroid"},
        }
        assert json.loads(report_path.read_text())["config"] == {
            "mode": mode,
            "epsilon0": 1e-8,
            "max_iterations": 10**6,
            **own[mode],
        }

    @pytest.mark.parametrize("quantum", ["0", "-5"])
    def test_bad_quantum_exit_two(self, ex2_files, capsys, quantum):
        matrix, rhs = ex2_files
        argv = ["solve", "--matrix", matrix, "--rhs", rhs, "--increment", f"quantized:{quantum}"]
        assert main(argv) == 2
        err = f"error: bad increment spec 'quantized:{quantum}'; use quantized or double\n"
        assert capsys.readouterr().err == err

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

    @pytest.mark.parametrize("spec", ["quantized:1", "double"])
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
            # A e is nonzero, but 2^-600 below the largest entry: its
            # squared norm underflows to 0 at any scale that keeps that
            # entry a double.
            (np.array([[1.0, -1.0], [2.0**-600, 0.0]]), np.array([1.0, 0.0]),
             "A e too small: a squared norm underflows to 0; rescale the input"),
        ],
        ids=["ones-image-underflows"],
    )
    def test_out_of_scale_ones_image_exit_two(self, tmp_path, capsys, a, b, message, mode):
        assert _solve_files(tmp_path, a, b, "--mode", mode) == (2, None)
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_subnormal_ones_image_exit_two(self, tmp_path, capsys):
        # ||A e||^2 is subnormal next to the largest entry: A e = 0 to
        # working precision, and the incremental solve would divide by
        # alpha_b ||A e||^2, which may round to 0.
        a = np.array([[1.0, -1.0], [2.0**-520, 0.0]])
        assert _solve_files(tmp_path, a, np.array([1.0, 0.0])) == (2, None)
        assert capsys.readouterr().err == (
            "error: A e = 0: the all-ones vector is a null vector; A is singular\n"
        )

    @pytest.mark.parametrize("mode, steps", [("incremental", 0), ("nonneg", 1)])
    def test_ones_image_past_double_range_solves_as_unscaled(self, tmp_path, mode, steps):
        # Every column's and b's squared norm fits, but ||A e||^2 overflows
        # a double. The system is stored times a power of two, as it is
        # 2^-510 times smaller: the same solve, its residual 2^510 times.
        a = 5e153 * np.array([[1.0, 1.0, 1.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
        b = 5e152 * np.array([3.0, 0.1, 0.1])
        code, report = _solve_files(tmp_path, a, b, "--mode", mode)
        small_code, small = _solve_files(
            tmp_path, np.ldexp(a, -510), np.ldexp(b, -510), "--mode", mode
        )
        assert (code, report["status"], report["iterations"]) == (0, "converged", steps)
        assert (code, *_same_run(report)) == (small_code, *_same_run(small))
        assert report["residual_norm"] == math.ldexp(small["residual_norm"], 510)
        assert report["relative_residual"] <= 1e-8

    def test_nearly_singular_tiny_system_runs_as_unscaled(self, tmp_path, capsys):
        # A e is nonzero, but its squared norm underflowed to 0 when the
        # solvers ran on A and b as given. The matrix is singular to within
        # 2^-52: the incremental solve runs to its cap as the system 2^480
        # times larger does, and the nonneg solve finds the origin in the
        # hull of the columns.
        a = 1e-147 * np.array([[1.0, -1.0], [1.0, -1.0 + 2.0**-52]])
        b = 1e-147 * np.array([-1.0, 2.0])
        code, report = _solve_files(tmp_path, a, b, "--max-iters", "2000")
        big_code, big = _solve_files(
            tmp_path, np.ldexp(a, 480), np.ldexp(b, 480), "--max-iters", "2000"
        )
        assert (code, report["status"], report["iterations"]) == (1, "cap_exceeded", 2000)
        assert (code, *_same_run(report)) == (big_code, *_same_run(big))
        capsys.readouterr()
        assert _solve_files(tmp_path, a, b, "--mode", "nonneg") == (2, None)
        assert capsys.readouterr().err.startswith(
            "error: origin lies in the convex hull of the columns to tolerance"
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
        "argv, refusal",
        [
            pytest.param(["oracle", "--points", "P", "--target", "Q"],
                         "invalid choice: 'oracle'", id="oracle"),
            pytest.param(["hull", "--points", "P", "--target", "Q", "--init", "centroid"],
                         "unrecognized arguments: --init centroid", id="hull-init"),
            pytest.param(["solve", "--matrix", "A", "--rhs", "B", "--init", "centroid"],
                         "unrecognized arguments: --init centroid", id="solve-init"),
            pytest.param(["solve", "--matrix", "A", "--rhs", "B", "--mode", "nonneg",
                          "--init", "centroid"],
                         "unrecognized arguments: --init centroid", id="solve-nonneg-init"),
        ],
    )
    def test_removed_invocations_exit_two(self, tmp_path, capsys, argv, refusal):
        # The oracle left for tests/oracles.py, and --init for the one start
        # each solver has: both meet argparse's usage error, on input files
        # the commands read without them, before any report is written.
        files = {"P": "2 3\n0 1e-15 0\n0 0 1e-15\n", "Q": "2 1\n2e-15\n2e-15\n",
                 "A": "2 2\n2 1\n1 3\n", "B": "2 1\n1\n1\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        report_path = tmp_path / "report.json"
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--report", str(report_path)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hullsolve") and refusal in err
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


def _solve_files(tmp_path, a, b, *options) -> tuple[int, dict | None]:
    """The exit code and report of hullsolve solve on A and b, written to
    files with every digit."""
    n = len(b)
    matrix, rhs, report = tmp_path / "A.txt", tmp_path / "b.txt", tmp_path / "report.json"
    matrix.write_text(f"{n} {n}\n" + "".join(
        " ".join(f"{v!r}" for v in row) + "\n" for row in a.tolist()
    ))
    rhs.write_text(f"{n} 1\n" + "".join(f"{v!r}\n" for v in b.tolist()))
    report.unlink(missing_ok=True)
    argv = ["solve", "--matrix", str(matrix), "--rhs", str(rhs), "--report", str(report)]
    code = main([*argv, *options])
    return code, json.loads(report.read_text()) if report.exists() else None


def _same_run(report: dict) -> tuple:
    """What a solve's report holds that does not depend on the scale of A
    and b: status, steps, x, shift, relative residual and diagnostics."""
    return tuple(report.get(key) for key in (
        "status", "iterations", "x", "shift_t", "relative_residual", "diagnostics"
    ))


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

"""Matrix, vector, trace, and report I/O for the command-line tool.

Two matrix formats are accepted: Matrix Market (coordinate and array,
real/integer, general or symmetric) and DenseText, a header line "n m"
followed by n rows of m whitespace-separated decimals. Columns of the
loaded matrix are what the hull machinery consumes.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "ParseError",
    "DimensionMismatch",
    "FORMAT_MATRIX_MARKET",
    "FORMAT_DENSE_TEXT",
    "detect_format",
    "load_matrix",
    "load_vector",
    "TRACE_HEADER",
    "write_trace_csv",
    "report_to_json",
]

FORMAT_MATRIX_MARKET = "matrix_market"
FORMAT_DENSE_TEXT = "dense_text"

# Fixed column set; benchmark tooling depends on this exact header.
TRACE_HEADER = "iter,t,gap_or_E,alpha_b,pivot,witness"


class ParseError(Exception):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionMismatch(Exception):
    """Loaded data has a shape incompatible with its declared use."""


def detect_format(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    if first.startswith("%%MatrixMarket"):
        return FORMAT_MATRIX_MARKET
    return FORMAT_DENSE_TEXT


def load_matrix(path: str, fmt: str | None = None) -> np.ndarray:
    """Load a dense matrix from a file; fmt None sniffs the header."""
    if fmt is None:
        fmt = detect_format(path)
    if fmt == FORMAT_MATRIX_MARKET:
        return _load_matrix_market(path)
    if fmt == FORMAT_DENSE_TEXT:
        return _load_dense_text(path)
    raise ValueError(f"unknown format {fmt!r}")


def load_vector(path: str, fmt: str | None = None) -> np.ndarray:
    """Load a vector: any matrix file with a single row or column."""
    m = load_matrix(path, fmt)
    if m.shape[0] == 1 or m.shape[1] == 1:
        return m.reshape(-1)
    raise DimensionMismatch(
        f"{path}: expected a vector, got a {m.shape[0]}x{m.shape[1]} matrix"
    )


def _load_dense_text(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    lineno = 0
    header = None
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            header = raw.split()
            break
    if header is None:
        raise ParseError("empty file, expected a 'rows cols' header", line=1)
    if len(header) != 2:
        raise ParseError("header must be two integers 'rows cols'", line=lineno)
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("header must be two integers 'rows cols'", line=lineno)
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive", line=lineno)
    # Count the data rows before allocating what the header declares.
    found = sum(1 for raw in lines[lineno:] if raw.strip())
    if found < rows:
        raise ParseError(f"expected {rows} data rows, found {found}", line=len(lines))
    out = np.zeros((rows, cols))
    filled = 0
    for offset, raw in enumerate(lines[lineno:], start=lineno + 1):
        if not raw.strip():
            continue
        if filled >= rows:
            raise ParseError(f"expected only {rows} data rows", line=offset)
        fields = raw.split()
        if len(fields) != cols:
            raise ParseError(
                f"expected {cols} values, found {len(fields)}", line=offset
            )
        try:
            out[filled] = [float(f) for f in fields]
        except ValueError:
            raise ParseError("could not parse a numeric value", line=offset)
        filled += 1
    return out


def _load_matrix_market(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    if not lines:
        raise ParseError("empty file, expected a MatrixMarket header", line=1)
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise ParseError("malformed MatrixMarket header", line=1)
    layout, field, symmetry = (token.lower() for token in header[2:5])
    if layout not in ("coordinate", "array"):
        raise ParseError(f"unsupported layout {layout!r}", line=1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field type {field!r}", line=1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=1)

    body = [
        (idx, raw)
        for idx, raw in enumerate(lines[1:], start=2)
        if raw.strip() and not raw.lstrip().startswith("%")
    ]
    if not body:
        raise ParseError("missing size line", line=len(lines) or 1)
    size_line, size_raw = body[0]
    sizes = size_raw.split()
    entries = body[1:]

    if layout == "coordinate":
        if len(sizes) != 3:
            raise ParseError("coordinate size line must be 'rows cols nnz'", line=size_line)
        try:
            rows, cols, nnz = (int(s) for s in sizes)
        except ValueError:
            raise ParseError("coordinate size line must be integers", line=size_line)
        out = np.zeros((rows, cols))
        if len(entries) != nnz:
            where = entries[nnz][0] if len(entries) > nnz else len(lines)
            raise ParseError(
                f"declared {nnz} entries, found {len(entries)}", line=where
            )
        for lineno, raw in entries:
            fields = raw.split()
            if len(fields) != 3:
                raise ParseError("entry must be 'i j value'", line=lineno)
            try:
                i, j = int(fields[0]), int(fields[1])
                value = float(fields[2])
            except ValueError:
                raise ParseError("could not parse entry", line=lineno)
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ParseError("index out of range", line=lineno)
            out[i - 1, j - 1] = value
            if symmetry == "symmetric":
                out[j - 1, i - 1] = value
        return out

    if len(sizes) != 2:
        raise ParseError("array size line must be 'rows cols'", line=size_line)
    try:
        rows, cols = int(sizes[0]), int(sizes[1])
    except ValueError:
        raise ParseError("array size line must be integers", line=size_line)
    values: list[float] = []
    for lineno, raw in entries:
        for fld in raw.split():
            try:
                values.append(float(fld))
            except ValueError:
                raise ParseError("could not parse a numeric value", line=lineno)
    expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
    if len(values) != expected:
        raise ParseError(
            f"expected {expected} values, found {len(values)}", line=len(lines) or 1
        )
    out = np.zeros((rows, cols))
    if symmetry == "general":
        # Array format is column-major.
        out = np.array(values).reshape((cols, rows)).T
    else:
        pos = 0
        for j in range(cols):
            for i in range(j, rows):
                out[i, j] = values[pos]
                out[j, i] = values[pos]
                pos += 1
    return out


def _trace_row(record) -> str:
    pivot = "" if record.pivot is None else str(int(record.pivot))
    alpha = "" if record.alpha_b is None else repr(float(record.alpha_b))
    return ",".join(
        [
            str(int(record.iteration)),
            repr(float(record.t)),
            repr(float(record.value)),
            alpha,
            pivot,
            "1" if record.witness else "0",
        ]
    )


def write_trace_csv(records, path: str) -> None:
    """Write per-iteration records with the fixed trace header."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(TRACE_HEADER + "\n")
        for record in records:
            handle.write(_trace_row(record) + "\n")


def report_to_json(report: dict) -> str:
    """Serialize a run report; parse(serialize(r)) round-trips exactly."""
    return json.dumps(report, indent=2, sort_keys=True)

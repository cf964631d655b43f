"""Matrix, vector, trace, and report I/O for the command-line tool.

Two matrix formats are accepted: Matrix Market (coordinate and array,
real/integer, general or symmetric) and DenseText, a header line "n m"
followed by n rows of m whitespace-separated decimals. Columns of the
loaded matrix are what the hull machinery consumes.

Dense values, a DenseText row or a Matrix Market array body, are converted
by numpy in C (_numbers), in one call per row or per body; only a text it
refuses is split into lines, and halved until the same conversion names
the first line it refuses.
A Matrix Market file is read as its header line, its size line, then its
body in one read(); a coordinate body is split into its entry lines. Both
formats read their size line with _sizes. Errors name lines as
readlines() numbers them, at line ends only: a form feed, U+0085 or U+2028
starts no line. A line is blank, and skipped, only if it holds nothing but
the ASCII whitespace numpy's conversion skips (_blank); any other line is
read, so a line of U+001C or U+2028 alone is refused with its number.
"""

from __future__ import annotations

import json
import re
import warnings

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


# The whitespace numpy's conversion skips between values, C's isspace().
_WHITESPACE = " \t\n\r\x0b\x0c"


def _blank(text: str) -> bool:
    return not text.strip(_WHITESPACE)


class ParseError(ValueError):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionMismatch(ValueError):
    """Loaded data has a shape incompatible with its declared use."""


def detect_format(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    if first.startswith("%%MatrixMarket"):
        return FORMAT_MATRIX_MARKET
    return FORMAT_DENSE_TEXT


def load_matrix(path: str, fmt: str | None = None) -> np.ndarray:
    """Load a dense matrix; fmt None sniffs it from the first line."""
    if fmt is None:
        fmt = detect_format(path)
    if fmt == FORMAT_MATRIX_MARKET:
        return _load_matrix_market(path)
    if fmt == FORMAT_DENSE_TEXT:
        return _load_dense_text(path)
    raise ValueError(f"unknown format {fmt!r}")


def load_vector(path: str) -> np.ndarray:
    """Load a vector: any matrix file with a single row or column."""
    m = load_matrix(path)
    if m.shape[0] == 1 or m.shape[1] == 1:
        return m.reshape(-1)
    raise DimensionMismatch(
        f"{path}: expected a vector, got a {m.shape[0]}x{m.shape[1]} matrix"
    )


def _numbers(text: str, first_line: int) -> np.ndarray:
    """The whitespace-separated decimals of text, converted by numpy in C.

    A text it refuses is a ParseError naming the first line that the same
    conversion refuses alone, text's lines numbered from first_line. The
    text is halved at a line end until one line is left, so a 640,000-line
    body takes some 40 conversions, not one a line.
    """
    with warnings.catch_warnings():
        # numpy 1.x warns on a value it cannot convert and returns the
        # values before it; numpy 2.x raises.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            # numpy converts a blank text to [-1.0].
            if _blank(text):
                return np.zeros(0)
            return np.fromstring(text, sep=" ")
        except (ValueError, DeprecationWarning):
            lines = text.split("\n")
            if len(lines) == 1:
                raise ParseError("could not parse a numeric value", line=first_line) from None
            # No value spans a line end, so one half is refused: the first
            # refused line is in the first half that is.
            half = (len(lines) + 1) // 2
            _numbers("\n".join(lines[:half]), first_line)
            _numbers("\n".join(lines[half:]), first_line + half)
            raise


def _sizes(raw: str, count: int, line: int, form: str, integers: str) -> list[int]:
    """The count integers of a size line, of which rows and cols, the first
    two, must be positive; form and integers are the messages for a wrong
    count and for a field that is not an integer."""
    fields = raw.split()
    if len(fields) != count:
        raise ParseError(form, line=line)
    try:
        sizes = [int(f) for f in fields]
    except ValueError:
        raise ParseError(integers, line=line) from None
    if min(sizes[:2]) < 1:
        raise ParseError("matrix dimensions must be positive", line=line)
    return sizes


def _load_dense_text(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    lineno = next((k for k, raw in enumerate(lines, start=1) if not _blank(raw)), None)
    if lineno is None:
        raise ParseError("empty file, expected a 'rows cols' header", line=1)
    form = "header must be two integers 'rows cols'"
    rows, cols = _sizes(lines[lineno - 1], 2, lineno, form, form)
    # Count the data rows before allocating what the header declares.
    found = sum(1 for raw in lines[lineno:] if not _blank(raw))
    if found < rows:
        raise ParseError(f"expected {rows} data rows, found {found}", line=len(lines))
    out = np.zeros((rows, cols))
    filled = 0
    for offset, raw in enumerate(lines[lineno:], start=lineno + 1):
        if _blank(raw):
            continue
        if filled >= rows:
            raise ParseError(f"expected only {rows} data rows", line=offset)
        values = _numbers(raw, offset)
        if values.size != cols:
            raise ParseError(f"expected {cols} values, found {values.size}", line=offset)
        out[filled] = values
        filled += 1
    return out


# A comment line's text: "%" after only whitespace (str.isspace(), which
# \s follows in a str pattern), up to the next "\n".
_COMMENT_LINE = re.compile(r"^[^\S\n]*%.*", re.MULTILINE)


def _is_data(raw: str) -> bool:
    return not _blank(raw) and not raw.lstrip().startswith("%")


def _last_line(size_line: int, body: str) -> int:
    """The file's last line as readlines() numbers it, for a count error:
    text mode has made every line end "\n", and str.splitlines() would
    split at more."""
    return size_line + body.count("\n") + (bool(body) and not body.endswith("\n"))


def _load_matrix_market(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        size_line, raw = 1, ""
        for size_line, raw in enumerate(handle, start=2):
            if _is_data(raw):
                break
        body = handle.read()
    if not first:
        raise ParseError("empty file, expected a MatrixMarket header", line=1)
    header = first.split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise ParseError("malformed MatrixMarket header", line=1)
    layout, field, symmetry = (token.lower() for token in header[2:5])
    if layout not in ("coordinate", "array"):
        raise ParseError(f"unsupported layout {layout!r}", line=1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field type {field!r}", line=1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=1)
    symmetric = symmetry == "symmetric"
    if not _is_data(raw):
        raise ParseError("missing size line", line=size_line)
    coordinate = layout == "coordinate"
    form = "rows cols nnz" if coordinate else "rows cols"
    counts = _sizes(raw, 2 + coordinate, size_line, f"{layout} size line must be '{form}'",
                    f"{layout} size line must be integers")
    rows, cols = counts[:2]
    if coordinate and counts[2] < 0:
        raise ParseError("entry count must not be negative", line=size_line)
    if symmetric and rows != cols:
        raise ParseError("a symmetric matrix must be square", line=size_line)

    if coordinate:
        nnz = counts[2]
        out = np.zeros((rows, cols))
        entries = [
            (idx, raw)
            for idx, raw in enumerate(body.split("\n"), start=size_line + 1)
            if _is_data(raw)
        ]
        if len(entries) != nnz:
            where = entries[nnz][0] if len(entries) > nnz else _last_line(size_line, body)
            raise ParseError(f"declared {nnz} entries, found {len(entries)}", line=where)
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
            if symmetric:
                out[j - 1, i - 1] = value
        return out

    # Comment lines blanked only if any: the body keeps its line ends.
    values = _numbers(_COMMENT_LINE.sub("", body) if "%" in body else body, size_line + 1)
    expected = rows * cols if not symmetric else rows * (rows + 1) // 2
    if values.size != expected:
        where = _last_line(size_line, body)
        raise ParseError(f"expected {expected} values, found {values.size}", line=where)
    if not symmetric:
        # Array format is column-major.
        return values.reshape((cols, rows)).T
    # Column-major lower triangle: column k holds rows k..n-1, which is
    # the row-major upper triangle of the transpose.
    out = np.zeros((rows, cols))
    upper_i, upper_j = np.triu_indices(rows)
    out[upper_j, upper_i] = values
    out[upper_i, upper_j] = values
    return out


def _trace_row(record) -> str:
    pivot = "" if record.pivot is None else str(int(record.pivot))
    alpha = "" if record.alpha_b is None else repr(float(record.alpha_b))
    return (f"{int(record.iteration)},{float(record.t)!r},{float(record.value)!r},"
            f"{alpha},{pivot},{1 if record.witness else 0}")


def write_trace_csv(records, path: str) -> None:
    """Write per-iteration records with the fixed trace header."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(TRACE_HEADER + "\n")
        for record in records:
            handle.write(_trace_row(record) + "\n")


def report_to_json(report: dict) -> str:
    """Serialize a run report; parse(serialize(r)) round-trips exactly."""
    return json.dumps(report, indent=2, sort_keys=True)

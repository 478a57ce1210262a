"""File formats: matrix/vector text files, instance JSON, and CSV helpers.

The matrix text format is one row per line, decimal floats separated by
single commas, no header.  Values are printed with 17 significant digits so
every float64 round-trips exactly.
"""

import csv
import json
import math

import numpy as np

from .errors import ParseError
from .instances import Instance
from .linalg import as_matrix, as_vector
from .omp import SparseSignal


def format_float(x):
    return "%.17g" % float(x)


def format_matrix_text(A):
    A = as_matrix(A)
    return "\n".join(",".join(format_float(x) for x in row) for row in A) + "\n"


def format_vector_text(u):
    return "\n".join(format_float(x) for x in as_vector(u)) + "\n"


def read_text(path):
    """The UTF-8 text of the file at ``path``; bytes that do not decode are a
    ParseError naming the file and line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        message = f"{path}: line {line}: not UTF-8 text ({exc.reason})"
        raise ParseError(message, line=line) from None


def parse_matrix_text(text):
    """Parse the matrix text format; errors carry 1-based line numbers.

    Entries must be finite: "nan", "inf" and overflowing literals such as
    "1e999" are rejected.  numpy's C text reader parses the non-blank lines
    of ``str.splitlines``, with the same correctly rounded conversion as
    ``float``.  Where it refuses the text, the line loop ``_parse_lines``
    names the bad line or parses the few literals only ``float`` accepts
    (``1_0``, non-ASCII digits), so what is accepted, its values and the
    error messages are the line loop's alone.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("no rows found", line=1)
    if "\x1f" in text:
        # numpy strips "\x1f" around a field as whitespace; float does not
        matrix = _parse_lines(text)
    else:
        try:
            matrix = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            matrix = _parse_lines(text)
    if not np.isfinite(matrix).all():
        _raise_non_finite(text)
    return matrix


def _parse_lines(text):
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}", line=lineno) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(
                f"line {lineno}: expected {width} entries, got {len(row)}",
                line=lineno,
            )
        rows.append(row)
    return np.array(rows)


def _raise_non_finite(text):
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not all(math.isfinite(float(c)) for c in line.split(",")):
            raise ParseError(f"line {lineno}: non-finite entry", line=lineno)


def parse_vector_text(text):
    """A vector file is a matrix file with a single row or a single column."""
    A = parse_matrix_text(text)
    if A.shape[0] == 1:
        return A[0].copy()
    if A.shape[1] == 1:
        return A[:, 0].copy()
    raise ParseError(f"expected a vector, got a {A.shape[0]}x{A.shape[1]} matrix")


def instance_to_json_dict(instance):
    return {
        "A": [[float(x) for x in row] for row in instance.A],
        "x": [float(x) for x in instance.x.values],
        "v": [float(x) for x in instance.v],
        "epsilon": float(instance.epsilon),
        "noise_model": instance.noise_model,
        "metadata": instance.metadata,
    }


def instance_from_json_dict(doc):
    return Instance(
        A=np.array(doc["A"], dtype=float),
        x=SparseSignal(np.array(doc["x"], dtype=float)),
        v=np.array(doc["v"], dtype=float),
        epsilon=float(doc["epsilon"]),
        noise_model=doc["noise_model"],
        metadata=dict(doc.get("metadata", {})),
    )


def dumps_json(obj):
    return json.dumps(obj, indent=2) + "\n"


def write_csv(path, header, rows):
    """RFC-4180-style CSV with LF line endings; floats pre-formatted by the
    caller or formatted here with 17 significant digits."""

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_float(value)
        if value is None:
            return ""
        return value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])

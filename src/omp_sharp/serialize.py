"""File formats: matrix/vector text files, instance JSON, and CSV helpers.

The matrix text format is one row per line, decimal floats separated by
single commas, no header.  Values are printed with 17 significant digits so
every float64 round-trips exactly.

``parse_matrix_text`` parses a text and ``read_matrix`` a file, by one
parser.  A file's lines are those of the open file, each split again by
``str.splitlines``, so they are the lines of ``read_text(path)`` without
its text ever being held whole, and the peak memory of a read tracks the
parsed array.  One ``np.loadtxt`` pass parses them; wherever it could
differ from the per-line ``float`` loop, that loop parses the whole text
instead and names the bad line, so both accept the same inputs, give the
same values and raise the same errors.
"""

import csv
import functools
import itertools
import json

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
    "1e999" are rejected.
    """
    return _parse(text.splitlines(), lambda: text)


def read_matrix(path):
    """``parse_matrix_text(read_text(path))``, parsed as the file is read."""
    with open(path, encoding="utf-8") as fh:
        return _parse((part for line in fh for part in line.splitlines()),
                      lambda: read_text(path))


def _parse(lines, whole_text):
    """The matrix whose text splits into ``lines`` by ``str.splitlines``.

    numpy's C text reader parses the non-blank lines in one pass, with the
    same correctly rounded conversion as ``float``.  Where it refuses a line
    (UnicodeDecodeError, for bytes that do not decode, is a ValueError),
    there are no rows (it would warn) or an entry is non-finite, the line
    loop parses ``whole_text()`` instead: what is accepted, its values and
    the error messages are the line loop's alone."""
    rows = _loadtxt_rows(lines)
    try:
        first = next(rows, None)
        if first is not None:
            matrix = np.loadtxt(itertools.chain((first,), rows), delimiter=",",
                                comments=None, ndmin=2)
            if np.isfinite(matrix).all():
                return matrix
    except ValueError:
        pass
    return _parse_lines(whole_text())


def _loadtxt_rows(lines):
    for line in lines:
        if "\x1f" in line:
            # numpy strips "\x1f" around a field as whitespace; float does not
            raise ValueError("unit separator in line")
        if line.strip():
            yield line


def _parse_lines(text):
    """The line loop: each non-blank line parsed by ``float`` and its width
    checked, then the first line with a non-finite entry named (it also
    parses the few literals only ``float`` accepts: ``1_0``, non-ASCII
    digits)."""
    numbers, rows = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}", line=lineno) from None
        if rows and len(row) != len(rows[0]):
            message = f"line {lineno}: expected {len(rows[0])} entries, got {len(row)}"
            raise ParseError(message, line=lineno)
        numbers.append(lineno)
        rows.append(row)
    if not rows:
        raise ParseError("no rows found", line=1)
    matrix = np.array(rows)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        lineno = numbers[finite.argmin()]
        raise ParseError(f"line {lineno}: non-finite entry", line=lineno)
    return matrix


def _as_vector(A):
    if A.shape[0] == 1:
        return A[0].copy()
    if A.shape[1] == 1:
        return A[:, 0].copy()
    raise ParseError(f"expected a vector, got a {A.shape[0]}x{A.shape[1]} matrix")


def parse_vector_text(text):
    """A vector file is a matrix file with a single row or a single column."""
    return _as_vector(parse_matrix_text(text))


def read_vector(path):
    """``parse_vector_text(read_text(path))``, parsed as the file is read."""
    return _as_vector(read_matrix(path))


def instance_to_json_dict(instance):
    return {
        "A": instance.A.tolist(),
        "x": instance.x.values.tolist(),
        "v": instance.v.tolist(),
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


def write_json(obj, fh):
    """``json.dump(obj, fh, indent=2)`` and a newline, in the same bytes, by
    one call of json's C encoder per container (``indent`` alone would take
    its Python one): a flat container is then done, any other has its own
    containers as null in it and walks them.  Each chunk is written as it is
    made, by ``fh.write`` looked up once (click's stdout forwards lookups)."""
    _write_json(obj, fh.write, 1, set())
    fh.write("\n")


@functools.cache
def _layout(depth):
    """json's C encoder that puts each item on a line indented to ``depth``
    (it never gets a container in a container, so it skips the circular
    check), that line break, and the one before the closing bracket."""
    inner = "\n" + "  " * depth
    encoder = json.JSONEncoder(separators=("," + inner, ": "), check_circular=False)
    return encoder.encode, inner, inner[:-2]


def _write_json(value, write, depth, path):
    """Write ``value`` with its items at ``depth``; ``path`` holds the ids of
    the containers around it, so a circular one is refused as json does."""
    containers = (list, tuple, dict)
    is_dict = isinstance(value, dict)
    items = value.values() if is_dict else value if isinstance(value, (list, tuple)) else ()
    encode, inner, outer = _layout(depth)
    if not any(map(issubclass, set(map(type, items)), itertools.repeat(containers))):
        text = encode(value)
        write(text[0] + inner + text[1:-1] + outer + text[-1] if items else text)
        return
    if id(value) in path:
        raise ValueError("Circular reference detected")
    path.add(id(value))
    nested = [isinstance(item, containers) for item in items]
    stub = [None if inside else item for item, inside in zip(items, nested)]
    # one line per item, as no key or scalar encodes to a line break
    text = encode(dict(zip(value, stub)) if is_dict else stub)
    head = text[0] + inner
    for line, item, inside in zip(text[1:-1].split("," + inner), items, nested):
        write(head + (line[:-4] if inside else line))  # a container less its null
        if inside:
            _write_json(item, write, depth + 1, path)
        head = "," + inner
    write(outer + text[-1])
    path.remove(id(value))


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

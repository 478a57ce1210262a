r"""File formats: matrix/vector text files, instance JSON, and CSV helpers.

The matrix text format is one row per line, decimal floats separated by
single commas, no header.  Values are printed with 17 significant digits so
every float64 round-trips exactly.

``read_matrix`` parses a file and ``parse_matrix_text`` a text (as its UTF-8
bytes) by one reader with two paths.  The block reader counts the file's
``\n`` bytes, which bounds its rows, then reads blocks of whole lines
(about 64 KiB each) and hands each block to ``orjson.loads`` as one JSON
array of rows, copied into a preallocated array; the peak memory of a read
tracks that array.  It takes a block only where JSON and ``float`` agree:
the bytes ``0-9 + - . e E , space \t \n`` and ``\r`` before ``\n``, rows
of one width and finite values; an integer ``-0``, which JSON reads as the
int 0, is read again as ``-0.0``.  Anything else sends the whole input to
the per-line ``float`` loop, the reference: what is accepted, the values and
the error messages are its alone.  For a file it takes the lines of the open
file, each split again by ``str.splitlines``, so they are the lines of
``read_text(path)`` without its text ever being held whole.  A pipe, which
can be read only once, is read into memory first.
"""

import array
import codecs
import csv
import functools
import io
import itertools
import json
import re

import numpy as np

from .errors import ParseError
from .linalg import as_matrix


def format_float(x):
    return "%.17g" % float(x)


def format_matrix_text(A):
    A = as_matrix(A)
    return "\n".join(",".join(format_float(x) for x in row) for row in A) + "\n"


def read_text(path):
    """The UTF-8 text of the file at ``path``; bytes that do not decode are a
    ParseError naming the file and line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, 1) from None


def _not_utf8(path, exc, line):
    """The ParseError for ``exc``, raised decoding bytes that start on ``line``."""
    line += exc.object.count(b"\n", 0, exc.start)
    return ParseError(f"{path}: line {line}: not UTF-8 text ({exc.reason})", line=line)


def parse_matrix_text(text):
    """Parse the matrix text format; errors carry 1-based line numbers.

    Entries must be finite: "nan", "inf" and overflowing literals such as
    "1e999" are rejected.
    """
    matrix = _read_blocks(io.BytesIO(text.encode("utf-8", "surrogatepass")))
    return _parse_lines(text.splitlines()) if matrix is None else matrix


def read_matrix(path):
    """``parse_matrix_text(read_text(path))``, parsed as the file is read."""
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe, such as a shell's <(...), is read once
            fh = io.BytesIO(fh.read())
        matrix = _read_blocks(fh)
        if matrix is not None:
            return matrix
        fh.seek(0)
        _check_utf8(fh, path)
        fh.seek(0)
        lines = io.TextIOWrapper(fh, encoding="utf-8")
        return _parse_lines(part for line in lines for part in line.splitlines())


_BLOCK = 1 << 16
_JSON_BYTES = b"0123456789+-.eE, \t\n\r"
# an integer -0 token, not the exponent of 1e-0 (looked behind last, so that
# a search skips to each "-0" at the speed of a plain substring search)
_INT_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])(?<![eE]-0)")


def _read_blocks(fh):
    """The matrix in the binary stream ``fh`` by the block reader, or None
    where it cannot vouch for the line loop's result."""
    import orjson  # loaded on the first parse, not on ``import omp_sharp``

    count, last = 0, b"\n"
    while chunk := fh.read(_BLOCK):
        count += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
        last = chunk[-1:]
    fh.seek(0)
    matrix, rows = None, 0
    while lines := fh.readlines(_BLOCK):
        block = b"".join(lines)
        if block.translate(None, _JSON_BYTES) or (
                b"\r" in block and block.count(b"\r") != block.count(b"\r\n")):
            return None
        lines = [line for line in lines if not line.isspace()]
        if not lines:
            continue
        doc = b"[[" + b"],[".join(lines) + b"]]"
        try:
            values = orjson.loads(doc)
        except orjson.JSONDecodeError:
            return None
        if matrix is None:
            matrix = np.empty((count + (last != b"\n"), len(values[0])))
        if any(len(row) != matrix.shape[1] for row in values):
            return None
        part = matrix[rows:rows + len(values)]
        part[...] = values
        rows += len(values)
        # a zero may be an int -0, which JSON reads as 0: read it as -0.0
        if not part.all() and _INT_MINUS_ZERO.search(doc):
            part[...] = orjson.loads(_INT_MINUS_ZERO.sub(b"-0.0", doc))
    # orjson refuses literals out of float range itself; this keeps the
    # line loop the judge of non-finite entries whatever its version does
    if matrix is None or not np.isfinite(matrix[:rows]).all():
        return None
    return matrix if rows == len(matrix) else matrix[:rows].copy()


def _check_utf8(fh, path):
    """Raise ``read_text(path)``'s ParseError if the binary stream ``fh`` is
    not UTF-8, reading it in blocks."""
    decode, line = codecs.getincrementaldecoder("utf-8")().decode, 1
    while True:
        chunk = fh.read(_BLOCK)
        try:
            decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            # the bytes held back from the last chunk hold no line break
            raise _not_utf8(path, exc, line) from None
        if not chunk:
            return
        line += chunk.count(b"\n")


def _parse_lines(lines):
    """The line loop: each non-blank line of ``lines`` parsed by ``float``
    and its width checked, then the first line with a non-finite entry named
    (it also parses the literals that JSON refuses and ``float`` accepts:
    ``1_0``, ``.5``, ``1.``, ``+1``, ``00``, non-ASCII digits and blanks)."""
    numbers, rows = [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = array.array("d", map(float, line.split(",")))
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


def read_vector(path):
    """The vector in the file at ``path``: a matrix file, read by
    ``read_matrix``, with a single row or a single column."""
    A = read_matrix(path)
    if A.shape[0] == 1:
        return A[0].copy()
    if A.shape[1] == 1:
        return A[:, 0].copy()
    raise ParseError(f"expected a vector, got a {A.shape[0]}x{A.shape[1]} matrix")


def instance_to_json_dict(instance):
    return {
        "A": instance.A.tolist(),
        "x": instance.x.values.tolist(),
        "v": instance.v.tolist(),
        "epsilon": float(instance.epsilon),
        "noise_model": instance.noise_model,
        "metadata": instance.metadata,
    }


def write_json(obj, fh):
    """``json.dump(obj, fh, indent=2)`` and a newline, in the same bytes, by
    one call of json's C encoder per container (``indent`` alone would take
    its Python one): a flat container is then done, any other has its own
    containers as null in it and walks them.  A flat list or tuple of floats
    is encoded by orjson instead where its bytes are json's (``_floats``).
    Each chunk is written as it is made, by ``fh.write`` looked up once
    (click's stdout forwards lookups)."""
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


def _floats(values, inner):
    """``values``, a list or tuple of exact floats, as json's encoder writes
    it with ``inner`` between items, by ``orjson.dumps``; or None where
    json's encoder is to write it.

    orjson writes the shortest digits, as ``repr`` does, but lays out nonzero
    |x| < 1e-4 and |x| >= 1e16 its own way (``0.00001`` for ``1e-05``,
    ``1e16`` for ``1e+16``), so those are written by ``repr``.  A list of
    mostly such values, whose cost is then ``repr``'s as in json, is left to
    json, as is one with NaN or an infinity (``NaN`` and ``Infinity`` to
    json, null to orjson).  Every other token must be plain
    ``-digits.digits``: of the JSON numbers orjson writes, those with no
    letter and one ``.``."""
    import orjson  # loaded on the first write, not on ``import omp_sharp``

    x = np.abs(np.array(values))
    odd = np.flatnonzero((x < 1e-4) & (x != 0) | (x >= 1e16)).tolist()
    if 2 * len(odd) > len(values) or not np.isfinite(x).all():
        return None
    data = orjson.dumps(values)[1:-1]
    tokens = data.split(b",") if odd else [data]
    for i in odd:
        tokens[i] = b"0.0"
    data = b",".join(tokens)
    if data.translate(None, b"0123456789-.,") or data.count(b".") != len(values):
        return None
    for i in odd:
        tokens[i] = repr(values[i]).encode()
    return "[" + b",".join(tokens).decode().replace(",", "," + inner) + "]"


def _write_json(value, write, depth, path):
    """Write ``value`` with its items at ``depth``; ``path`` holds the ids of
    the containers around it, so a circular one is refused as json does."""
    containers = (list, tuple, dict)
    is_dict = isinstance(value, dict)
    items = value.values() if is_dict else value if isinstance(value, (list, tuple)) else ()
    encode, inner, outer = _layout(depth)
    types = set(map(type, items))
    if not any(map(issubclass, types, itertools.repeat(containers))):
        flat = type(value) in (list, tuple) and types == {float}  # not a namedtuple
        text = flat and _floats(value, inner) or encode(value)
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

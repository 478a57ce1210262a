r"""File formats: matrix/vector text files, instance JSON, and CSV helpers.

The matrix text format is one row per line, decimal floats separated by
single commas, no header.  Values are printed with 17 significant digits so
every float64 round-trips exactly.

``read_matrix`` parses a file and ``parse_matrix_text`` a text (as its UTF-8
bytes) by one reader with two paths.  The block reader counts the ``\n``
bytes, which bound the rows of a preallocated array, then reads 64 KiB
blocks cut at their last ``\n`` (a longer line is held until it ends), each
one JSON array of rows for ``orjson.loads``, less the empty rows of blank
lines; the peak memory of a read tracks that array.  It takes a block only
where JSON and ``float`` agree: the bytes ``0-9 + - . e E , space \t \n``
and ``\r`` before ``\n``, rows of one width and finite values; an integer
``-0``, which JSON reads as the int 0, is read again as ``-0.0``.  Anything
else sends the whole input to the per-line ``float`` loop, the reference:
what is accepted, the values and the error messages are its alone.  For a
file it takes the lines of the open file, each split again by
``str.splitlines``, so they are the lines of ``read_text(path)`` without its
text ever being held whole.  A pipe, which can be read only once, is read
into memory first.
"""

import array
import codecs
import csv
import functools
import io
import itertools
import json
import math
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
    matrix, rows, held = None, 0, []
    for chunk in itertools.chain(iter(functools.partial(fh.read, _BLOCK), b""), [b""]):
        cut = chunk.rfind(b"\n") + 1
        if chunk and not cut:  # a line longer than a block, joined once whole
            held.append(chunk)
            continue
        doc = b"".join([b"[[", *held, memoryview(chunk)[:cut], b"]]"])
        held = [chunk[cut:]]
        if doc.translate(None, _JSON_BYTES) != b"[[]]" or (
                b"\r" in doc and doc.count(b"\r") != doc.count(b"\r\n")):
            return None
        doc = doc.replace(b"\n", b"],[")  # a blank line is an empty row
        try:
            values = list(filter(None, orjson.loads(doc)))
        except orjson.JSONDecodeError:
            return None
        if not values:
            continue
        if matrix is None:
            matrix = np.empty((count + (last != b"\n"), len(values[0])))
        if set(map(len, values)) != {matrix.shape[1]}:
            return None
        part = matrix[rows:rows + len(values)]
        part[...] = values
        rows += len(values)
        # a zero may be an int -0, which JSON reads as 0: read it as -0.0
        if not part.all() and _INT_MINUS_ZERO.search(doc):
            part[...] = list(filter(None, orjson.loads(_INT_MINUS_ZERO.sub(b"-0.0", doc))))
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
    """``json.dump(obj, fh, indent=2)`` and a newline, in the same bytes:
    by one ``orjson.dumps`` call where ``_fast_json`` can vouch for it, else
    by ``json.dumps``, whose errors are raised before anything is written."""
    fh.write(_fast_json(obj) or json.dumps(obj, indent=2))
    fh.write("\n")


def _fast_json(obj):
    """``json.dumps(obj, indent=2)`` by orjson where ``obj`` is ``_plain``,
    orjson writes ``_PROBES`` as json does and refuses nothing, else None."""
    import orjson  # loaded on the first write, not on ``import omp_sharp``

    if not (_plain(obj) and _vouched(orjson.dumps, orjson.OPT_INDENT_2)):
        return None
    try:
        return _repr_tokens(orjson.dumps(obj, option=orjson.OPT_INDENT_2)).decode()
    except (orjson.JSONEncodeError, ValueError):
        return None


def _plain(value, depth=0):
    """Whether ``value`` is, to 255 levels (so not circular), of the exact
    types dict (``str`` keys), list, tuple, str (no DEL or non-ASCII, which
    json escapes and orjson does not), int, float (finite), bool and None."""
    if type(value) is dict:
        if set(map(type, value)) - {str}:
            return False
        value = [*value, *value.values()]
    elif type(value) not in (list, tuple):
        value = [value]
    types = set(map(type, value))
    if types == {float}:  # a finite sum has finite items; a sum may overflow
        return math.isfinite(sum(value)) or all(map(math.isfinite, value))
    return depth < 255 and types <= {dict, list, tuple, str, int, float, bool, type(None)} and all(
        _plain(item, depth + 1) if type(item) in (dict, list, tuple)
        else item.isascii() and "\x7f" not in item if type(item) is str
        else type(item) is not float or math.isfinite(item) for item in value)


def _repr_tokens(data):
    """orjson's indented ``data`` with each float token that ``repr`` lays
    out otherwise (``1e-7``, ``1e16``, ``0.00001``) written by ``repr``.  A
    token runs from a space (or the start) to ``\n``, ``,\n`` (or the end),
    so none is in a string, whose quote would come before the line break."""
    hits = [match.start() for match in re.finditer(rb"e(?:-[0-9](?![0-9])|[0-9])", data)]
    hit = data.find(b"0.0000")
    while hit >= 0:
        hits.append(hit)
        hit = data.find(b"0.0000", hit + 6)
    parts, done = [], 0
    for hit in sorted(hits):
        start, end = data.rfind(b" ", 0, hit) + 1, data.find(b"\n", hit)
        token = data[start:end if end >= 0 else len(data)].removesuffix(b",")
        if not token.translate(None, b"0123456789+-.eE"):
            parts += [data[done:start], repr(float(token)).encode()]
            done = start + len(token)
    return b"".join(parts + [data[done:]])


# every token layout and escape, nested and at the top
_PROBES = ({"floats": [0.0, -0.0, 1.0, -2.5, 0.1, 123.456, 1e-4, 9.99e-5, 1e-05, -1.5e-06, 1e-07,
                       1e-10, -1.5e-99, 5e-324, 1e15, 1e16, -1.5e16, 1e22, 1.7976931348623157e308],
            "".join(map(chr, range(127))): [0, -1, 2**64 - 1, -2**63, True, False, None, "", ()]},
           [{}], 1e-05, 1e16, 7, "x", None, [])


@functools.lru_cache(maxsize=1)
def _vouched(dumps, option):
    """Whether ``dumps`` and ``_repr_tokens`` write ``_PROBES`` as json does."""
    try:
        return all(_repr_tokens(dumps(probe, option=option))
                   == json.dumps(probe, indent=2).encode() for probe in _PROBES)
    except (TypeError, ValueError):  # orjson's JSONEncodeError is a TypeError
        return False


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

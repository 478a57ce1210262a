import collections
import dataclasses
import datetime
import decimal
import enum
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import uuid
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omp_sharp
from omp_sharp import serialize
from omp_sharp.errors import ParseError
from omp_sharp.instances import NOISE_L2, Instance, build_counterexample_l2
from omp_sharp.omp import FixedIterations, SparseSignal, run_omp
from omp_sharp.serialize import (
    format_float,
    format_matrix_text,
    instance_to_json_dict,
    parse_matrix_text,
    read_matrix,
    read_text,
    read_vector,
    write_csv,
    write_json,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def format_vector_text(u):
    """A vector file: one entry per line."""
    return format_matrix_text(np.asarray(u, dtype=float)[:, None])


def parse_vector_text(text):
    """The vector in a matrix text with a single row or a single column, as
    ``read_vector`` reads a file."""
    A = parse_matrix_text(text)
    if 1 not in A.shape:
        raise ParseError(f"expected a vector, got a {A.shape[0]}x{A.shape[1]} matrix")
    return A.ravel()


def instance_from_json_dict(doc):
    """The instance of a ``construct`` document, validated again by ``Instance``."""
    return Instance(
        A=np.array(doc["A"], dtype=float),
        x=SparseSignal(np.array(doc["x"], dtype=float)),
        v=np.array(doc["v"], dtype=float),
        epsilon=float(doc["epsilon"]),
        noise_model=doc["noise_model"],
        metadata=dict(doc.get("metadata", {})),
    )


@settings(max_examples=200)
@given(finite_floats)
def test_float_format_roundtrips_exactly(x):
    assert float(format_float(x)) == x


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_matrix_text_roundtrip(m, n, seed):
    A = np.random.default_rng(seed).standard_normal((m, n)) * 10.0 ** (seed % 7)
    B = parse_matrix_text(format_matrix_text(A))
    np.testing.assert_array_equal(A, B)


def test_vector_text_row_and_column():
    u = np.array([1.5, -2.25, 3.0])
    np.testing.assert_array_equal(parse_vector_text(format_vector_text(u)), u)
    np.testing.assert_array_equal(parse_vector_text("1.5,-2.25,3\n"), u)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_matrix_text("1,2\n3,oops\n")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        parse_matrix_text("1,2\n3\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        parse_matrix_text("")
    with pytest.raises(ParseError):
        parse_vector_text("1,2\n3,4\n")


@pytest.mark.parametrize(
    "text, line",
    [("1,2\n3,nan\n", 2), ("inf\n", 1), ("1\n\n-Infinity\n", 3), ("1e999,0\n", 1)],
)
def test_non_finite_entries_are_parse_errors(text, line):
    with pytest.raises(ParseError) as info:
        parse_matrix_text(text)
    assert info.value.line == line


def reference_parse(text):
    """The matrix text format read one line at a time with ``float``: every
    line is parsed and its width checked first, then the first line with a
    non-finite entry is named."""
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "":
            continue
        try:
            row = list(map(float, line.split(",")))
        except ValueError as exc:
            raise ParseError(f"line {number}: {exc}", line=number) from None
        if rows and len(row) != len(rows[0][1]):
            message = f"line {number}: expected {len(rows[0][1])} entries, got {len(row)}"
            raise ParseError(message, line=number)
        rows.append((number, row))
    if not rows:
        raise ParseError("no rows found", line=1)
    for number, row in rows:
        if not all(map(math.isfinite, row)):
            raise ParseError(f"line {number}: non-finite entry", line=number)
    return np.array([row for _, row in rows], dtype=np.float64)


def outcome(parse, text):
    """(shape, bytes) of the parsed matrix, or (message, line) of its ParseError."""
    try:
        A = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("matrix", A.dtype.str, A.shape, A.tobytes())


# Every character class a line split, a field strip or a float literal can
# treat specially: str.splitlines breaks lines at \r, \x0b, \x0c, \x1c, \x85
# and \u2028, which a file-based reader would instead keep inside a field;
# \x1f is whitespace to str.isspace but not to float.  The second group is
# what only JSON reads differently from float: -0 is JSON's int 0, brackets
# and literals build other values, 00 is refused, and integers too wide for
# 64 bits are converted by another route.
ADVERSARIAL_TOKENS = [
    *"0123456789.,+-e_#\"'",
    "nan", "inf", "1e999", "\u0661",
    " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
    "\u2028", "\u3000", "\xa0", "\x00",
    "-0", "[", "]", "{", "}", "true", "null", "NaN", "Infinity", "00",
    "1234567890123456789012345", "18446744073709551616",
]


BLANKS = st.sampled_from(["", " ", "\t", "\xa0", "\u3000"])


def with_separator(literal, at):
    """``literal`` with an underscore before position ``at`` if digits flank it."""
    if 0 < at < len(literal) and literal[at - 1].isdigit() and literal[at].isdigit():
        return literal[:at] + "_" + literal[at:]
    return literal


@st.composite
def valid_matrix_texts(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fmt = draw(st.sampled_from(["%.17g", "%r", "%.3e", "%.6f"]))
    literal = st.floats(-1e300, 1e300).map(fmt.__mod__) | st.sampled_from(["0", "-0", "-0.0"])
    cell = st.tuples(BLANKS, literal, st.integers(0, 30), BLANKS).map(
        lambda c: c[0] + with_separator(c[1], c[2]) + c[3]
    )
    blank_line = st.sampled_from(["", " ", "\t", "\xa0 "])
    lines = []
    for _ in range(m):
        lines += draw(st.lists(blank_line, max_size=2))
        lines.append(",".join(draw(st.lists(cell, min_size=n, max_size=n))))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=250)
@given(valid_matrix_texts())
def test_parser_matches_line_loop_on_valid_matrices(text):
    expected = outcome(reference_parse, text)
    assert expected[0] == "matrix"
    assert outcome(parse_matrix_text, text) == expected


@st.composite
def near_valid_texts(draw):
    """A valid matrix text with one or two tokens inserted, most often next
    to a comma or a line end, where a field or line split decides."""
    text = draw(valid_matrix_texts())
    for _ in range(draw(st.integers(1, 2))):
        edges = [i for i, char in enumerate(text) if char in ",\r\n"] + [len(text)]
        at = draw(st.sampled_from(edges) | st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ADVERSARIAL_TOKENS)) + text[at:]
    return text


@settings(max_examples=600)
@given(
    st.lists(st.sampled_from(ADVERSARIAL_TOKENS), max_size=24).map("".join)
    | near_valid_texts()
)
def test_parser_matches_line_loop_on_adversarial_text(text):
    assert outcome(parse_matrix_text, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("text", [
    "1,\r2\n", "1\r,2\n", "1,2\r\r\n3,4\n", "-0\n", "1,-0\r\n", "-0,1e-0\n", "0,-0.0,-0e0\n",
    "1,2],[3,4\n", "[1,2]\n", "true\n", "1,null\n", "\"1\"\n", "00,1\n", "1.,2\n", ".5,+1\n",
    "1,2,\n", "1\n1,2\n", "18446744073709551616,-1234567890123456789012345\n", "1,\ud800\n",
])
def test_json_hazards_get_the_line_loops_outcome(tmp_path, text):
    """Texts that JSON and float read differently (a lone \\r is whitespace to
    JSON, -0 its int 0) or that only one of them accepts."""
    path = tmp_path / "A.txt"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    assert outcome(parse_matrix_text, text) == outcome(reference_parse, text)
    assert outcome(read_matrix, path) == outcome(read_whole, path)


def test_undecodable_file_is_a_parse_error_naming_its_line(tmp_path):
    path = tmp_path / "A.txt"
    path.write_bytes(b"1,2\r\n3,4\n5,\xff\n")
    with pytest.raises(ParseError) as info:
        read_text(path)
    assert info.value.line == 3
    assert str(info.value).startswith(f"{path}: line 3: ")


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    """One file path, rewritten by each example of a property test."""
    return tmp_path_factory.mktemp("files") / "A.txt"


def read_whole(path):
    return parse_matrix_text(read_text(path))


def read_whole_vector(path):
    return parse_vector_text(read_text(path))


# Byte strings that are not UTF-8: a stray continuation byte, a truncated
# sequence, an overlong encoding, a surrogate and an invalid lead byte.
INVALID_UTF8 = [b"\x80", b"\xc3", b"\xe2\x82", b"\xc0\xaf", b"\xed\xa0\x80", b"\xff"]


def plain(text):
    """``text`` without its non-ASCII blanks and digit separators, the form
    the stream reader decides itself."""
    return text.replace("\xa0", " ").replace("\u3000", " ").replace("_", "")


@st.composite
def file_bytes(draw):
    """A matrix text as its exact UTF-8 bytes (so a \\r survives), now and
    then with invalid bytes spliced in."""
    text = draw(
        valid_matrix_texts()
        | valid_matrix_texts().map(plain)
        | near_valid_texts()
        | near_valid_texts().map(plain)
        | st.lists(st.sampled_from(ADVERSARIAL_TOKENS), max_size=24).map("".join)
    )
    data = text.encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(INVALID_UTF8)) + data[at:]
    return data


@settings(max_examples=600, deadline=None)
@given(file_bytes())
def test_stream_reader_matches_whole_text_path(scratch_file, data):
    scratch_file.write_bytes(data)
    assert outcome(read_matrix, scratch_file) == outcome(read_whole, scratch_file)
    assert outcome(read_vector, scratch_file) == outcome(read_whole_vector, scratch_file)


@pytest.mark.parametrize("bad", INVALID_UTF8)
def test_undecodable_byte_past_the_first_block_names_its_line(tmp_path, bad):
    """A bad byte 300 KB into a file, after a valid two-byte character that
    straddles the 64 KiB mark, is named on its line, as by ``read_text``."""
    head = b"1.5,2.5\n" * 8191 + b"1.5,2.5\xc2\xa0\n"  # \xc2 is byte 65535
    path = tmp_path / "A.txt"
    path.write_bytes(head + b"1.5,2.5\n" * 30000 + b"1.5," + bad + b"\n3,4\n")
    assert outcome(read_matrix, path) == outcome(read_whole, path)
    assert outcome(read_matrix, path)[2] == 38193


@pytest.mark.parametrize("data", [b"1,2\r\n3,4\n", b"1_0,2\x0b3,4\n", b"1,2\n3,\xff\n"])
def test_stream_reader_reads_a_pipe_as_a_file(tmp_path, data):
    """A path that is a pipe, such as a shell's <(...), can be read only once;
    it reads as a file of the same bytes, on either path."""
    path = tmp_path / "A.txt"
    path.write_bytes(data)
    read, write = os.pipe()
    try:
        os.write(write, data)
        os.close(write)
        pipe = f"/dev/fd/{read}"
        got = outcome(read_matrix, pipe)
    finally:
        os.close(read)
    expected = outcome(read_matrix, path)
    if expected[0] == "error":  # the message names the path
        expected = (expected[0], expected[1].replace(str(path), pipe), expected[2])
    assert got == expected


def test_stream_reader_reads_plain_files_without_the_whole_text(tmp_path, monkeypatch):
    A = np.random.default_rng(3).standard_normal((5, 4))
    matrix, vector = tmp_path / "A.txt", tmp_path / "y.txt"
    matrix.write_bytes(format_matrix_text(A).replace("\n", "\r\n\t\n").encode())
    vector.write_text(format_vector_text(A[:, 0]))
    # line breaks of str.splitlines that a file's universal newlines keep
    # inside a line, so that only a second split finds them
    breaks = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    others = [tmp_path / f"A{i}.txt" for i in range(len(breaks))]
    for path, brk in zip(others, breaks):
        path.write_bytes(format_matrix_text(A).replace("\n", brk).encode())
    monkeypatch.setattr("omp_sharp.serialize.read_text", None)
    np.testing.assert_array_equal(read_matrix(matrix), A)
    np.testing.assert_array_equal(read_vector(vector), A[:, 0])
    for path in others:
        np.testing.assert_array_equal(read_matrix(path), A)


@pytest.mark.parametrize("data", [b"", b"\n", b"  \n\t\n", b"\r\n\r\n", b" "])
def test_stream_reader_empty_file_names_no_rows_without_a_warning(tmp_path, capfd, data):
    path = tmp_path / "A.txt"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (read_matrix, read_vector):
            with pytest.raises(ParseError, match="^no rows found$") as info:
                read(path)
            assert info.value.line == 1
    assert capfd.readouterr().err == ""


def test_stream_reader_peak_memory_tracks_the_array(tmp_path):
    """Reading a 400x1000 file of 17-digit entries (about 9 MB of text)
    allocates at most 1.5 times the array's 3.2 MB, plus 1 MiB, with LF or
    CRLF line ends.  The whole text, its lines and numpy's copy of them took
    6.3 times the array."""
    A = np.random.default_rng(11).standard_normal((400, 1000))
    path = tmp_path / "A.txt"
    for newline in ("\n", "\r\n"):
        path.write_bytes(format_matrix_text(A).replace("\n", newline).encode())
        tracemalloc.start()
        try:
            B = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(B, A)
        assert peak < 1.5 * A.nbytes + 2**20, (newline, peak / A.nbytes)


def test_block_reader_converts_as_float_does(tmp_path, monkeypatch):
    """Over 200,000 random finite float64 bit patterns, each printed with
    %.17g, %r and %.25e, and about 20,000 exact decimals halfway between
    adjacent doubles are read to float's value, bit for bit, without the
    line loop."""
    rng = np.random.default_rng(2021)
    patterns = rng.integers(0, 2**64, size=201_000, dtype=np.uint64).view(np.float64)
    rows = [(x, x, x) for x in patterns[np.isfinite(patterns)].tolist()]
    texts = ["%.17g,%r,%.25e" % row for row in rows]
    halves = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    halves = halves[np.isfinite(halves)]
    low = np.abs(halves)
    high = np.nextafter(low, np.inf)
    exact = decimal.Context(prec=2000)  # holds every sum of two doubles
    for sign, a, b in zip(np.signbit(halves).tolist(), low.tolist(), high.tolist()):
        if math.isfinite(b):
            half = exact.divide(exact.add(decimal.Decimal(a), decimal.Decimal(b)), 2)
            texts.append(",".join([("-" if sign else "") + str(half)] * 3))
    path = tmp_path / "A.txt"
    path.write_text("\n".join(texts) + "\n")
    expected = np.array([[float(cell) for cell in text.split(",")] for text in texts])
    monkeypatch.setattr("omp_sharp.serialize._parse_lines", None)
    assert read_matrix(path).tobytes() == expected.tobytes()


def test_block_reader_keeps_the_sign_of_an_integer_minus_zero(tmp_path, monkeypatch):
    """format_matrix_text writes -0.0 as -0, which JSON reads as the int 0;
    the block reader reads it as -0.0, as the line loop does, and leaves the
    exponent of 1e-0 as it is."""
    A = np.random.default_rng(5).standard_normal((150, 500))
    A[::7, ::11] = -0.0
    A[3] = 0.0
    text = format_matrix_text(A) + ",".join(["1e-0", "-1E-0", "-0", "-0e0", "-0.0"] * 100) + "\n"
    assert "-0," in text and "\n-0," in text
    path = tmp_path / "A.txt"
    path.write_text(text)
    expected = reference_parse(text)
    monkeypatch.setattr("omp_sharp.serialize._parse_lines", None)
    for B in (read_matrix(path), parse_matrix_text(text)):
        assert np.array_equal(B, expected) and B.tobytes() == expected.tobytes()
        assert np.signbit(B[:-1:7, ::11]).all() and not np.signbit(B[3]).any()


BLOCK = serialize._BLOCK


def across_blocks(width, lines, final=True):
    """A matrix text of ``width`` columns whose each (line, ending, shift)
    has its line ending start ``shift`` bytes past a multiple of the block
    size, the gap before it filled with rows of 0.25, the last of them
    padded with spaces; without its last line ending unless ``final``."""
    row = ",".join(["0.25"] * width) + "\n"
    text = ""
    for line, ending, shift in lines:
        room = len(text) + 2 * len(row) + len(line)
        end = max(1, -(-(room - shift) // BLOCK)) * BLOCK + shift
        rows, rest = divmod(end - len(text) - len(line), len(row))
        text += row * (rows - 1) + row[:-1] + " " * rest + "\n" + line + ending
    return text if final else text[:-len(lines[-1][1])]


@st.composite
def lines_across_blocks(draw):
    """(width, lines, final) for ``across_blocks``: rows (some with -0 or
    longer than a block), blank and whitespace-only lines, and a run of
    blank lines longer than a block, each ending with LF or CRLF at or
    beside a block boundary."""
    width = draw(st.integers(1, 3))
    cell = finite_floats.map("%.17g".__mod__) | st.sampled_from(["-0", "0", "-0.0", "1e-0", "-0e0"])
    row = st.lists(cell, min_size=width, max_size=width).map(",".join)
    line = row | row.map(lambda r: r + " " * 70_000) | st.sampled_from(["", " ", "\t ", "\n" * 70_000])
    ending = st.sampled_from(["\n", "\r\n"])
    lines = draw(st.lists(st.tuples(line, ending, st.integers(-2, 2)), min_size=2, max_size=4))
    return width, lines, draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(lines_across_blocks())
@example((2, [("1.5,2.5", "\r\n", -1), ("3.5,-4", "\r\n", -1)], True))  # \r | \n at the cut
@example((2, [("1,2" + " " * 70_000, "\n", 0), ("3,4" + " " * 70_000, "\r\n", 1)], True))
@example((2, [("", "\n", -1), (" \t", "\n", 0), ("", "\r\n", -2), ("  ", "\n", 1)], True))
@example((1, [("\n" * 70_000, "\n", 0), ("5", "\n", 0)], True))  # a block of blank lines
@example((2, [("1,2", "\n", 0), ("-0,3", "\n", 2)], True))  # -0 first in a later block
@example((3, [("1,2,3", "\n", 0), ("4,5,6", "\r\n", 1)], False))
def test_block_reader_across_block_cuts(scratch_file, case):
    """Texts over several 64 KiB blocks, cut in a CRLF, in a line longer
    than a block, beside blank and whitespace-only lines, with a block of
    blank lines, an integer -0 first seen in a later block and no last line
    break, are read by the block reader alone to the line loop's bytes."""
    text = across_blocks(*case)
    assert len(text) > BLOCK
    scratch_file.write_bytes(text.encode())
    expected = outcome(reference_parse, text)
    assert expected[0] == "matrix"
    with mock.patch.object(serialize, "_parse_lines", None):
        assert outcome(read_matrix, scratch_file) == expected
        assert outcome(parse_matrix_text, text) == expected


@settings(max_examples=20, deadline=None)
@given(lines_across_blocks(), st.sampled_from(["1_0", "+1", ".5", "1e999", "nan", "x", "0x1", "1,\x0c2"]),
       st.integers(1, 4))
def test_bad_byte_past_the_first_block_gets_the_line_loops_outcome(scratch_file, case, bad, at):
    """A token JSON and float read differently, after a first block the
    block reader took, sends the whole text to the line loop."""
    width, lines, final = case
    lines = lines[:at] + [(",".join([bad] + ["7"] * (width - 1)), "\n", 0)] + lines[at:]
    text = across_blocks(width, lines, final)
    assert text.index(bad) > BLOCK
    scratch_file.write_bytes(text.encode())
    expected = outcome(reference_parse, text)
    assert outcome(read_matrix, scratch_file) == outcome(read_whole, scratch_file) == expected
    assert outcome(parse_matrix_text, text) == expected


class SpiedChunk(bytes):
    """A chunk read from a file, counting the concatenations it is in."""
    concatenations = 0

    def __add__(self, other):
        SpiedChunk.concatenations += 1
        return bytes(self) + other

    def __radd__(self, other):
        SpiedChunk.concatenations += 1
        return other + bytes(self)


class SpiedFile(io.BytesIO):
    def read(self, size=-1):
        return SpiedChunk(super().read(size))


def test_one_line_vector_is_read_without_a_copy_per_block(tmp_path, monkeypatch):
    """A 1x200,000 vector file, one line over about 70 blocks, is held as
    its chunks and joined once: no chunk is concatenated, where each
    += would copy the line so far again."""
    v = np.random.default_rng(17).standard_normal(200_000)
    data = format_matrix_text(v[None, :]).encode()
    assert len(data) > 60 * BLOCK
    path = tmp_path / "v.txt"
    path.write_bytes(data)
    monkeypatch.setattr(serialize, "_parse_lines", None)
    monkeypatch.setattr(SpiedChunk, "concatenations", 0)
    assert serialize._read_blocks(SpiedFile(data)).tobytes() == v.tobytes()
    assert SpiedChunk.concatenations == 0
    assert read_vector(path).tobytes() == v.tobytes()


def test_import_leaves_orjson_unloaded():
    """orjson is loaded by the first parse or JSON document written, not by
    importing the package."""
    root = str(Path(omp_sharp.__file__).resolve().parent.parent)
    code = "import omp_sharp, omp_sharp.cli, sys; sys.exit('orjson' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_blank_lines_skipped():
    A = parse_matrix_text("1,2\n\n3,4\n")
    np.testing.assert_array_equal(A, [[1.0, 2.0], [3.0, 4.0]])


def test_instance_json_roundtrip():
    inst = build_counterexample_l2(2, 0.3, 1.0, 0.5)
    fh = io.StringIO()
    write_json(instance_to_json_dict(inst), fh)
    assert fh.getvalue() == json.dumps(instance_to_json_dict(inst), indent=2) + "\n"
    doc = json.loads(fh.getvalue())
    back = instance_from_json_dict(doc)
    np.testing.assert_array_equal(back.A, inst.A)
    np.testing.assert_array_equal(back.x.values, inst.x.values)
    np.testing.assert_array_equal(back.v, inst.v)
    assert back.noise_model == inst.noise_model
    assert back.metadata == {"K": 2, "delta": 0.3, "gamma": 0.5}


json_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(json_keys, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300)
@given(json_documents)
def test_write_json_has_the_bytes_of_json_dumps(doc):
    fh = io.StringIO()
    write_json(doc, fh)
    assert fh.getvalue() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    [0.0, -0.0, math.nan, math.inf, -math.inf, "caf\xe9  \"\\\n", {}, []],
    {"a": [1.5, {"b": [], 2.5: ()}], None: {True: "x"}, 3: [[[]]]},
    [[1, 2], (3, 4.0)], {}, [], (), 7, "text", None,
    collections.namedtuple("Pair", "a b")(1.5, 2e-5), [collections.namedtuple("One", "a")(-0.0)],
])
def test_write_json_edge_documents(doc):
    fh = io.StringIO()
    write_json(doc, fh)
    assert fh.getvalue() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    np.float32(1.5), [np.float32(1.5)], {"a": [1.0, np.float32(1.5)]},
    {"a": {"b": object()}}, {(1, 2): 3}, [{"a": 1}, {(1, 2): [3]}],
])
def test_write_json_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as info:
        write_json(doc, io.StringIO())
    assert str(info.value) == str(expected.value)


def test_write_json_refuses_a_circular_container():
    looped = [1.0]
    looped.append(looped)
    nested = {"a": [looped]}
    shared = {"held twice": [1.0]}  # not circular
    for doc in (looped, nested, {"x": nested}):
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            json.dumps(doc, indent=2)
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            write_json(doc, io.StringIO())
    fh = io.StringIO()
    write_json([shared, {"again": shared}], fh)
    assert fh.getvalue() == json.dumps([shared, {"again": shared}], indent=2) + "\n"


def odd_floats():
    """Floats that orjson lays out otherwise than repr, both signs: 300 in
    (1e-9, 1e-4) and 300 at or above 1e16, log-uniform, and the edges."""
    rng = np.random.default_rng(29)
    values = np.concatenate([10.0 ** rng.uniform(-9, -4, 300), 10.0 ** rng.uniform(16, 308, 300),
                             [1.0000000000000001e-09, 1e-08, 1e-07, 1e-06, 1e-05, 9.999999999999999e-05,
                              1e16, 1.7976931348623157e308]])
    return np.concatenate([values, -values]).tolist()


def placed(x):
    """``x`` as a dict value, an item nested in lists and dicts, and the
    whole document."""
    return [{"v": x}, [[1, {"a": [x, "s"]}]], {"k": {"l": [None, x]}, "m": x}, x]


def written(doc):
    """write_json's text for ``doc`` and whether orjson wrote it."""
    taken, fast = [], serialize._fast_json
    with mock.patch.object(serialize, "_fast_json", lambda obj: taken.append(fast(obj)) or taken[-1]):
        fh = io.StringIO()
        write_json(doc, fh)
    return fh.getvalue(), taken[0] is not None


def test_odd_floats_anywhere_have_the_bytes_of_json_dumps():
    values = odd_floats()
    for x in values:
        for doc in placed(x):
            text, fast = written(doc)
            assert text == json.dumps(doc, indent=2) + "\n" and fast
    doc = {"all": values, "nested": [placed(x) for x in values[::7]]}
    assert written(doc) == (json.dumps(doc, indent=2) + "\n", True)


LOOKALIKES = ["1e5", " 0.00001,", "e-7", "x 1e16", " 1e16", "0.00001", "-1e-7,", " e1", "1.5e-7\n", " 1e16\n"]


@pytest.mark.parametrize("doc", [
    LOOKALIKES, {s: s for s in LOOKALIKES}, {s: [1e-07, s, 1e16] for s in LOOKALIKES},
    [[s, 1e-05] for s in LOOKALIKES], *LOOKALIKES,
])
def test_strings_that_look_like_odd_tokens_are_kept(doc):
    assert written(doc) == (json.dumps(doc, indent=2) + "\n", True)


def nested(depth, x):
    """``x`` at the bottom of ``depth`` containers, lists and dicts in turn."""
    for level in range(depth):
        x = [x] if level % 2 else {"k": x}
    return x


@pytest.mark.parametrize("doc, fast", [
    (["a\x7f", 1e-07], False), ({"\x7f": 1e16}, False), ({"caf\xe9": 1e-05}, False),
    (["\u2028", 1e16], False), ("\ud800", False), ("\x7f", False),
    ([2**64, 1e-07], False), ({"a": -2**63 - 1}, False), (10**40, False), ([2**64 - 1, -2**63, 1e16], True),
    ({"a": math.nan}, False), ([1, -math.inf], False), ({"b": [1.0, "s", math.inf]}, False),
    (nested(254, 1e-07), True), (nested(255, 1e16), None), (nested(256, 1e-05), False),
    (nested(300, 1e-07), False),
])
def test_documents_orjson_writes_otherwise_go_to_json(doc, fast):
    """DEL and non-ASCII text (which json escapes), ints outside 64 bits,
    NaN and infinities beside other types (orjson writes null) and nesting
    past 255 levels are written by json; the rest by orjson (at 255 levels,
    by whichever orjson's own limit allows)."""
    text, taken = written(doc)
    assert text == json.dumps(doc, indent=2) + "\n" and fast in (None, taken)


def test_non_str_keys_go_to_json_whatever_orjson_accepts(monkeypatch):
    """json writes float, int, bool and None keys as strings, 1e16 as
    "1e+16"; an orjson that took such keys (as with OPT_NON_STR_KEYS) and
    wrote "1e16" would not be given them."""
    import orjson

    dumps = orjson.dumps
    monkeypatch.setattr(orjson, "dumps", lambda value, option=0: dumps(value, option=option | orjson.OPT_NON_STR_KEYS))
    for doc in ({1e16: 1.0}, {"a": {1e-05: [1]}}, {True: 1, None: 2, 3: 4.5}):
        assert written(doc) == (json.dumps(doc, indent=2) + "\n", False)


class Color(enum.Enum):
    RED = 1


@dataclasses.dataclass
class Point:
    x: float = 1.5


@pytest.mark.parametrize("value", [Color.RED, uuid.UUID(int=7), datetime.date(2020, 1, 2), Point(), np.zeros(2)])
def test_write_json_refuses_what_only_orjson_encodes(value):
    """Types orjson encodes natively and json refuses get json's TypeError,
    and nothing is written."""
    for doc in (value, [1.0, value], {"a": {"b": value}}):
        with pytest.raises(TypeError) as expected:
            json.dumps(doc, indent=2)
        fh = io.StringIO()
        with pytest.raises(TypeError) as info:
            write_json(doc, fh)
        assert str(info.value) == str(expected.value) and fh.getvalue() == ""


def edge_floats():
    """Every power of ten from 1e-330 to 1e308 and the floats one ulp either
    side, subnormals, the edges 1e-4 and 1e16 where ``repr`` changes layout,
    and the largest float, with both signs (so 0.0 and -0.0)."""
    tens = np.array([float(f"1e{k}") for k in range(-330, 309)])
    subnormals = np.random.default_rng(4).integers(1, 2**52, size=300).view(np.float64)
    edges = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), subnormals, edges])
    values = np.concatenate([values, -values])
    return values[np.isfinite(values)].tolist()


def float_lists():
    """Lists of 500 finite floats, fewer than half of each outside
    1e-4 <= |x| < 1e16, so that the orjson path takes them: 2000 lists of
    random float64 bit patterns, 200 with any exponent (nearly all outside)
    and 300 with an exponent inside, then the edge floats 200 a list among
    such patterns, each list shuffled."""
    rng = np.random.default_rng(2028)
    edges = edge_floats()
    bits = rng.integers(0, 2**64, size=(2000 + len(edges) // 200 + 1, 500), dtype=np.uint64)
    exponents = rng.integers(1023 - 13, 1023 + 53, size=(len(bits), 300), dtype=np.uint64)
    bits[:, 200:] = bits[:, 200:] & ~np.uint64(0x7FF << 52) | exponents << np.uint64(52)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 1.0
    values[2000:, :200].flat[:len(edges)] = edges
    return rng.permuted(values, axis=1).tolist()


def at_depth(values, depth):
    """A document holding ``values`` as a flat list whose items are at
    ``depth``, a tuple at depth 3."""
    return values if depth == 1 else [values] if depth == 2 else {"a": [tuple(values)]}


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_float_lists_have_the_bytes_of_json_dumps(monkeypatch, depth):
    """Over 10^6 random float64 bit patterns in lists of 500, and the edges of
    repr's layout, the orjson path is taken and writes json.dumps's bytes at
    each depth."""
    taken = []
    fast = serialize._fast_json
    monkeypatch.setattr(serialize, "_fast_json", lambda *args: taken.append(fast(*args)) or taken[-1])
    lists = float_lists()
    for values in lists:
        doc = at_depth(values, depth)
        fh = io.StringIO()
        write_json(doc, fh)
        assert fh.getvalue() == json.dumps(doc, indent=2) + "\n"
    assert len(taken) == len(lists) and None not in taken


def test_trace_float_lists_go_through_orjson(monkeypatch):
    """Once orjson has written the probes as json does, a trace of a 150x500,
    K = 15 run, its correlation lists and final estimate with it, is encoded
    by exactly one orjson.dumps call.  A document
    holding NaN, an infinity or an np.float64 does not go to it, and each
    keeps json's bytes."""
    import orjson

    rng = np.random.default_rng(9)
    A = rng.standard_normal((150, 500))
    A /= np.linalg.norm(A, axis=0)
    doc = run_omp(A[:, :15] @ rng.standard_normal(15), A, FixedIterations(15)).to_json_dict()
    seen, dumps = [], orjson.dumps
    monkeypatch.setattr(orjson, "dumps", lambda value, **options: seen.append(value) or dumps(value, **options))
    write_json([1.0], io.StringIO())  # the probes, run once for this dumps
    seen.clear()
    fh = io.StringIO()
    write_json(doc, fh)
    assert fh.getvalue() == json.dumps(doc, indent=2) + "\n"
    assert list(map(id, seen)) == [id(doc)]
    for values, taken in (([1.0, math.nan], False), ([math.inf, 2.0, 3.0], False),
                          ([1.0, -math.inf, 1e300], False), ([1.0, np.float64(2.0)], False),
                          ([1.0, 2], True), ([2.5, True], True), ([1e-5, 0.5, -1e20], True)):
        for doc in (values, {"a": values}, [tuple(values)]):
            seen.clear()
            fh = io.StringIO()
            write_json(doc, fh)
            assert fh.getvalue() == json.dumps(doc, indent=2) + "\n"
            assert seen == ([doc] if taken else [])


@pytest.mark.parametrize("layout", [b"[1,2.5]", b"[1.0e0,2.5]", b"[1.0E0,2.5]", b"[+1.0,2.5]", b"[1.0,null]"])
def test_float_list_in_another_layout_is_written_by_json(monkeypatch, layout):
    """Where orjson writes the floats of [1.0, 2.5] as in ``layout``, as
    another version might, in every document it is given (the probes too),
    json writes every document."""
    import orjson

    dumps, tokens = orjson.dumps, dict(zip([b"1.0", b"2.5"], layout[1:-1].split(b",")))
    token = re.compile(rb"(?<![0-9.e])(?:1\.0|2\.5)(?![0-9])")
    monkeypatch.setattr(orjson, "dumps", lambda value, **options: token.sub(
        lambda match: tokens[match[0]], dumps(value, **options)))
    for doc in ([1.0, 2.5], {"a": (1.0, 2.5)}, 1.0, {"b": [3, "x"]}):
        fh = io.StringIO()
        write_json(doc, fh)
        assert fh.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_orjson_refusing_a_probe_leaves_every_document_to_json(monkeypatch):
    """An orjson that refuses a probe document (here the int 7) is not
    used, and its error does not escape."""
    import orjson

    dumps = orjson.dumps

    def refusing(value, **options):
        if value == 7:
            raise orjson.JSONEncodeError("refused")
        return dumps(value, **options)

    monkeypatch.setattr(orjson, "dumps", refusing)
    doc = {"a": [1.0, 2.5]}
    assert written(doc) == (json.dumps(doc, indent=2) + "\n", False)


def test_instance_json_revalidates_noise_bound():
    inst = Instance(
        A=np.eye(2),
        x=SparseSignal(np.array([1.0, 0.0])),
        v=np.array([0.5, 0.0]),
        epsilon=1.0,
        noise_model=NOISE_L2,
    )
    doc = instance_to_json_dict(inst)
    doc["epsilon"] = 0.1
    from omp_sharp.errors import ParameterOutOfRange

    with pytest.raises(ParameterOutOfRange):
        instance_from_json_dict(doc)


def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b", "c"], [[1, True, 0.5], ["x,y", False, None]])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == 'a,b,c\n1,true,0.5\n"x,y",false,\n'

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_sharp.errors import ParseError
from omp_sharp.instances import NOISE_L2, Instance, build_counterexample_l2
from omp_sharp.omp import SparseSignal
from omp_sharp.serialize import (
    dumps_json,
    format_float,
    format_matrix_text,
    format_vector_text,
    instance_from_json_dict,
    instance_to_json_dict,
    parse_matrix_text,
    parse_vector_text,
    read_matrix,
    read_text,
    read_vector,
    write_csv,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


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
# \x1f is whitespace to str.isspace but not to float.
ADVERSARIAL_TOKENS = [
    *"0123456789.,+-e_#\"'",
    "nan", "inf", "1e999", "\u0661",
    " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
    "\u2028", "\u3000", "\xa0", "\x00",
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
    cell = st.tuples(BLANKS, st.floats(-1e300, 1e300), st.integers(0, 30), BLANKS).map(
        lambda c: c[0] + with_separator(fmt % c[1], c[2]) + c[3]
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


def test_stream_reader_reads_plain_files_without_the_whole_text(tmp_path, monkeypatch):
    A = np.random.default_rng(3).standard_normal((5, 4))
    matrix, vector = tmp_path / "A.txt", tmp_path / "y.txt"
    matrix.write_bytes(format_matrix_text(A).replace("\n", "\r\n\t\n").encode())
    vector.write_text(format_vector_text(A[:, 0]))
    monkeypatch.setattr("omp_sharp.serialize.read_text", None)
    np.testing.assert_array_equal(read_matrix(matrix), A)
    np.testing.assert_array_equal(read_vector(vector), A[:, 0])


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
    allocates at most 1.5 times the array's 3.2 MB, plus 1 MiB.  The whole
    text, its lines and numpy's copy of them took 6.3 times the array."""
    A = np.random.default_rng(11).standard_normal((400, 1000))
    path = tmp_path / "A.txt"
    path.write_text(format_matrix_text(A))
    tracemalloc.start()
    try:
        B = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(B, A)
    assert peak < 1.5 * A.nbytes + 2**20, peak / A.nbytes


def test_blank_lines_skipped():
    A = parse_matrix_text("1,2\n\n3,4\n")
    np.testing.assert_array_equal(A, [[1.0, 2.0], [3.0, 4.0]])


def test_instance_json_roundtrip():
    inst = build_counterexample_l2(2, 0.3, 1.0, 0.5)
    doc = json.loads(dumps_json(instance_to_json_dict(inst)))
    back = instance_from_json_dict(doc)
    np.testing.assert_array_equal(back.A, inst.A)
    np.testing.assert_array_equal(back.x.values, inst.x.values)
    np.testing.assert_array_equal(back.v, inst.v)
    assert back.noise_model == inst.noise_model
    assert back.metadata == {"K": 2, "delta": 0.3, "gamma": 0.5}


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

import json

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

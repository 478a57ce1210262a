import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_sharp.errors import (
    DimensionMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    RankDeficient,
)
from omp_sharp.linalg import (
    columns_submatrix,
    least_squares,
    least_squares_stack,
    norms,
    project_complement,
)


def random_matrix(seed, m, n, unit_columns=False):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    if unit_columns:
        A /= np.linalg.norm(A, axis=0)
    return A


# ---------------------------------------------------------------- submatrix


def test_columns_submatrix_identity_selection():
    I = np.eye(2)
    np.testing.assert_array_equal(columns_submatrix(I, [2]), [[0.0], [1.0]])


def test_columns_submatrix_full_selection():
    A = random_matrix(0, 4, 6)
    np.testing.assert_array_equal(columns_submatrix(A, range(1, 7)), A)


def test_columns_submatrix_is_ascending():
    A = random_matrix(1, 3, 4)
    np.testing.assert_array_equal(
        columns_submatrix(A, [3, 1]), A[:, [0, 2]]
    )


def test_columns_submatrix_rejects_bad_indices():
    A = np.eye(3)
    with pytest.raises(IndexOutOfRange):
        columns_submatrix(A, [0])
    with pytest.raises(IndexOutOfRange):
        columns_submatrix(A, [4])
    with pytest.raises(DuplicateIndex):
        columns_submatrix(A, [2, 2])


# ------------------------------------------------------------ least squares


def test_least_squares_identity():
    y = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(least_squares(np.eye(3), y), y)


def test_least_squares_frozen_oracle():
    # expected values computed with an SVD-based solver on the same system
    M = np.array([[2.0, 1.0], [1.0, 3.0], [0.5, -1.0]])
    y = np.array([1.0, -2.0, 0.5])
    sol = least_squares(M, y)
    np.testing.assert_allclose(sol, [0.7333333333333333, -0.8], atol=1e-12)


def test_least_squares_consistent_system_exact():
    A = random_matrix(5, 8, 3)
    z = np.array([0.3, -1.2, 2.5])
    np.testing.assert_allclose(least_squares(A, A @ z), z, atol=1e-10)


def test_least_squares_empty_columns():
    assert least_squares(np.zeros((3, 0)), np.ones(3)).shape == (0,)


def test_least_squares_rank_deficient():
    A = np.ones((4, 2))  # identical columns
    with pytest.raises(RankDeficient):
        least_squares(A, np.ones(4))
    with pytest.raises(RankDeficient):
        least_squares(np.ones((2, 3)), np.ones(2))  # wide system


def test_least_squares_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        least_squares(np.eye(3), np.ones(2))
    with pytest.raises(DimensionMismatch):
        least_squares(np.array([[1.0, np.nan]]), np.ones(1))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(4, 9))
def test_least_squares_residual_orthogonality(seed, k, m):
    """The residual must be orthogonal to every selected column."""
    A = random_matrix(seed, m, k)
    y = np.random.default_rng(seed + 1).standard_normal(m)
    try:
        sol = least_squares(A, y)
    except RankDeficient:
        return
    r = y - A @ sol
    scale = max(np.linalg.norm(y), 1.0)
    assert np.max(np.abs(A.T @ r)) <= 1e-10 * scale


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 4), st.integers(4, 9))
def test_stacked_least_squares_equals_one_matrix_at_a_time(seed, count, k, m):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((count, m, k))
    Y = rng.standard_normal((count, m, 1))
    if k:
        A[0, :, -1] = A[0, :, 0]  # the first matrix's columns are dependent
    X, failures = least_squares_stack(A, Y)
    assert list(failures) == ([0] if k > 1 else [])
    for t in range(count):
        if t in failures:
            with pytest.raises(RankDeficient, match=re.escape(str(failures[t]))):
                least_squares(A[t], Y[t, :, 0])
            continue
        # a Householder QR solve on the matrix alone, bit for bit
        expected = np.zeros(0)
        if k:
            Q, R = np.linalg.qr(A[t])
            expected = np.linalg.solve(R, Q.T @ Y[t, :, 0])
        assert np.array_equal(X[t, :, 0], expected)
        assert np.array_equal(least_squares(A[t], Y[t, :, 0]), expected)


def test_stacked_least_squares_rejects_a_wide_stack():
    with pytest.raises(RankDeficient, match="2x3 system has more columns than rows"):
        least_squares_stack(np.ones((4, 2, 3)), np.ones((4, 2, 1)))


# --------------------------------------------------------------- projection


def test_project_complement_empty_set_is_identity():
    u = np.array([1.0, 2.0, 3.0])
    out = project_complement(np.zeros((3, 0)), u)
    np.testing.assert_array_equal(out, u)
    assert out is not u


def test_project_complement_coordinate():
    A_S = np.eye(3)[:, :1]
    np.testing.assert_allclose(
        project_complement(A_S, np.array([1.0, 2.0, 3.0])), [0.0, 2.0, 3.0]
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_project_complement_idempotent_and_annihilates(seed, k):
    A_S = random_matrix(seed, 6, k)
    u = np.random.default_rng(seed ^ 0xABCD).standard_normal(6)
    once = project_complement(A_S, u)
    twice = project_complement(A_S, once)
    np.testing.assert_allclose(twice, once, atol=1e-10 * max(np.linalg.norm(u), 1))
    # the projector annihilates the span of the selected columns
    for j in range(k):
        col = project_complement(A_S, A_S[:, j])
        assert np.linalg.norm(col) <= 1e-10 * np.linalg.norm(A_S[:, j])


# -------------------------------------------------------------------- norms


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9))
def test_stacked_norms_have_the_bits_of_a_vector_norm(seed, count, m):
    V = np.random.default_rng(seed).standard_normal((count, m, 1))
    lengths = norms(V)
    assert lengths.shape == (count, 1, 1)
    assert [float(x) for x in lengths.ravel()] == [float(np.linalg.norm(v)) for v in V[:, :, 0]]

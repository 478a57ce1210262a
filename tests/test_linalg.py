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
from omp_sharp.linalg import columns_submatrix, least_squares, project_complement


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


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_sharp.errors import RankDeficient
from omp_sharp.linalg import least_squares_stack, norms


def random_matrix(seed, m, n, unit_columns=False):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    if unit_columns:
        A /= np.linalg.norm(A, axis=0)
    return A


# ------------------------------------------------------------ least squares


def solve_one(A, y):
    """least_squares_stack on a stack of one system with one right-hand
    side: the solution vector, and the RankDeficient if there is one."""
    X, failures = least_squares_stack(np.asarray(A)[None], np.asarray(y)[None, :, None])
    return X[0, :, 0], failures.get(0)


def test_least_squares_identity():
    y = np.array([1.0, 2.0, 3.0])
    sol, failure = solve_one(np.eye(3), y)
    assert failure is None
    np.testing.assert_allclose(sol, y)


def test_least_squares_frozen_oracle():
    # expected values computed with an SVD-based solver on the same system
    M = np.array([[2.0, 1.0], [1.0, 3.0], [0.5, -1.0]])
    y = np.array([1.0, -2.0, 0.5])
    sol, failure = solve_one(M, y)
    assert failure is None
    np.testing.assert_allclose(sol, [0.7333333333333333, -0.8], atol=1e-12)


def test_least_squares_consistent_system_exact():
    A = random_matrix(5, 8, 3)
    z = np.array([0.3, -1.2, 2.5])
    sol, failure = solve_one(A, A @ z)
    assert failure is None
    np.testing.assert_allclose(sol, z, atol=1e-10)


def test_least_squares_empty_columns():
    X, failures = least_squares_stack(np.zeros((2, 3, 0)), np.ones((2, 3, 1)))
    assert X.shape == (2, 0, 1) and failures == {}


def test_least_squares_rank_deficient():
    A = np.stack([np.eye(4)[:, :2], np.ones((4, 2)), random_matrix(2, 4, 2)])
    A[2, :, 1] = 2.0 * A[2, :, 0]  # identical directions in the last matrix too
    _, failures = least_squares_stack(A, np.ones((3, 4, 1)))
    assert list(failures) == [1, 2]
    assert all(isinstance(exc, RankDeficient) for exc in failures.values())
    assert "rank deficient" in str(failures[1])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(4, 9))
def test_least_squares_residual_orthogonality(seed, k, m):
    """The residual must be orthogonal to every selected column."""
    A = random_matrix(seed, m, k)
    y = np.random.default_rng(seed + 1).standard_normal(m)
    sol, failure = solve_one(A, y)
    if failure is not None:
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
        alone, failure = solve_one(A[t], Y[t, :, 0])
        if t in failures:
            assert str(failure) == str(failures[t])
            continue
        # a Householder QR solve on the matrix alone, bit for bit
        expected = np.zeros(0)
        if k:
            Q, R = np.linalg.qr(A[t])
            expected = np.linalg.solve(R, Q.T @ Y[t, :, 0])
        assert np.array_equal(X[t, :, 0], expected)
        assert failure is None and np.array_equal(alone, expected)


def test_stacked_least_squares_rejects_a_wide_stack():
    with pytest.raises(RankDeficient, match="2x3 system has more columns than rows"):
        least_squares_stack(np.ones((4, 2, 3)), np.ones((4, 2, 1)))


# -------------------------------------------------------------------- norms


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9))
def test_stacked_norms_have_the_bits_of_a_vector_norm(seed, count, m):
    V = np.random.default_rng(seed).standard_normal((count, m, 1))
    lengths = norms(V)
    assert lengths.shape == (count, 1, 1)
    assert [float(x) for x in lengths.ravel()] == [float(np.linalg.norm(v)) for v in V[:, :, 0]]

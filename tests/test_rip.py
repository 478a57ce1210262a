import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_sharp.errors import BudgetExceeded, InvalidOrder
from omp_sharp.instances import counterexample_operator
from omp_sharp.rip import (
    check_rip_inequality,
    exact_ric,
    in_sharp_region,
    subset_spectra,
)


def unit_column_matrix(seed, m, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    return A / np.linalg.norm(A, axis=0)


def brute_force_ric(A, K):
    """Independent oracle: pairwise-combinations loop with eigvalsh per subset."""
    from itertools import combinations

    G = A.T @ A
    best = -math.inf
    for S in combinations(range(A.shape[1]), K):
        w = np.linalg.eigvalsh(G[np.ix_(S, S)])
        best = max(best, max(w[-1] - 1.0, 1.0 - w[0]))
    return best


def test_subset_spectra_walks_every_subset_in_lexicographic_order():
    from itertools import combinations

    A = unit_column_matrix(4, 10, 16)
    gram = A.T @ A
    chunks = list(subset_spectra(gram, 6))
    assert len(chunks) > 1  # C(16, 6) = 8008 spans more than one chunk
    subsets = np.concatenate([subsets for subsets, _ in chunks])
    eigenvalues = np.concatenate([values for _, values in chunks])
    assert [tuple(S) for S in subsets] == list(combinations(range(16), 6))
    for S, values in zip(subsets[::97], eigenvalues[::97]):
        expected = np.linalg.eigvalsh(gram[np.ix_(S, S)])
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-13)


def test_identity_is_isometry():
    for K in (1, 2, 3, 5):
        assert exact_ric(np.eye(5), K).delta == pytest.approx(0.0, abs=1e-14)


def test_example_matrix_order2():
    # unit-norm columns with inner product delta => delta_2 = delta
    delta = 0.37
    A = np.array([[math.sqrt(1 - delta**2), 0.0], [delta, 1.0]])
    report = exact_ric(A, 2)
    assert report.delta == pytest.approx(delta, abs=1e-12)
    assert report.witness_subset == (1, 2)
    assert report.witness_eigenvalue == pytest.approx(
        1 + delta, abs=1e-12
    ) or report.witness_eigenvalue == pytest.approx(1 - delta, abs=1e-12)


def test_counterexample_operator_ric():
    A, _, _ = counterexample_operator(2, 0.4)
    assert exact_ric(A, 3).delta == pytest.approx(0.4, abs=1e-10)


def test_scaled_identity():
    assert exact_ric(0.6 * np.eye(2), 2).delta == pytest.approx(0.64, abs=1e-12)


def test_frozen_oracle_3x4():
    # expected value computed with the closed-form 2x2 eigenvalue formula
    A = unit_column_matrix(20240817, 3, 4)
    report = exact_ric(A, 2)
    assert report.delta == pytest.approx(0.8463898043593678, abs=1e-12)
    assert report.witness_subset == (1, 2)


def test_invalid_order_and_budget():
    A = np.eye(4)
    with pytest.raises(InvalidOrder):
        exact_ric(A, 0)
    with pytest.raises(InvalidOrder):
        exact_ric(A, 5)
    with pytest.raises(BudgetExceeded) as info:
        exact_ric(np.ones((2, 30)) / math.sqrt(2), 10, budget=100)
    assert info.value.requested == math.comb(30, 10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 5), st.integers(4, 6))
def test_matches_brute_force(seed, m, n):
    A = unit_column_matrix(seed, m, n)
    for K in (1, 2, 3):
        assert exact_ric(A, K).delta == pytest.approx(
            brute_force_ric(A, K), abs=1e-10
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_monotone_in_order(seed):
    A = unit_column_matrix(seed, 6, 6)
    deltas = [exact_ric(A, K).delta for K in range(1, 5)]
    for lo, hi in zip(deltas, deltas[1:]):
        assert lo <= hi + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 3.0))
def test_scaling_covariance(seed, c):
    """Rescaling A rescales the Gram spectrum by c^2 over the same subsets."""
    from itertools import combinations

    A = unit_column_matrix(seed, 3, 4)
    G = A.T @ A
    expected = -math.inf
    for S in combinations(range(4), 2):
        w = np.linalg.eigvalsh(G[np.ix_(S, S)])
        expected = max(expected, max(c * c * w[-1] - 1.0, 1.0 - c * c * w[0]))
    assert exact_ric(c * A, 2).delta == pytest.approx(expected, rel=1e-10)


def test_witness_consistency():
    A = unit_column_matrix(99, 4, 6)
    report = exact_ric(A, 3)
    sub = A[:, [i - 1 for i in report.witness_subset]]
    w, V = np.linalg.eigh(sub.T @ sub)
    extreme = w[0] if abs(1 - w[0]) >= abs(w[-1] - 1) else w[-1]
    x = V[:, 0] if extreme == w[0] else V[:, -1]
    # evaluating ||A_S x||^2 on the extremal eigenvector reproduces delta
    assert abs(np.linalg.norm(sub @ x) ** 2 - 1.0) == pytest.approx(
        report.delta, abs=1e-10
    )
    assert report.witness_eigenvalue == pytest.approx(extreme, abs=1e-12)


# ------------------------------------------------------------- sharp region


def test_in_sharp_region_values():
    assert in_sharp_region(1, 0.7)  # 1/sqrt(2) ~ 0.7071
    assert not in_sharp_region(3, 0.5)  # exactly on the boundary
    assert in_sharp_region(8, 0.2)
    assert not in_sharp_region(8, 1.0 / 3.0 + 1e-12)


def test_in_sharp_region_validation():
    with pytest.raises(InvalidOrder):
        in_sharp_region(0, 0.1)
    with pytest.raises(InvalidOrder):
        in_sharp_region(2, 1.0)
    with pytest.raises(InvalidOrder):
        in_sharp_region(2, -0.1)


@given(st.integers(1, 50))
def test_boundary_decided_by_exact_rationals(K):
    from fractions import Fraction

    delta = 1.0 / math.sqrt(K + 1)
    # the float nearest the boundary lands on whichever side its exact
    # rational value falls, never misclassified by further rounding
    assert in_sharp_region(K, delta) == (Fraction(delta) ** 2 * (K + 1) < 1)
    if K + 1 in (4, 16):  # boundary is a dyadic rational, exactly representable
        assert not in_sharp_region(K, delta)


# ---------------------------------------------------------- RIP inequality


def test_check_rip_inequality():
    assert check_rip_inequality(np.eye(3), np.array([1.0, -2.0, 0.5]), 0.0)
    delta = 0.3
    A = np.array([[math.sqrt(1 - delta**2), 0.0], [delta, 1.0]])
    assert check_rip_inequality(A, np.array([1.0, 0.0]), delta)
    # top eigenvector direction violates a halved constant
    w, V = np.linalg.eigh(A.T @ A)
    assert not check_rip_inequality(A, V[:, -1], delta / 2)


def test_check_rip_inequality_pads_short_vectors():
    A = unit_column_matrix(3, 4, 5)
    assert check_rip_inequality(A, np.array([1.0]), exact_ric(A, 1).delta)

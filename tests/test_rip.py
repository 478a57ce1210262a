import math
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_sharp import rip
from omp_sharp.errors import BudgetExceeded, DimensionMismatch, InvalidOrder
from omp_sharp.instances import counterexample_operator
from omp_sharp.omp import linf_stopping_threshold
from omp_sharp.rip import (
    _CHUNK,
    exact_ric,
    exact_rics,
    in_sharp_region,
    linf_threshold_rics,
    subset_spectra,
)


def unit_column_matrix(seed, m, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    return A / np.linalg.norm(A, axis=0)


def brute_force_ric(A, K):
    """Independent oracle: pairwise-combinations loop with eigvalsh per subset."""
    G = A.T @ A
    best = -math.inf
    for S in combinations(range(A.shape[1]), K):
        w = np.linalg.eigvalsh(G[np.ix_(S, S)])
        best = max(best, max(w[-1] - 1.0, 1.0 - w[0]))
    return best


def reference_ric(A, K):
    """The unpruned search: every K-subset in lexicographic chunks, one
    batched eigvalsh per chunk, first occurrence of the largest delta.

    Returns (delta, witness_subset, witness_eigenvalue) as exact_ric reports
    them, so the pruned search must match it with ``==``.
    """
    gram = A.T @ A
    subsets = combinations(range(A.shape[1]), K)
    best_delta, best_subset, best_eigenvalue = -math.inf, None, None
    while chunk := list(islice(subsets, _CHUNK)):
        idx = np.asarray(chunk)
        eigenvalues = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        low = 1.0 - eigenvalues[:, 0]
        high = eigenvalues[:, -1] - 1.0
        deltas = np.maximum(low, high)
        j = int(np.argmax(deltas))
        if deltas[j] > best_delta:
            best_delta = float(deltas[j])
            best_subset = tuple(int(i) + 1 for i in idx[j])
            best_eigenvalue = float(
                eigenvalues[j, 0] if low[j] >= high[j] else eigenvalues[j, -1]
            )
    return best_delta, best_subset, best_eigenvalue


def structured_matrix(rng, n, order, spectrum=None):
    """A block of ``order`` columns with Gram spectrum ``spectrum`` (default
    linspace(0.3, 1.45, order)) in the orthogonal complement of ``n - order``
    orthonormal columns, block first."""
    if spectrum is None:
        spectrum = np.linspace(0.3, 1.45, order)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((order, order)))[0]
    block = Q[:, n - order :] @ (np.sqrt(spectrum)[:, None] * V.T)
    return np.hstack([block, Q[:, : n - order]])


@st.composite
def ric_inputs(draw):
    """Matrices on which pruning must not change the report: Gaussian (also
    with more columns than rows), rescaled, with duplicate columns or a
    scaled-identity block (exact ties), and the structured block."""
    kind = draw(
        st.sampled_from(["gaussian", "scaled", "duplicates", "identity", "structured"])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(10, 14))
    m = draw(st.integers(4, n + 3))
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    if kind == "scaled":
        A = draw(st.floats(0.2, 2.0)) * A / np.linalg.norm(A, axis=0)
    elif kind == "duplicates":
        for _ in range(draw(st.integers(1, 4))):
            i, j = rng.choice(n, size=2, replace=False)
            A[:, j] = A[:, i]
    elif kind == "identity":
        size = draw(st.integers(3, min(m, n)))
        A[:, :size] = 0.0
        A[:size, :size] = draw(st.floats(0.3, 1.5)) * np.eye(size)
    elif kind == "structured":
        order = draw(st.integers(2, n - 2))
        A = structured_matrix(rng, n, order)
        if draw(st.booleans()):
            A = A[:, rng.permutation(n)]
    return A


@settings(max_examples=40)
@given(ric_inputs())
def test_pruned_search_matches_unpruned_reference(A):
    n = A.shape[1]
    for K in range(1, n + 1):
        report = exact_ric(A, K)
        assert (
            report.delta,
            report.witness_subset,
            report.witness_eigenvalue,
        ) == reference_ric(A, K)
        assert report.subsets_evaluated + report.subsets_pruned == math.comb(n, K)
        assert report.subsets_evaluated >= 1 and report.subsets_pruned >= 0


@st.composite
def ric_stacks(draw):
    """Stacks of 1 to 30 Gaussian matrices on 6 to 12 columns, some with
    duplicate columns or a scaled-identity block (exact ties)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 12))
    m = draw(st.integers(3, n + 3))
    A = rng.standard_normal((draw(st.integers(1, 30)), m, n)) / math.sqrt(m)
    for a in A:
        kind = rng.integers(3)
        if kind == 1:
            i, j = rng.choice(n, size=2, replace=False)
            a[:, j] = a[:, i]
        elif kind == 2:
            size = rng.integers(2, min(m, n) + 1)
            a[:, :size] = 0.0
            a[:size, :size] = rng.uniform(0.3, 1.5) * np.eye(size)
    return A


@settings(max_examples=25)
@given(ric_stacks())
def test_stacked_search_matches_exact_ric_per_matrix(A):
    for K in range(1, A.shape[2] + 1):
        assert exact_rics(A, K) == [exact_ric(a, K) for a in A]


def test_stacked_search_is_one_eigensolve_unless_the_walk_bounds(monkeypatch):
    rng = np.random.default_rng(7)
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
    # 58 matrices of 70 order-4 subsets fit one eigensolve of at most _CHUNK blocks
    A = rng.standard_normal((_CHUNK // 70, 14, 8))
    reports = exact_rics(A, 4)
    assert solves == [(58, 70, 4, 4)]
    assert [(r.subsets_evaluated, r.subsets_pruned) for r in reports] == [(70, 0)] * 58
    # one matrix more and the subsets split so that each eigensolve still fits
    A = rng.standard_normal((59, 14, 8))
    solves.clear()
    reports = exact_rics(A, 4)
    assert solves == [(59, 69, 4, 4), (59, 1, 4, 4)]
    assert reports == [exact_ric(a, 4) for a in A]
    # on 10 columns the order-4 walk bounds: each matrix gets exact_ric's own search
    A = rng.standard_normal((3, 10, 10)) / math.sqrt(10)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    reports = exact_rics(A, 4)
    assert reports == [exact_ric(a, 4) for a in A]
    assert all(r.subsets_pruned > 0 for r in reports)


def test_stacked_search_keeps_the_first_tie_across_chunks(monkeypatch):
    """Every order-2 subset holding the scaled column ties; with two subsets
    a chunk, the ties span several of the eight chunks."""
    A = np.stack([np.eye(6), np.eye(6)])
    A[0, :, 3] *= 1.5
    A[1, :, 5] *= 0.5
    monkeypatch.setattr(rip, "_CHUNK", 2)
    reports = exact_rics(A, 2)
    assert [r.witness_subset for r in reports] == [(1, 4), (1, 6)]
    assert reports == [exact_ric(a, 2) for a in A]


def test_structured_block_prunes_nearly_everything():
    A = structured_matrix(np.random.default_rng(3), 16, 6)
    report = exact_ric(A, 6)
    assert report.witness_subset == (1, 2, 3, 4, 5, 6)
    assert report.delta == pytest.approx(0.7, abs=1e-12)
    assert (report.delta, report.witness_subset, report.witness_eigenvalue) == (
        reference_ric(A, 6)
    )
    assert report.subsets_pruned > 0.9 * math.comb(16, 6)
    assert report.subsets_evaluated + report.subsets_pruned == math.comb(16, 6)


def test_ties_go_to_the_lexicographically_first_subset_in_any_walk_order():
    """Columns 4 and 13 carry every maximal subset; the walk takes them
    first, so it meets the tie (4, 13, ...) before (1, 2, 3, 4, 5, 6)."""
    A = np.eye(16)
    A[:, [3, 12]] *= 1.5
    report = exact_ric(A, 6)
    assert report.witness_subset == (1, 2, 3, 4, 5, 6)
    assert report.delta == pytest.approx(1.25, abs=1e-12)
    assert (report.delta, report.witness_subset, report.witness_eigenvalue) == (
        reference_ric(A, 6)
    )


def test_ordered_walk_yields_every_subset_once_in_ascending_rows():
    A = unit_column_matrix(4, 10, 16)
    gram = A.T @ A
    chunks = list(subset_spectra(gram, 6, lambda: -math.inf))
    subsets = np.concatenate([subsets for subsets, _ in chunks])
    eigenvalues = np.concatenate([values for _, values in chunks])
    rows = [tuple(S) for S in subsets]
    assert sorted(rows) == list(combinations(range(16), 6))
    assert rows != sorted(rows)  # the walk took the columns out of order
    for S, values in zip(subsets[::97], eigenvalues[::97]):
        expected = np.linalg.eigvalsh(gram[np.ix_(S, S)])
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-13)


def test_gaussian_searches_prune_steadily_across_draws():
    """The walk's column order makes the bound prune most of a 16-column
    Gaussian order-6 search on every draw, not only on lucky ones."""
    pruned = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for m in (16, 32):
            report = exact_ric(rng.standard_normal((m, 16)) / math.sqrt(m), 6)
            pruned.append(report.subsets_pruned / math.comb(16, 6))
    assert min(pruned) > 0.5
    assert np.median(pruned) > 0.75


def test_small_searches_run_as_one_batch():
    """Below the bounding size every subset goes to one eigensolve, as the
    sweeps' 8-column orders always do."""
    gram = unit_column_matrix(5, 14, 8).T @ unit_column_matrix(5, 14, 8)
    for K in range(1, 9):
        chunks = list(subset_spectra(gram, K, lambda: 0.0))
        assert len(chunks) == 1
        assert len(chunks[0][0]) == math.comb(8, K)
    report = exact_ric(unit_column_matrix(5, 14, 8), 4)
    assert (report.subsets_evaluated, report.subsets_pruned) == (70, 0)


def count_bound_solves(monkeypatch):
    """Record the column count of every single-block eigensolve, which only
    the interlacing bound makes (subset spectra are solved in batches)."""
    columns = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        if a.ndim == 2:
            columns.append(a.shape[0])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return columns


def test_wide_low_order_search_computes_no_bound(monkeypatch):
    """At order 2 a bound would cost more than the subsets it could skip,
    so the cost cutoff alone leaves the search unbounded."""
    A = np.random.default_rng(8).standard_normal((150, 500)) / math.sqrt(150)
    bounds = count_bound_solves(monkeypatch)
    report = exact_ric(A, 2)
    assert bounds == []
    assert (report.subsets_evaluated, report.subsets_pruned) == (math.comb(500, 2), 0)


def test_report_json_carries_the_work_counters():
    doc = exact_ric(np.eye(4), 2).to_json_dict()
    assert doc["subsets_evaluated"] + doc["subsets_pruned"] == 6


def test_subset_spectra_walks_every_subset_in_lexicographic_order():
    A = unit_column_matrix(4, 10, 16)
    gram = A.T @ A
    chunks = list(subset_spectra(gram, 6))
    assert len(chunks) > 1  # C(16, 6) = 8008 spans more than one chunk
    assert all(len(subsets) <= _CHUNK for subsets, _ in chunks)
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
    with pytest.raises(InvalidOrder):
        exact_rics(np.stack([A, A]), 5)
    with pytest.raises(BudgetExceeded):
        exact_rics(np.ones((2, 2, 30)), 15)
    with pytest.raises(DimensionMismatch):
        exact_rics(A, 2)


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


@settings(max_examples=100)
@given(st.integers(1, 50), st.floats(0.0, 1.0, exclude_max=True))
def test_boundary_decided_by_exact_rationals(K, random_delta):
    from fractions import Fraction

    def exact(delta):
        return Fraction(delta) ** 2 * (K + 1) < 1

    delta = 1.0 / math.sqrt(K + 1)
    # the float nearest the boundary lands on whichever side its exact
    # rational value falls, never misclassified by further rounding
    assert in_sharp_region(K, delta) == exact(delta)
    if K + 1 in (4, 16):  # boundary is a dyadic rational, exactly representable
        assert not in_sharp_region(K, delta)
    # its float neighbours, a few units of round-off either side, fall inside
    # SHARP_REGION_BAND and are decided on rationals too
    below, above = delta, delta
    for _ in range(4):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
        assert in_sharp_region(K, below) == exact(below)
        assert in_sharp_region(K, above) == exact(above)
    # just outside the band the float product decides, and agrees
    for factor in (1.0 - 1e-11, 1.0 + 1e-11):
        assert in_sharp_region(K, delta * factor) == exact(delta * factor)
    assert in_sharp_region(K, random_delta) == exact(random_delta)


@settings(max_examples=50)
@given(st.integers(2**53, 2**80), st.floats(0.0, 1.0, exclude_max=True))
def test_sparsity_beyond_float_precision_decided_by_exact_rationals(K, random_delta):
    from fractions import Fraction

    def exact(delta):
        return Fraction(delta) ** 2 * (K + 1) < 1

    delta = 1.0 / math.sqrt(K + 1)
    for candidate in (delta, math.nextafter(delta, 0.0), math.nextafter(delta, 1.0),
                      random_delta):
        assert in_sharp_region(K, candidate) == exact(candidate)
    # 2**54 + 1 is 2**54 as a float, which would put 2**-27 on the boundary
    assert not in_sharp_region(2**54, 2.0**-27)
    assert in_sharp_region(2**53, 2.0**-27)
    # K + 1 beyond the float range
    assert not in_sharp_region(10**400, 0.3)
    assert in_sharp_region(10**400, 0.0)


@pytest.mark.parametrize("K, n, unit_norm, orders", [
    (1, 10, False, [2]),
    (1, 10, True, [2]),
    (3, 10, True, [4]),
    (3, 10, False, [4, 2]),
    (3, 2, False, [2]),
])
def test_linf_threshold_rics_searches_each_order_once(monkeypatch, K, n, unit_norm, orders):
    A = np.stack([unit_column_matrix(seed, 40, n) for seed in (1, 2)])
    searched = []
    stacked = rip.exact_rics

    def counted(A, K):
        searched.append(K)
        return stacked(A, K)

    monkeypatch.setattr(rip, "exact_rics", counted)
    deltas, deltas2 = linf_threshold_rics(A, K, unit_norm)
    assert searched == orders
    assert deltas == [exact_ric(a, min(K + 1, n)).delta for a in A]
    for a, d, d2 in zip(A, deltas, deltas2):
        # the pair both searches would give: delta_2 capped at delta_(K+1)
        full2 = min(exact_ric(a, min(2, n)).delta, d)
        assert d2 <= d
        if not unit_norm:
            assert d2 == full2
        assert (linf_stopping_threshold(K, d2, d, 0.1, unit_norm)
                == linf_stopping_threshold(K, full2, d, 0.1, unit_norm))

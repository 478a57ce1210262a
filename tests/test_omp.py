import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_sharp import omp
from omp_sharp.errors import (
    DegenerateDenominator,
    DegenerateMatrix,
    DimensionMismatch,
    InvalidDeltaOrder,
    InvalidOrder,
    OutOfSharpRegion,
    ParameterOutOfRange,
    RankDeficient,
)
from omp_sharp.linalg import RANK_TOLERANCE
from omp_sharp.omp import (
    STOP_MAX_ITERATIONS,
    STOP_RANK_DEFICIENT,
    STOP_RULE_MET,
    STOP_STALLED,
    TIE_TOLERANCE,
    CorrelationLInf,
    FixedIterations,
    OmpIteration,
    OmpTrace,
    ResidualL2,
    SparseSignal,
    linf_stopping_threshold,
    min_magnitude_threshold_l2,
    min_magnitude_threshold_linf,
    prior_art_thresholds,
    run_omp,
    run_omps,
)


def unit_column_matrix(seed, m, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    return A / np.linalg.norm(A, axis=0)


# ------------------------------------------------------------- SparseSignal


def test_sparse_signal_support_is_exact():
    x = SparseSignal(np.array([0.0, 1e-300, 0.0, -2.0]))
    assert x.support == {2, 4}
    assert x.min_magnitude() == 1e-300
    assert x.n == 4


def test_sparse_signal_zero():
    x = SparseSignal(np.zeros(3))
    assert x.support == frozenset()
    assert x.min_magnitude() == 0.0


def test_sparse_signal_sparsity_gate():
    with pytest.raises(InvalidOrder):
        SparseSignal(np.array([1.0, 1.0]), sparsity=1)


@pytest.mark.parametrize("values, sparsity", [
    ([0.0, 1e-300, 0.0, -2.0], 2), ([0.0, 0.0], None), ([3.5], 1), ([-0.0, 5e-324, 1.0], None),
])
def test_built_signal_equals_the_validated_one(values, sparsity):
    values = np.array(values)
    built, checked = SparseSignal._built(values, sparsity), SparseSignal(values, sparsity)
    assert (built.sparsity, built.support, built.n) == (checked.sparsity, checked.support, checked.n)
    assert np.array_equal(built.values, checked.values)
    assert built.min_magnitude() == checked.min_magnitude()


def test_rule_validation():
    with pytest.raises(InvalidOrder):
        FixedIterations(0)
    for bad in (ResidualL2, CorrelationLInf):
        for value in (0, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterOutOfRange):
                bad(value)


# ------------------------------------------------------------------ solver


def test_noiseless_recovery_frozen_trace():
    # selection order and estimate frozen from a hand-run with an SVD solver
    B = unit_column_matrix(7, 6, 5)
    x = np.zeros(5)
    x[1], x[3] = 2.0, -1.5
    trace = run_omp(B @ x, B, ResidualL2(1e-10))
    assert [it.selected_index for it in trace.iterations] == [2, 4]
    assert trace.stop_reason == STOP_RULE_MET
    np.testing.assert_allclose(trace.final_estimate.values, x, atol=1e-10)


def test_zero_measurements_zero_iterations():
    trace = run_omp(np.zeros(3), np.eye(3), ResidualL2(1.0))
    assert trace.iterations == ()
    assert trace.final_support == frozenset()
    assert trace.stop_reason == STOP_RULE_MET


def test_zero_measurements_correlation_rule():
    # no pre-check for correlation rules, but a fully uncorrelated residual
    # meets one, ||A^T r||_inf = 0 being below every threshold
    trace = run_omp(np.zeros(3), np.eye(3), CorrelationLInf(1.0))
    assert trace.iterations == ()
    assert trace.stop_reason == STOP_RULE_MET


def test_uncorrelated_residual_stalls_unless_the_rule_holds():
    # y is orthogonal to every column but ||y|| = 1 > 0.1: the rule is not met
    trace = run_omp(np.array([0.0, 0.0, 1.0]), np.eye(3)[:, :2], ResidualL2(0.1))
    assert trace.iterations == ()
    assert trace.final_support == frozenset()
    assert trace.stop_reason == STOP_STALLED
    # no iteration has run, so two fixed iterations are not done
    trace = run_omp(np.zeros(3), np.eye(3), FixedIterations(2))
    assert trace.iterations == ()
    assert trace.stop_reason == STOP_STALLED


def test_fixed_iterations_ignores_residual():
    A = np.eye(3)
    trace = run_omp(np.array([3.0, 2.0, 1.0]), A, FixedIterations(2))
    assert len(trace.iterations) == 2
    assert trace.final_support == {1, 2}
    assert trace.stop_reason == STOP_RULE_MET


def test_fixed_iterations_cap_check():
    with pytest.raises(InvalidOrder):
        run_omp(np.ones(3), np.eye(3), FixedIterations(4))
    with pytest.raises(InvalidOrder):
        run_omp(np.ones(3), np.eye(3), ResidualL2(0.1), max_iterations=0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_estimate_fails_the_run():
    # y and A are finite, but the estimate y / 1e-150 is not
    A, y = np.array([[1e-150]]), np.array([1e200])
    with pytest.raises(DimensionMismatch, match="vector contains non-finite entries"):
        run_omp(y, A, FixedIterations(1))
    # in a stack, it fails only its own problem
    traces, failures = run_omps(
        np.array([[1.0], y]), np.array([[[1.0]], A]), [FixedIterations(1)] * 2
    )
    assert list(failures) == [1] and traces[1] is None
    assert str(failures[1]) == "vector contains non-finite entries"
    assert_same_trace(traces[0], run_omp(np.array([1.0]), np.array([[1.0]]), FixedIterations(1)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_stacked_failures_are_the_errors_of_each_problem_alone():
    """A stack of good problems, measurements that are not finite and an
    estimate that overflows: each good trace is run_omp's, bit for bit,
    and each failure is the error run_omp raises on its problem."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 3, 4))
    Y = rng.standard_normal((6, 3))
    Y[1, 2], Y[4, 0] = np.nan, np.inf
    # problem 3 is the overflow of test_overflowing_estimate_fails_the_run
    A[3], Y[3] = np.eye(3, 4) * [1e-150, 1.0, 1.0, 1.0], [1e200, 0.0, 0.0]
    rules = [FixedIterations(1), ResidualL2(0.1), CorrelationLInf(0.01)] * 2
    traces, failures = run_omps(Y, A, rules)
    assert sorted(failures) == [1, 3, 4]
    for i, (y, a, rule) in enumerate(zip(Y, A, rules)):
        if i in failures:
            assert traces[i] is None
            with pytest.raises(type(failures[i])) as alone:
                run_omp(y, a, rule)
            assert str(alone.value) == str(failures[i])
        else:
            assert_same_trace(traces[i], run_omp(y, a, rule))
            assert_same_trace(traces[i], incremental_omp(y, a, rule))


def overflowing_problem(scale):
    """y = A[:, [1, 4]] @ [1, -2] on the 6 x 10 Gaussian A of default_rng(0),
    y and A both scaled by ``scale``.  Every entry is finite, but at 1e154
    the products A^T y overflow."""
    A = scale * np.random.default_rng(0).standard_normal((6, 10))
    return A[:, [1, 4]] @ [1.0, -2.0], A


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_correlations_fail_the_run():
    y, A = overflowing_problem(1e150)
    assert run_omp(y, A, FixedIterations(2)).final_support == {2, 5}
    y_big, A_big = overflowing_problem(1e154)
    assert np.isfinite(A_big).all() and np.isfinite(y_big).all()
    with pytest.raises(DegenerateMatrix, match=r"^correlations A\^T r\^0 are not finite$"):
        run_omp(y_big, A_big, FixedIterations(2))
    # in a stack, it fails only its own problem
    rules = [FixedIterations(2), FixedIterations(2), ResidualL2(1e140)]
    traces, failures = run_omps(np.stack([y, y_big, y]), np.stack([A, A_big, A]), rules)
    assert list(failures) == [1] and traces[1] is None
    assert str(failures[1]) == "correlations A^T r^0 are not finite"
    assert isinstance(failures[1], DegenerateMatrix)
    assert_same_trace(traces[0], run_omp(y, A, rules[0]))
    assert_same_trace(traces[2], run_omp(y, A, rules[2]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_column_norm_fails_the_run():
    """y = ones keeps A^T y finite on the 1e154-scaled matrix, but the
    selected column's squared norm overflows: no rank_deficient stop after
    0 iterations, but DegenerateMatrix."""
    y, A = overflowing_problem(1e150)
    A_big = overflowing_problem(1e154)[1]
    with pytest.raises(DegenerateMatrix, match=r"^Gram-Schmidt diagonal of column \d+ is not finite$"):
        run_omp(np.ones(6), A_big, FixedIterations(2))
    # in a stack beside a healthy problem, it fails only its own problem
    rules = [FixedIterations(2)] * 2
    traces, failures = run_omps(np.stack([np.ones(6), y]), np.stack([A_big, A]), rules)
    assert list(failures) == [0] and traces[0] is None
    assert isinstance(failures[0], DegenerateMatrix)
    assert_same_trace(traces[1], run_omp(y, A, rules[1]))
    assert traces[1].final_support == {2, 5}


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        run_omp(np.ones(2), np.eye(3), ResidualL2(1.0))


def test_tie_break_smallest_index():
    A = np.eye(2)
    trace = run_omp(np.array([1.0, 1.0]), A, FixedIterations(1))
    assert trace.iterations[0].selected_index == 1


def test_tie_break_seeded_rng_hits_both():
    A = np.eye(2)
    y = np.array([1.0, -1.0])
    seen = set()
    for seed in range(16):
        rng = np.random.default_rng(seed)
        trace = run_omp(y, A, FixedIterations(1), tie_break_rng=rng)
        seen.add(trace.iterations[0].selected_index)
    assert seen == {1, 2}


def test_rank_deficient_stop_reason():
    # nearly parallel columns: the second selection is numerically singular
    A = np.array([[1.0, 1.0], [0.0, 1e-13], [0.0, 0.0]])
    trace = run_omp(np.array([1.0, 1.0, 0.0]), A, ResidualL2(1e-8))
    assert trace.stop_reason == STOP_RANK_DEFICIENT
    assert trace.final_support == {1}


def test_duplicate_columns_stop_without_progress():
    # an exactly duplicated column leaves a residual orthogonal to everything
    A = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    trace = run_omp(np.array([1.0, 1.0, 0.0]), A, ResidualL2(1e-8))
    assert trace.stop_reason in (STOP_RULE_MET, STOP_STALLED)
    assert trace.final_support == {1}


def test_reselection_reports_stalled():
    # noiseless K=3 with an unreachable epsilon: once the support is found the
    # residual is round-off, and the next pick is an already chosen column
    rng = np.random.default_rng(0)
    A = unit_column_matrix(0, 20, 40)
    x = np.zeros(40)
    x[rng.choice(40, 3, replace=False)] = rng.standard_normal(3)
    trace = run_omp(A @ x, A, ResidualL2(1e-300))
    assert trace.stop_reason == STOP_STALLED
    assert len(trace.iterations) < 20
    assert trace.final_support == SparseSignal(x).support


def test_max_iterations_stop_reason():
    A = unit_column_matrix(3, 4, 6)
    y = np.random.default_rng(4).standard_normal(4)
    trace = run_omp(y, A, ResidualL2(1e-16), max_iterations=2)
    assert trace.stop_reason == STOP_MAX_ITERATIONS
    assert len(trace.iterations) == 2


def test_trace_json_roundtrip_fields():
    trace = run_omp(np.array([2.0, 0.0]), np.eye(2), ResidualL2(0.5))
    doc = trace.to_json_dict()
    assert doc["final_support"] == [1]
    assert doc["stop_reason"] == STOP_RULE_MET
    assert len(doc["iterations"]) == 1
    assert doc["iterations"][0]["selected_index"] == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_residual_monotone_and_orthogonal(seed, k):
    """Residual norms never increase and each residual is orthogonal to the
    selected columns."""
    A = unit_column_matrix(seed, 8, 6)
    y = np.random.default_rng(seed ^ 0xFEED).standard_normal(8)
    trace = run_omp(y, A, FixedIterations(k))
    prev = float(np.linalg.norm(y))
    for it in trace.iterations:
        assert it.residual_l2 <= prev + 1e-10
        prev = it.residual_l2
    S = sorted(trace.final_support)
    r = y - A[:, [i - 1 for i in S]] @ np.linalg.lstsq(
        A[:, [i - 1 for i in S]], y, rcond=None
    )[0]
    assert abs(np.linalg.norm(r) - trace.iterations[-1].residual_l2) <= 1e-10


# ------------------------------------------- reference solver, equivalence


def reference_least_squares(A_S, y):
    """min_x ||y - A_S x||_2 by a Householder QR of the whole column set;
    raises RankDeficient when the smallest R diagonal is at most
    RANK_TOLERANCE times the largest."""
    Q, R = np.linalg.qr(A_S)
    diag = np.abs(np.diag(R))
    if diag.min() <= RANK_TOLERANCE * diag.max():
        raise RankDeficient("column set numerically rank deficient")
    return np.linalg.solve(R, Q.T @ y)


def reference_omp(y, A, rule, max_iterations=None):
    """OMP re-solving least squares on the whole selected set every
    iteration: the straightforward O(m k^2)-per-step form of run_omp, kept
    here as the reference its incremental factorization is checked against."""
    m, n = A.shape
    if max_iterations is None:
        max_iterations = min(m, n)
    selected = []
    iterations = []
    estimate = np.zeros(0)

    def finish(reason):
        values = np.zeros(n)
        values[[i - 1 for i in sorted(selected)]] = estimate
        return selected, iterations, values, reason

    if isinstance(rule, ResidualL2) and np.linalg.norm(y) <= rule.epsilon:
        return finish(STOP_RULE_MET)
    residual = y
    residual_l2 = float(np.linalg.norm(y))
    for k in range(1, max_iterations + 1):
        correlations = A.T @ residual
        if np.max(np.abs(correlations)) == 0.0:
            met = rule.met(k - 1, residual_l2, 0.0)
            return finish(STOP_RULE_MET if met else STOP_STALLED)
        magnitudes = np.abs(correlations)
        top = magnitudes.max()
        s = int(np.nonzero(top - magnitudes <= 1e-12 * top)[0][0]) + 1
        if s in selected:
            return finish(STOP_STALLED)
        columns = A[:, [i - 1 for i in sorted(selected + [s])]]
        try:
            estimate = reference_least_squares(columns, y)
        except RankDeficient:
            return finish(STOP_RANK_DEFICIENT)
        selected.append(s)
        residual = y - columns @ estimate
        residual_l2 = float(np.linalg.norm(residual))
        correlation_linf = float(np.max(np.abs(A.T @ residual)))
        iterations.append((s, correlations, residual_l2, correlation_linf))
        if rule.met(k, residual_l2, correlation_linf):
            return finish(STOP_RULE_MET)
    return finish(STOP_MAX_ITERATIONS)


def assert_matches_reference(y, A, rule, max_iterations=None):
    selected, iterations, estimate, reason = reference_omp(y, A, rule, max_iterations)
    trace = run_omp(y, A, rule, max_iterations=max_iterations)
    assert [it.selected_index for it in trace.iterations] == selected
    assert trace.stop_reason == reason
    for it, (_, correlations, residual_l2, correlation_linf) in zip(
        trace.iterations, iterations
    ):
        np.testing.assert_allclose(it.correlations, correlations, rtol=0, atol=1e-10)
        assert abs(it.residual_l2 - residual_l2) <= 1e-10
        assert abs(it.correlation_linf - correlation_linf) <= 1e-10
    np.testing.assert_allclose(trace.final_estimate.values, estimate, rtol=0, atol=1e-10)
    return trace


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 24),
    st.integers(2, 48),
    st.sampled_from(["fixed", "l2", "linf"]),
    st.booleans(),
)
def test_incremental_solver_matches_reference(seed, m, n, rule_kind, noiseless):
    """Same selections and stop reasons, and residuals, correlations and
    estimates within 1e-10, for rules that stop above round-off: once the
    residual is round-off, the next pick is among noise."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, n)
    cap = min(m, n)
    K = int(rng.integers(1, cap + 1))
    x = np.zeros(n)
    x[rng.choice(n, K, replace=False)] = rng.uniform(0.5, 2.0, K) * rng.choice([-1, 1], K)
    y = A @ x
    if not noiseless:
        y = y + 0.1 * rng.standard_normal(m)
    limit = int(rng.integers(1, cap + 1))
    scale = 10.0 ** rng.uniform(-8.0, 0.0)
    if rule_kind == "fixed":
        count = min(limit, K) if noiseless else limit
        rule = FixedIterations(int(rng.integers(1, count + 1)))
    elif rule_kind == "l2":
        rule = ResidualL2(scale * float(np.linalg.norm(y)))
    else:
        rule = CorrelationLInf(scale * float(np.max(np.abs(A.T @ y))))
    assert_matches_reference(y, A, rule, max_iterations=limit)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 16),
    st.integers(3, 24),
    st.floats(1e-14, 1e-13),
)
def test_near_parallel_columns_stop_rank_deficient(seed, m, n, eta):
    """Columns i and j span the plane of y and are parallel to within eta;
    the other columns are orthogonal to that plane.  After one of the pair is
    chosen the other is the only one correlated with the residual (eta stays
    above the round-off in the other correlations), and appending it is
    numerically singular (eta stays below RANK_TOLERANCE)."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
    i, j = (int(v) for v in rng.choice(n, 2, replace=False))
    A = basis[:, 2:] @ rng.standard_normal((m - 2, n))
    A[:, i] = basis[:, 0]
    A[:, j] = basis[:, 0] + eta * basis[:, 1]
    y = basis[:, 0] + basis[:, 1]
    trace = assert_matches_reference(y, A, ResidualL2(1e-8))
    assert trace.stop_reason == STOP_RANK_DEFICIENT
    assert len(trace.final_support) == 1
    assert trace.final_support <= {i + 1, j + 1}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 16), st.floats(1e-7, 1e-5))
def test_ill_conditioned_selection_keeps_residual_orthogonal(seed, m, delta):
    """Four columns within delta of each other make the selected set
    ill-conditioned (condition number of order 1/delta).  Each residual must
    still be orthogonal to every column chosen before it: without the
    re-orthogonalization pass, Gram-Schmidt loses that at about eps/delta^2."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    A[:, 1:4] = A[:, [0]] + delta * rng.standard_normal((m, 3))
    y = rng.standard_normal(m)
    trace = run_omp(y, A, FixedIterations(m))
    chosen = []
    for it in trace.iterations:
        assert np.all(np.abs(it.correlations[chosen]) <= 1e-10 * np.linalg.norm(y))
        chosen.append(it.selected_index - 1)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 20),
    st.integers(2, 40),
    st.integers(1, 5),
    st.sampled_from([1e-300, 1e-12, 1e-6]),
)
def test_stop_reason_matches_iteration_count(seed, m, n, K, epsilon):
    """max_iterations means the cap was reached; stalled and rank_deficient
    mean the run stopped below it."""
    rng = np.random.default_rng(seed)
    A = unit_column_matrix(seed, m, n)
    K = min(K, m, n)
    x = np.zeros(n)
    x[rng.choice(n, K, replace=False)] = rng.standard_normal(K)
    cap = int(rng.integers(1, min(m, n) + 1))
    trace = run_omp(A @ x, A, ResidualL2(epsilon), max_iterations=cap)
    if trace.stop_reason == STOP_MAX_ITERATIONS:
        assert len(trace.iterations) == cap
    elif trace.stop_reason in (STOP_STALLED, STOP_RANK_DEFICIENT):
        assert len(trace.iterations) < cap
    else:
        assert trace.stop_reason == STOP_RULE_MET


# -------------------------------------- stacked solver, incremental reference


def incremental_omp(y, A, rule, max_iterations=None, tie_break_rng=None):
    """run_omp as it was before it became the one-problem case of run_omps:
    the same incremental QR, one problem at a time, with the same stop
    reasons.  The stacked solver must match it bit for bit, so it is kept
    here as the reference for that."""
    m, n = A.shape
    if max_iterations is None:
        max_iterations = min(m, n)
    Q = np.empty((max_iterations, m))
    R = np.zeros((max_iterations, max_iterations))
    qty = np.empty(max_iterations)
    largest_diagonal = 0.0
    iterations = []
    selected = []

    def finish(reason):
        k = len(selected)
        values = np.zeros(n)
        x = np.empty(k)
        for i in range(k - 1, -1, -1):
            x[i] = (qty[i] - R[i, i + 1:k] @ x[i + 1:]) / R[i, i]
        values[[i - 1 for i in selected]] = x
        return OmpTrace(tuple(iterations), frozenset(selected), SparseSignal(values), reason)

    residual_l2 = float(np.linalg.norm(y))
    if rule.met(0, residual_l2, math.inf):
        return finish(STOP_RULE_MET)
    correlations = A.T @ y
    correlation_linf = float(np.max(np.abs(correlations)))
    for k in range(max_iterations):
        if correlation_linf == 0.0:
            met = rule.met(k, residual_l2, 0.0)
            return finish(STOP_RULE_MET if met else STOP_STALLED)
        magnitudes = np.abs(correlations)
        top = float(magnitudes.max())
        tied = np.nonzero(top - magnitudes <= TIE_TOLERANCE * top)[0]
        if tie_break_rng is not None and len(tied) > 1:
            s = int(tie_break_rng.choice(tied)) + 1
        else:
            s = int(tied[0]) + 1
        if s in selected:
            return finish(STOP_STALLED)
        column = A[:, s - 1]
        basis = Q[:k]
        coefficients = basis @ column
        w = column - basis.T @ coefficients
        correction = basis @ w
        w -= basis.T @ correction
        diagonal = float(np.linalg.norm(w))
        largest_diagonal = max(largest_diagonal, diagonal)
        if diagonal <= RANK_TOLERANCE * largest_diagonal:
            return finish(STOP_RANK_DEFICIENT)
        Q[k] = w / diagonal
        R[:k, k] = coefficients + correction
        R[k, k] = diagonal
        qty[k] = Q[k] @ y
        selected.append(s)
        residual = y - Q[:k + 1].T @ qty[:k + 1]
        residual_l2 = float(np.linalg.norm(residual))
        next_correlations = A.T @ residual
        correlation_linf = float(np.max(np.abs(next_correlations)))
        iterations.append(OmpIteration(s, correlations, residual_l2, correlation_linf))
        if rule.met(k + 1, residual_l2, correlation_linf):
            return finish(STOP_RULE_MET)
        correlations = next_correlations
    return finish(STOP_MAX_ITERATIONS)


def assert_same_trace(trace, expected):
    """Every field equal, the arrays bit for bit."""
    assert trace.stop_reason == expected.stop_reason
    assert trace.final_support == expected.final_support
    assert np.array_equal(trace.final_estimate.values, expected.final_estimate.values)
    assert len(trace.iterations) == len(expected.iterations)
    for it, ref in zip(trace.iterations, expected.iterations):
        assert it.selected_index == ref.selected_index
        assert np.array_equal(it.correlations, ref.correlations)
        assert it.residual_l2 == ref.residual_l2
        assert it.correlation_linf == ref.correlation_linf


PROBLEM_KINDS = ["noisy", "noiseless", "ties", "duplicate", "near_parallel", "zero", "met_at_start"]


def stacked_problem(rng, kind, m, n, limit):
    """One (A, y, rule) of an m x n stack; ``kind`` picks how it stops."""
    A = rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, n)
    if kind == "ties":
        # columns that are exact negatives of each other tie in |A^T r|
        half = n // 2
        A[:, half:2 * half] = -A[:, :half]
    elif kind == "duplicate":
        i, j = rng.choice(n, 2, replace=False)
        A[:, j] = A[:, i]
    elif kind == "near_parallel":
        basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
        i, j = rng.choice(n, 2, replace=False)
        A = basis[:, 2:] @ rng.standard_normal((m - 2, n))
        A[:, i] = basis[:, 0]
        A[:, j] = basis[:, 0] + rng.uniform(1e-14, 1e-13) * basis[:, 1]
    K = int(rng.integers(1, min(m, n) + 1))
    x = np.zeros(n)
    x[rng.choice(n, K, replace=False)] = rng.uniform(0.5, 2.0, K) * rng.choice([-1, 1], K)
    y = A @ x
    if kind == "noisy":
        y = y + 0.1 * rng.standard_normal(m)
    elif kind == "zero":
        y = np.zeros(m)
    elif kind == "near_parallel":
        y = A[:, i] + basis[:, 1]
    norm = float(np.linalg.norm(y))
    if kind == "met_at_start":
        return A, y, ResidualL2(2.0 * norm + 1e-300)
    scale = 10.0 ** rng.uniform(-8.0, 0.0)
    rule_kind = rng.integers(3)
    if rule_kind == 0:
        return A, y, FixedIterations(int(rng.integers(1, limit + 1)))
    if rule_kind == 1:
        return A, y, ResidualL2(scale * norm + 1e-300)
    return A, y, CorrelationLInf(scale * float(np.max(np.abs(A.T @ y))) + 1e-300)


@settings(max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.integers(3, 12),
    st.integers(2, 16),
    st.lists(st.sampled_from(PROBLEM_KINDS), min_size=1, max_size=4),
    st.booleans(),
)
def test_stacked_solver_matches_incremental_reference(seed, count, m, n, kinds, row_major):
    """Every trace of run_omps, and of run_omp on each problem, equals the
    incremental reference bit for bit: stacks of 1-30 problems that mix
    rules, exact ties, duplicate columns (stalled), near-parallel columns
    (rank_deficient), y = 0 and a ResidualL2 met on r^0, so problems leave
    the stack at different iterations and for every reason."""
    rng = np.random.default_rng(seed)
    cap = min(m, n)
    # half the stacks run to the full cap through run_omps; the others stop
    # at a lower max_iterations, which only the solver loop itself takes
    limit = cap if rng.integers(2) else int(rng.integers(1, cap + 1))
    problems = [stacked_problem(rng, kinds[i % len(kinds)], m, n, limit) for i in range(count)]
    A = np.array([a for a, _, _ in problems])
    if not row_major:
        # the same matrices with columns contiguous in memory
        A = np.swapaxes(np.ascontiguousarray(np.swapaxes(A, 1, 2)), 1, 2)
    Y = np.array([y for _, y, _ in problems])
    rules = [rule for _, _, rule in problems]
    if limit == cap:
        traces, failures = run_omps(Y, A, rules)
    else:
        traces, failures = omp._solve(Y, A, rules, limit, None)
    assert failures == {}
    for a, y, rule, trace in zip(A, Y, rules, traces):
        expected = incremental_omp(y, a, rule, max_iterations=limit)
        assert_same_trace(trace, expected)
        assert_same_trace(run_omp(y, a, rule, max_iterations=limit), expected)


def test_tie_break_rng_matches_incremental_reference():
    # columns e_i and -e_i tie at every selection, so the generator is drawn
    # from on each of the three iterations
    A = np.hstack([np.eye(3), -np.eye(3)])
    y = np.array([1.0, -1.0, 1.0])
    for seed in range(8):
        trace = run_omp(y, A, FixedIterations(3), tie_break_rng=np.random.default_rng(seed))
        expected = incremental_omp(
            y, A, FixedIterations(3), tie_break_rng=np.random.default_rng(seed)
        )
        assert_same_trace(trace, expected)
        assert trace.stop_reason == STOP_RULE_MET


def test_stacked_solver_validation():
    A = np.array([np.eye(3)] * 2)
    with pytest.raises(DimensionMismatch):
        run_omps(np.ones((2, 2)), A, [ResidualL2(1.0)] * 2)
    with pytest.raises(DimensionMismatch):
        run_omps(np.ones((3, 3)), A, [ResidualL2(1.0)] * 3)
    with pytest.raises(DimensionMismatch):
        run_omps(np.ones((2, 3)), A, [ResidualL2(1.0)])
    with pytest.raises(DimensionMismatch):
        run_omps(np.ones((2, 3)), A[0], [ResidualL2(1.0)] * 2)
    with pytest.raises(InvalidOrder):
        run_omps(np.ones((2, 3)), A, [ResidualL2(1.0), FixedIterations(4)])


# -------------------------------------------------------------- thresholds


def test_min_magnitude_threshold_l2_frozen():
    assert min_magnitude_threshold_l2(3, 0.3, 0.25) == pytest.approx(1.25, abs=1e-15)


def test_min_magnitude_threshold_l2_gates():
    with pytest.raises(OutOfSharpRegion):
        min_magnitude_threshold_l2(3, 0.5, 1.0)
    with pytest.raises(ParameterOutOfRange):
        min_magnitude_threshold_l2(3, 0.3, -1.0)


def test_thresholds_degenerate_sharp_denominator():
    # inside the sharp region at K = 1, yet 1 - sqrt(2) * delta rounds to 0.0
    delta = 0.7071067811865475
    with pytest.raises(DegenerateDenominator):
        min_magnitude_threshold_l2(1, delta, 0.5)
    with pytest.raises(DegenerateDenominator):
        min_magnitude_threshold_linf(1, 0.1, delta, 0.5)


def test_linf_thresholds_frozen():
    assert linf_stopping_threshold(3, 0.3, 0.3, 0.25) == pytest.approx(
        0.8400968443520824, abs=1e-12
    )
    assert min_magnitude_threshold_linf(3, 0.3, 0.3, 0.25) == pytest.approx(
        4.200484221760412, abs=1e-12
    )


def test_linf_threshold_unit_norm_relaxation():
    # the relaxed factor is strictly smaller whenever delta_2 > 0
    K, d2, dk1, eps = 4, 0.2, 0.3, 1.0
    assert linf_stopping_threshold(
        K, d2, dk1, eps, unit_norm_columns=True
    ) < linf_stopping_threshold(K, d2, dk1, eps)


def test_linf_threshold_delta_order_gate():
    with pytest.raises(InvalidDeltaOrder):
        linf_stopping_threshold(2, 0.4, 0.3, 1.0)
    with pytest.raises(ParameterOutOfRange):
        linf_stopping_threshold(2, 0.4, 1.0, 1.0)


@pytest.mark.parametrize("delta2", [-0.5, -2.0, math.nan])
def test_linf_thresholds_reject_negative_delta2(delta2):
    # an RIC is never negative; at -2 the factor's square root would fail
    with pytest.raises(ParameterOutOfRange, match="delta_2"):
        linf_stopping_threshold(3, delta2, 0.2, 1.0)
    with pytest.raises(ParameterOutOfRange, match="delta_2"):
        min_magnitude_threshold_linf(3, delta2, 0.2, 1.0)


@pytest.mark.parametrize("K", [0, -1])
def test_linf_thresholds_reject_sparsity_below_one(K):
    with pytest.raises(InvalidOrder, match="sparsity"):
        linf_stopping_threshold(K, 0.1, 0.2, 0.5)
    with pytest.raises(InvalidOrder, match="sparsity"):
        min_magnitude_threshold_linf(K, 0.1, 0.2, 0.5)


def test_prior_art_frozen():
    out = prior_art_thresholds(3, 0.3, 0.25)
    assert out["ric_bound"] == pytest.approx((math.sqrt(13) - 1) / 6, abs=1e-15)
    assert out["min_magnitude"] == pytest.approx(2.017064326587067, abs=1e-12)


def test_prior_art_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        prior_art_thresholds(1, 0.65, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.floats(0.01, 0.99), st.floats(0.01, 10.0))
def test_threshold_scales_linearly_in_epsilon(K, frac, eps):
    delta = frac / math.sqrt(K + 1)
    base = min_magnitude_threshold_l2(K, delta, 1.0)
    assert min_magnitude_threshold_l2(K, delta, eps) == pytest.approx(
        base * eps, rel=1e-12
    )

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_sharp.errors import (
    DegenerateDenominator,
    DegenerateMatrix,
    DimensionMismatch,
    GammaOutOfRange,
    InvalidOrder,
    NotProperSubset,
    OutOfSharpRegion,
    ParameterOutOfRange,
    RankDeficient,
)
from omp_sharp.instances import (
    NOISE_L2,
    NOISE_ATTEMPTS,
    NOISE_LINF,
    Instance,
    build_counterexample_l2,
    build_counterexample_linf,
    build_example1,
    build_example2,
    build_example3,
    counterexample_correlations,
    counterexample_operator,
    example2_a_bound,
    example3_a_bound,
    l2_gamma_bound,
    l2_noises,
    lemma1_gaps,
    linf_gamma_bound,
    linf_noises,
    orthonormal_complement_of_ones,
    random_matrices_with_ric,
)
from omp_sharp.omp import FixedIterations, SparseSignal, run_omp
from omp_sharp.rip import exact_ric

from references import (
    reference_l2_noise,
    reference_lemma1_gap,
    reference_linf_noise,
    reference_random_matrix_with_ric,
)

GRID = [(K, f / math.sqrt(K + 1)) for K in (1, 2, 3, 5) for f in (0.3, 0.9)]


# ---------------------------------------------------------------- Instance


def test_instance_validates_noise_bound():
    with pytest.raises(ParameterOutOfRange):
        Instance(
            A=np.eye(2),
            x=SparseSignal(np.array([1.0, 0.0])),
            v=np.array([3.0, 0.0]),
            epsilon=1.0,
            noise_model=NOISE_L2,
        )
    with pytest.raises(ParameterOutOfRange):
        Instance(
            A=np.eye(2),
            x=SparseSignal(np.array([1.0, 0.0])),
            v=np.zeros(2),
            epsilon=1.0,
            noise_model="gaussian",
        )


def test_instance_measurements():
    inst = Instance(
        A=2.0 * np.eye(2),
        x=SparseSignal(np.array([1.0, 0.0])),
        v=np.array([0.5, 0.5]),
        epsilon=1.0,
        noise_model=NOISE_L2,
    )
    np.testing.assert_allclose(inst.measurements(), [2.5, 0.5])


def test_instance_noise_level_follows_noise_model():
    A = 2.0 * np.eye(2)
    x = SparseSignal(np.array([1.0, 0.0]))
    v = np.array([0.3, -0.4])
    assert Instance(A, x, v, 1.0, NOISE_L2).noise_level() == pytest.approx(0.5)
    assert Instance(A, x, v, 1.0, NOISE_LINF).noise_level() == pytest.approx(0.8)


# ------------------------------------------------------------ construction


@pytest.mark.parametrize("K", [1, 2, 3, 7, 25])
def test_orthonormal_complement_of_ones(K):
    xi = orthonormal_complement_of_ones(K)
    assert xi.shape == (K, K - 1)
    np.testing.assert_allclose(xi.T @ xi, np.eye(K - 1), atol=1e-12)
    np.testing.assert_allclose(xi.T @ np.ones(K), 0.0, atol=1e-12)


@pytest.mark.parametrize("K,delta", GRID)
def test_operator_is_orthogonal_times_diagonal(K, delta):
    A, U, d = counterexample_operator(K, delta)
    np.testing.assert_allclose(U.T @ U, np.eye(K + 1), atol=1e-12)
    np.testing.assert_allclose(A, d[:, None] * U, atol=1e-15)
    report = exact_ric(A, K + 1)
    assert report.delta == pytest.approx(delta, abs=1e-10)


def test_operator_rejects_boundary():
    with pytest.raises(OutOfSharpRegion):
        counterexample_operator(3, 0.5)
    with pytest.raises(OutOfSharpRegion):
        counterexample_operator(2, 0.0)


def test_gamma_bounds_gate_the_sharp_denominator():
    for bound in (l2_gamma_bound, linf_gamma_bound):
        with pytest.raises(OutOfSharpRegion, match=r"not in \(0, 1/sqrt\(4\)\)"):
            bound(3, 0.5, 1.0)
        # inside the sharp region at K = 1, yet 1 - sqrt(2) * delta rounds to 0.0
        with pytest.raises(DegenerateDenominator):
            bound(1, 0.7071067811865475, 1.0)
        # checked before sqrt(1 - delta) could fail
        with pytest.raises(InvalidOrder):
            bound(1, 1.5, 1.0)


@pytest.mark.parametrize("K,delta", GRID)
def test_l2_counterexample_noise_shape(K, delta):
    eps = 0.8
    gamma = 0.9 * l2_gamma_bound(K, delta, eps)
    inst = build_counterexample_l2(K, delta, eps, gamma)
    corr = inst.A.T @ inst.v
    expected = np.zeros(K + 1)
    expected[K] = -math.sqrt(1.0 - delta) * eps
    np.testing.assert_allclose(corr, expected, atol=1e-10)
    assert np.linalg.norm(inst.v) <= eps + 1e-12


@pytest.mark.parametrize("K,delta", GRID)
def test_linf_counterexample_noise_shape(K, delta):
    eps = 0.8
    gamma = 0.9 * linf_gamma_bound(K, delta, eps)
    inst = build_counterexample_linf(K, delta, eps, gamma)
    np.testing.assert_allclose(inst.A.T @ inst.v, -eps, atol=1e-10)


@pytest.mark.parametrize("K,delta", GRID)
@pytest.mark.parametrize("model", [NOISE_L2, NOISE_LINF])
def test_first_iteration_matches_closed_forms(K, delta, model):
    eps = 0.8
    bound = l2_gamma_bound if model == NOISE_L2 else linf_gamma_bound
    build = build_counterexample_l2 if model == NOISE_L2 else build_counterexample_linf
    gamma = 0.9 * bound(K, delta, eps)
    inst = build(K, delta, eps, gamma)
    corr = np.abs(inst.A.T @ inst.measurements())
    on, off = counterexample_correlations(model, K, delta, eps, gamma)
    np.testing.assert_allclose(corr[:K], abs(on), atol=1e-10)
    assert corr[K] == pytest.approx(abs(off), abs=1e-10)
    # and the construction defeats the greedy selection
    trace = run_omp(inst.measurements(), inst.A, FixedIterations(K))
    assert trace.iterations[0].selected_index == K + 1
    assert set(trace.final_support) != set(inst.x.support)


def test_gamma_gates():
    with pytest.raises(GammaOutOfRange):
        build_counterexample_l2(2, 0.3, 1.0, l2_gamma_bound(2, 0.3, 1.0))
    with pytest.raises(GammaOutOfRange):
        build_counterexample_linf(2, 0.3, 1.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10), st.floats(0.05, 0.95))
def test_gamma_bounds_positive_inside_region(K, frac):
    delta = frac / math.sqrt(K + 1)
    assert l2_gamma_bound(K, delta, 1.0) > 0
    assert linf_gamma_bound(K, delta, 1.0) > 0
    # the linf budget always dominates the l2 one for the same parameters
    assert linf_gamma_bound(K, delta, 1.0) > l2_gamma_bound(K, delta, 1.0)


# ---------------------------------------------------------------- examples


@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_example1_residual_closed_form(delta):
    a = 1.5 * (1.0 + delta) / (1.0 - delta)
    inst = build_example1(delta, a)
    trace = run_omp(inst.measurements(), inst.A, FixedIterations(1))
    assert trace.iterations[0].selected_index == 1
    r1 = inst.measurements() - inst.A[:, :1] @ np.array(
        [np.linalg.lstsq(inst.A[:, :1], inst.measurements(), rcond=None)[0][0]]
    )
    np.testing.assert_allclose(inst.A.T @ r1, [0.0, 1.0 + delta**2], atol=1e-10)


def test_example1_gate():
    with pytest.raises(ParameterOutOfRange):
        build_example1(0.5, 3.0)  # needs a > (1+0.5)/(1-0.5) = 3


def test_example23_bounds_and_gates():
    delta = 0.4
    assert example2_a_bound(delta) == pytest.approx(
        math.sqrt(2 * (1 - delta)) / (1 - math.sqrt(2) * delta)
    )
    assert example3_a_bound(delta) == pytest.approx(
        2 * math.sqrt(2) * delta / (1 - math.sqrt(2) * delta)
    )
    with pytest.raises(ParameterOutOfRange):
        build_example2(0.8, 0.1)
    with pytest.raises(ParameterOutOfRange):
        build_example3(0.4, example3_a_bound(0.4) * 1.1)


def test_example2_noise_and_matrix():
    inst = build_example2(0.3, 1.0)
    np.testing.assert_allclose(inst.A, 0.3 * np.eye(2))
    assert inst.epsilon == pytest.approx(math.sqrt(2))
    assert inst.noise_model == NOISE_L2


def test_example3_epsilon_scales_with_delta():
    inst = build_example3(0.3, 0.5)
    assert inst.epsilon == pytest.approx(math.sqrt(2) * 0.3)
    assert inst.noise_model == NOISE_LINF


# --------------------------------------------------------------- lemma gap


def lemma1_gap(A, x, subset, delta):
    """lemma1_gaps on a stack of one: the gap, or the RankDeficient it
    reports raised."""
    [gap], failures = lemma1_gaps(np.asarray(A)[None], [x], [subset], [delta])
    if failures:
        raise failures[0]
    return gap


def test_lemma1_gap_requires_proper_subset():
    A = np.eye(3)
    x = SparseSignal(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(NotProperSubset):
        lemma1_gap(A, x, [1, 2], 0.0)
    with pytest.raises(NotProperSubset):
        lemma1_gap(A, x, [3], 0.0)


def test_lemma1_gap_identity():
    x = SparseSignal(np.array([2.0, -1.0, 0.0, 0.0]))
    delta = exact_ric(np.eye(4), 3).delta
    assert delta == 0.0
    out = lemma1_gap(np.eye(4), x, [], delta)
    # off-support correlations vanish for an orthonormal matrix
    assert out["lhs_gap"] == pytest.approx(2.0)
    assert out["rhs_bound"] == pytest.approx(
        math.sqrt(5.0) / math.sqrt(2.0) * (1 - math.sqrt(3) * 0.0), rel=1e-12
    )
    assert out["lhs_gap"] >= out["rhs_bound"] - 1e-10
    # the bound shrinks with the delta it is given: (1 - sqrt(3) * 0.25) times
    assert lemma1_gap(np.eye(4), x, [], 0.25)["rhs_bound"] == pytest.approx(
        out["rhs_bound"] * (1 - math.sqrt(3) * 0.25), rel=1e-12
    )


def test_lemma1_gap_empty_subset_projects_nothing():
    # with no columns to project off, the direction is A_r x_r itself
    A = np.random.default_rng(3).standard_normal((6, 5))
    x = SparseSignal(np.array([0.0, 1.5, 0.0, -0.7, 0.0]))
    u = A[:, [1, 3]] @ np.array([1.5, -0.7])
    out = lemma1_gap(A, x, [], 0.1)
    on = np.max(np.abs(A[:, [1, 3]].T @ u))
    off = np.max(np.abs(A[:, [0, 2, 4]].T @ u))
    assert out["lhs_gap"] == on - off
    assert out["rhs_bound"] == (1.0 - math.sqrt(3) * 0.1) * np.linalg.norm([1.5, -0.7]) / math.sqrt(2)


def test_lemma1_gap_rank_deficient_subset():
    # columns 1 and 2 are identical, so the subset {1, 2} spans one direction
    A = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    x = SparseSignal(np.array([1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(RankDeficient, match="numerically rank deficient"):
        lemma1_gap(A, x, [1, 2], 0.1)
    # a subset wider than A is tall
    wide = np.ones((2, 4))
    with pytest.raises(RankDeficient, match="2x3 system has more columns than rows"):
        lemma1_gap(wide, SparseSignal(np.ones(4)), [1, 2, 3], 0.1)


def test_lemma1_gap_rejects_what_its_inputs_cannot_mean():
    x = SparseSignal(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DimensionMismatch, match="non-finite"):
        lemma1_gap(np.array([[1.0, np.nan, 0.0]]), x, [], 0.1)
    with pytest.raises(DimensionMismatch, match="signal of length 3 for 2-column"):
        lemma1_gap(np.eye(2), x, [1], 0.1)  # x is longer than A is wide
    with pytest.raises(DimensionMismatch, match="signal of length 3 for 4-column"):
        lemma1_gap(np.eye(4), x, [1], 0.1)  # and shorter


def reference_projection_gap(A, x, subset, delta):
    """lemma1_gap from an SVD least-squares projection: the gap the stacked
    QR must agree with up to round-off."""
    support = sorted(x.support)
    remaining = [i - 1 for i in support if i not in subset]
    off = [j for j in range(A.shape[1]) if j + 1 not in x.support]
    u = A[:, remaining] @ x.values[remaining]
    if subset:
        A_S = A[:, [i - 1 for i in sorted(subset)]]
        u = u - A_S @ np.linalg.lstsq(A_S, u, rcond=None)[0]
    r = len(remaining)
    return (
        np.max(np.abs(A[:, remaining].T @ u)) - np.max(np.abs(A[:, off].T @ u)),
        (1.0 - math.sqrt(r + 1) * delta) * np.linalg.norm(x.values[remaining]) / math.sqrt(r),
    )


@st.composite
def gap_stacks(draw):
    """Random matrices, each with a signal and a proper subset of its
    support, of assorted sizes so that a stack holds several groups."""
    count = draw(st.integers(1, 8))
    m, n = draw(st.integers(3, 9)), draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((count, m, n))
    signals, subsets = [], []
    for _ in range(count):
        size = int(rng.integers(1, n))  # at least one off-support column
        support = rng.choice(n, size=size, replace=False)
        values = np.zeros(n)
        values[support] = rng.uniform(0.5, 2.0, size) * rng.choice([-1.0, 1.0], size)
        subsets.append(
            [int(i) + 1 for i in rng.choice(support, size=int(rng.integers(0, min(size, m + 1))),
                                            replace=False)])
        signals.append(SparseSignal(values))
    return A, signals, subsets, rng.uniform(0.0, 0.5, count).tolist()


@settings(max_examples=60, deadline=None)
@given(gap_stacks())
def test_stacked_gaps_equal_one_trial_at_a_time(stack):
    A, signals, subsets, deltas = stack
    gaps, failures = lemma1_gaps(A, signals, subsets, deltas)
    assert failures == {}
    for a, x, subset, delta, gap in zip(A, signals, subsets, deltas, gaps):
        assert gap == reference_lemma1_gap(a, x, subset, delta)
        assert gap == lemma1_gap(a, x, subset, delta)
        lhs, rhs = reference_projection_gap(a, x, subset, delta)
        assert gap["lhs_gap"] == pytest.approx(lhs, abs=1e-9)
        assert gap["rhs_bound"] == pytest.approx(rhs, abs=1e-12)


def test_stacked_gap_fails_only_the_rank_deficient_trial():
    A = np.stack([np.eye(4)[:, :3], np.eye(4)[:, :3], np.eye(4)[:, 1:]])
    A[1, :, 0] = 0.0  # the subset's one column vanishes
    x = SparseSignal(np.array([1.0, -2.0, 0.0]))
    gaps, failures = lemma1_gaps(A, [x] * 3, [[1]] * 3, [0.0] * 3)
    assert list(failures) == [1] and gaps[1] is None
    assert isinstance(failures[1], RankDeficient)
    with pytest.raises(RankDeficient, match=re.escape(str(failures[1]))):
        lemma1_gap(A[1], x, [1], 0.0)
    assert gaps[0] == reference_lemma1_gap(A[0], x, [1], 0.0)
    assert gaps[2] == reference_lemma1_gap(A[2], x, [1], 0.0)


# ------------------------------------------------------------ random draws


@pytest.mark.parametrize("linf", [False, True])
def test_stacked_noise_equals_one_trial_at_a_time(linf):
    A = np.random.default_rng(1).standard_normal((7, 6, 4))
    A[3] = 0.0  # A^T v vanishes on every draw: only this trial fails
    stacked = [np.random.default_rng([9, t]) for t in range(len(A))]
    alone = [np.random.default_rng([9, t]) for t in range(len(A))]
    if linf:
        V, failures = linf_noises(stacked, A, 0.7)
    else:
        V, failures = l2_noises(stacked, 6, 0.7), {}
    for t, (a, rng) in enumerate(zip(A, alone)):
        # the sampler on a stack of one, with a generator of its own
        public = [np.random.default_rng([9, t])]
        one, one_failures = linf_noises(public, a[None], 0.7) if linf else (
            l2_noises(public, 6, 0.7), {})
        if linf and t == 3:
            with pytest.raises(DegenerateMatrix):
                reference_linf_noise(a, 0.7, rng)
            assert str(failures[t]) == f"A^T v vanished for {NOISE_ATTEMPTS} consecutive draws"
            assert str(one_failures[0]) == str(failures[t])
            assert not V[t].any() and not one[0].any()
            continue
        v = reference_linf_noise(a, 0.7, rng) if linf else reference_l2_noise(6, 0.7, rng)
        assert np.array_equal(V[t], v)
        assert np.array_equal(one[0], v) and one_failures == {}
    assert list(failures) == ([3] if linf else [])
    # each generator is left where a lone draw leaves it
    assert [g.random() for g in stacked] == [g.random() for g in alone]


def test_sample_l2_noise_rejects_an_empty_vector():
    # a length-0 direction has norm 0 on every draw
    with pytest.raises(ParameterOutOfRange, match="noise length must be >= 1, got 0"):
        l2_noises([np.random.default_rng(0)], 0, 1.0)
    for epsilon in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterOutOfRange, match="epsilon must be > 0"):
            l2_noises([np.random.default_rng(0)], 6, epsilon)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 5.0))
def test_sample_l2_noise_inside_ball(seed, eps):
    [v] = l2_noises([np.random.default_rng(seed)], 6, eps)
    assert np.linalg.norm(v) <= eps + 1e-12


def test_sample_linf_noise_gives_up_on_a_zero_matrix():
    V, failures = linf_noises([np.random.default_rng(0)], np.zeros((1, 3, 2)), 1.0)
    assert list(failures) == [0] and not V.any()
    assert isinstance(failures[0], DegenerateMatrix)
    assert str(failures[0]) == f"A^T v vanished for {NOISE_ATTEMPTS} consecutive draws"
    # what the sampler cannot mean is refused before any draw
    for epsilon in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterOutOfRange, match="epsilon must be > 0"):
            linf_noises([np.random.default_rng(0)], np.ones((1, 3, 2)), epsilon)
    with pytest.raises(DimensionMismatch, match="non-finite"):
        linf_noises([np.random.default_rng(0)], np.full((1, 3, 2), np.inf), 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 5.0))
def test_sample_linf_noise_inside_bound(seed, eps):
    A = np.random.default_rng(seed).standard_normal((5, 7))
    V, failures = linf_noises([np.random.default_rng(seed)], A[None], eps)
    v = V[0]
    assert failures == {}
    assert np.max(np.abs(A.T @ v)) <= eps + 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.8))
def test_random_matrix_with_ric_caps_every_order(seed, cap):
    [A] = random_matrices_with_ric(8, 5, cap, [np.random.default_rng(seed)])
    for K in (1, 2, 5):
        assert exact_ric(A, K).delta <= cap + 1e-10
    assert exact_ric(A, 5).delta == pytest.approx(cap, abs=1e-10)


@pytest.mark.parametrize("m, n", [(8, 8), (14, 8), (24, 24), (7, 2), (2, 2)])
def test_stacked_matrices_equal_one_at_a_time(m, n):
    seeds = [[m, n, t] for t in range(9)]
    stacked = [np.random.default_rng(s) for s in seeds]
    alone = [np.random.default_rng(s) for s in seeds]
    reference = [np.random.default_rng(s) for s in seeds]
    A = random_matrices_with_ric(m, n, 0.4, stacked)
    assert A.shape == (len(seeds), m, n)
    assert np.array_equal(A, [random_matrices_with_ric(m, n, 0.4, [g])[0] for g in alone])
    assert np.array_equal(A, [reference_random_matrix_with_ric(m, n, 0.4, g) for g in reference])
    # each generator is left where a lone build leaves it
    after = [[g.random() for g in gens] for gens in (stacked, alone, reference)]
    assert after[0] == after[1] == after[2]


def test_stacked_matrices_reject_what_one_matrix_rejects():
    rngs = [np.random.default_rng(t) for t in range(3)]
    with pytest.raises(DimensionMismatch):
        random_matrices_with_ric(5, 8, 0.4, rngs)
    with pytest.raises(ParameterOutOfRange):
        random_matrices_with_ric(8, 5, 1.0, rngs)
    with pytest.raises(ParameterOutOfRange, match="need n >= 1"):
        random_matrices_with_ric(3, 0, 0.5, rngs)
    # each refusal comes before any draw
    assert [g.random() for g in rngs] == [np.random.default_rng(t).random() for t in range(3)]


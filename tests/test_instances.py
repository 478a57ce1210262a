import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_sharp import instances
from omp_sharp.errors import (
    DegenerateMatrix,
    DimensionMismatch,
    GammaOutOfRange,
    NotProperSubset,
    OutOfSharpRegion,
    ParameterOutOfRange,
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
    lemma1_gap,
    linf_gamma_bound,
    orthonormal_complement_of_ones,
    random_frame_with_ric,
    random_matrices_with_ric,
    random_matrix_with_ric,
    sample_l2_noise,
    sample_linf_noise,
)
from omp_sharp.omp import FixedIterations, SparseSignal, run_omp
from omp_sharp.rip import exact_ric

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


# ------------------------------------------------------------ random draws


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 5.0))
def test_sample_l2_noise_inside_ball(seed, eps):
    v = sample_l2_noise(6, eps, seed)
    assert np.linalg.norm(v) <= eps + 1e-12


def test_sample_linf_noise_gives_up_on_a_zero_matrix():
    with pytest.raises(DegenerateMatrix, match=f"{NOISE_ATTEMPTS} consecutive draws"):
        sample_linf_noise(np.zeros((3, 2)), 1.0, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 5.0))
def test_sample_linf_noise_inside_bound(seed, eps):
    A = np.random.default_rng(seed).standard_normal((5, 7))
    v = sample_linf_noise(A, eps, seed)
    assert np.max(np.abs(A.T @ v)) <= eps + 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.8))
def test_random_matrix_with_ric_caps_every_order(seed, cap):
    A = random_matrix_with_ric(8, 5, cap, seed)
    for K in (1, 2, 5):
        assert exact_ric(A, K).delta <= cap + 1e-10
    assert exact_ric(A, 5).delta == pytest.approx(cap, abs=1e-10)


def reference_random_matrix_with_ric(m, n, delta_cap, rng):
    """The generator as it was before it was stacked: one QR per factor."""
    squared = rng.uniform(1.0 - delta_cap, 1.0 + delta_cap, size=n)
    squared[0] = 1.0 - delta_cap
    if n > 1:
        squared[-1] = 1.0 + delta_cap
    W1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    W2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    B = (W1 * np.sqrt(squared)) @ W2.T
    Q = np.linalg.qr(rng.standard_normal((m, n)))[0]
    return Q @ B


@pytest.mark.parametrize("m, n", [(8, 8), (14, 8), (24, 24), (7, 2), (2, 2)])
def test_stacked_matrices_equal_one_at_a_time(m, n):
    seeds = [[m, n, t] for t in range(9)]
    stacked = [np.random.default_rng(s) for s in seeds]
    alone = [np.random.default_rng(s) for s in seeds]
    reference = [np.random.default_rng(s) for s in seeds]
    A = random_matrices_with_ric(m, n, 0.4, stacked)
    assert A.shape == (len(seeds), m, n)
    assert np.array_equal(A, [random_matrix_with_ric(m, n, 0.4, g) for g in alone])
    assert np.array_equal(A, [reference_random_matrix_with_ric(m, n, 0.4, g) for g in reference])
    # each generator is left where a lone build leaves it
    after = [[g.random() for g in gens] for gens in (stacked, alone, reference)]
    assert after[0] == after[1] == after[2]


def test_stacked_matrices_reject_what_one_matrix_rejects():
    with pytest.raises(DimensionMismatch):
        random_matrices_with_ric(5, 8, 0.4, [0, 1])
    with pytest.raises(ParameterOutOfRange):
        random_matrices_with_ric(8, 5, 1.0, [0, 1])


def test_random_frame_with_ric_overcomplete():
    A = random_frame_with_ric(6, 8, 3, 0.7, seed=11)
    assert A.shape == (6, 8)
    assert exact_ric(A, 3).delta < 0.7


def reference_random_frame_with_ric(m, n, order, delta_bound, seed, attempts=200):
    """The generator as it was before it shared exact_ric's enumeration: one
    eigvalsh per subset in a Python loop over combinations."""
    from itertools import combinations

    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        A = rng.standard_normal((m, n))
        for _ in range(60):
            U, _, Vt = np.linalg.svd(A, full_matrices=False)
            A = math.sqrt(n / m) * U @ Vt
            A = A / np.linalg.norm(A, axis=0)
        gram = A.T @ A
        lam_min = math.inf
        lam_max = -math.inf
        for S in combinations(range(n), order):
            idx = list(S)
            eigenvalues = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
            lam_min = min(lam_min, eigenvalues[0])
            lam_max = max(lam_max, eigenvalues[-1])
        if lam_min <= 0:
            continue
        best = (lam_max - lam_min) / (lam_max + lam_min)
        if 0.0 < best < delta_bound:
            return A * math.sqrt(2.0 / (lam_max + lam_min))
    return None


@pytest.mark.parametrize("m,n,order", [(6, 8, 3), (8, 12, 3), (10, 14, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_frame_with_ric_matches_per_subset_reference(m, n, order, seed):
    A = random_frame_with_ric(m, n, order, 0.75, seed)
    assert np.array_equal(A, reference_random_frame_with_ric(m, n, order, 0.75, seed))


def test_random_frame_with_ric_gives_up_after_its_attempts(monkeypatch):
    monkeypatch.setattr(instances, "FRAME_ATTEMPTS", 2)
    with pytest.raises(DegenerateMatrix, match="found in 2 attempts"):
        random_frame_with_ric(6, 8, 3, 1e-3, seed=0)
    assert reference_random_frame_with_ric(6, 8, 3, 1e-3, seed=0, attempts=2) is None

"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(written straight to the real stdout so it shows up under pytest capture).
"""

import math
import sys
import time

import numpy as np

from omp_sharp.experiments import ExperimentConfig, run_experiment, write_experiment_outputs
from omp_sharp.instances import (
    NOISE_L2,
    NOISE_LINF,
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
    linf_gamma_bound,
)
from omp_sharp.omp import (
    CorrelationLInf,
    FixedIterations,
    ResidualL2,
    linf_stopping_threshold,
    min_magnitude_threshold_l2,
    min_magnitude_threshold_linf,
    prior_art_thresholds,
    run_omp,
)
from omp_sharp.rip import exact_ric

GRID = [
    (K, f / math.sqrt(K + 1))
    for K in (1, 2, 3, 5, 8)
    for f in (0.3, 0.5, 0.9)
]


RESULTS = []


def report(number, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_worst_case_certification():
    """Operator, noise and first-iteration correlations match closed forms."""
    start = time.perf_counter()
    eps = 1.0
    worst = 0.0
    for K, delta in GRID:
        A, U, _ = counterexample_operator(K, delta)
        worst = max(worst, np.max(np.abs(U.T @ U - np.eye(K + 1))))
        assert np.max(np.abs(U.T @ U - np.eye(K + 1))) <= 1e-12
        assert abs(exact_ric(A, K + 1).delta - delta) <= 1e-10
        gamma = 0.9 * l2_gamma_bound(K, delta, eps)
        inst = build_counterexample_l2(K, delta, eps, gamma)
        expected = np.zeros(K + 1)
        expected[K] = -math.sqrt(1.0 - delta) * eps
        assert np.max(np.abs(inst.A.T @ inst.v - expected)) <= 1e-10
        corr = np.abs(inst.A.T @ inst.measurements())
        on, off = counterexample_correlations(NOISE_L2, K, delta, eps, gamma)
        assert np.max(np.abs(corr[:K] - abs(on))) <= 1e-10
        assert abs(corr[K] - abs(off)) <= 1e-10
        gamma = 0.9 * linf_gamma_bound(K, delta, eps)
        inst = build_counterexample_linf(K, delta, eps, gamma)
        corr = np.abs(inst.A.T @ inst.measurements())
        on, off = counterexample_correlations(NOISE_LINF, K, delta, eps, gamma)
        assert np.max(np.abs(corr[:K] - abs(on))) <= 1e-10
        assert abs(corr[K] - abs(off)) <= 1e-10
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0, f"worst-case certification over {len(GRID)} grid "
           f"points, max orthogonality defect {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_02_failure_demos():
    """Both worst-case constructions defeat the greedy selection everywhere."""
    eps = 1.0
    failures = 0
    for K, delta in GRID:
        for model, bound, build in (
            (NOISE_L2, l2_gamma_bound, build_counterexample_l2),
            (NOISE_LINF, linf_gamma_bound, build_counterexample_linf),
        ):
            inst = build(K, delta, eps, 0.9 * bound(K, delta, eps))
            trace = run_omp(inst.measurements(), inst.A, FixedIterations(K))
            first = trace.iterations[0].selected_index
            recovered = set(trace.final_support) == set(inst.x.support)
            if first != K + 1 or recovered:
                failures += 1
    report(2, failures == 0,
           f"failure demos: {2 * len(GRID)} instances, {failures} unexpected recoveries")


def _sufficiency(number, experiment):
    start = time.perf_counter()
    cfg = ExperimentConfig(
        experiment=experiment, seed=1234, k_values=[1, 2, 3],
        delta_fractions=[0.5, 0.855], epsilons=[0.5], trials=167,
    )
    _, records, summary = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    ok = (
        summary["records"] >= 1000
        and summary["failures"] == 0
        and all(r["iterations"] == r["K"] for r in records)
        and elapsed < 60.0
    )
    report(number, ok,
           f"{experiment}: {summary['passes']}/{summary['records']} exact "
           f"recoveries in K iterations ({elapsed:.1f}s)")


def test_criterion_03_l2_sufficiency_suite():
    _sufficiency(3, "Theorem1Sweep")


def test_criterion_04_linf_sufficiency_suite():
    _sufficiency(4, "Theorem2Sweep")


def test_criterion_05_selection_gap_suite():
    cfg = ExperimentConfig(
        experiment="Lemma1Suite", seed=77, k_values=[2, 3], trials=500,
        m=10, n=7,
    )
    _, records, summary = run_experiment(cfg)
    margin = min(r["lhs_gap"] - r["rhs_bound"] for r in records)
    ok = summary["records"] >= 1000 and summary["failures"] == 0 and margin >= -1e-10
    report(5, ok, f"selection gap bound: {summary['records']} trials, "
           f"smallest margin {margin:.3e}")


def test_criterion_06_example1_regression():
    ok = True
    for delta in (0.1, 0.5, 0.9):
        a = 1.5 * (1.0 + delta) / (1.0 - delta)
        inst = build_example1(delta, a)
        y = inst.measurements()
        one = run_omp(y, inst.A, FixedIterations(1))
        sol = np.linalg.lstsq(inst.A[:, :1], y, rcond=None)[0]
        r1 = y - inst.A[:, :1] @ sol
        ok &= np.max(np.abs(inst.A.T @ r1 - [0.0, 1.0 + delta**2])) <= 1e-10
        ok &= one.iterations[0].selected_index == 1
        naive = run_omp(y, inst.A, CorrelationLInf(1.0))
        ok &= len(naive.iterations) == 2 and naive.final_support == {1, 2}
        threshold = linf_stopping_threshold(1, delta, delta, 1.0)
        corrected = run_omp(y, inst.A, CorrelationLInf(threshold))
        ok &= len(corrected.iterations) == 1 and corrected.final_support == {1}
    report(6, ok, "overshooting vs corrected linf stopping on the 2x2 instance, "
           "3 delta points")


def test_criterion_07_examples_2_3_regression():
    ok = True
    for delta in (0.2, 0.45, 0.65):
        inst = build_example2(delta, 0.9 * example2_a_bound(delta))
        trace = run_omp(inst.measurements(), inst.A, ResidualL2(inst.epsilon))
        ok &= len(trace.iterations) == 1 and trace.final_support == {1}
        # the magnitude sits below the worst-case bound, showing the bound
        # is not a pointwise requirement
        ok &= inst.x.min_magnitude() < min_magnitude_threshold_l2(
            1, delta, inst.epsilon
        )
        inst = build_example3(delta, 0.9 * example3_a_bound(delta))
        threshold = linf_stopping_threshold(1, delta, delta, inst.epsilon)
        trace = run_omp(inst.measurements(), inst.A, CorrelationLInf(threshold))
        ok &= len(trace.iterations) == 1 and trace.final_support == {1}
        ok &= inst.x.min_magnitude() < min_magnitude_threshold_linf(
            1, delta, delta, inst.epsilon
        )
    report(7, ok, "one-iteration recovery below the worst-case magnitude bounds, "
           "3 delta points each")


def test_criterion_08_comparison_inequalities():
    ric_ok = all(
        (math.sqrt(4 * K + 1) - 1) / (2 * K) < 1 / math.sqrt(K + 1)
        for K in range(1, 101)
    )
    minmag_ok = True
    for K in range(1, 21):
        for i in range(1, 51):
            delta = i / 51.0 / math.sqrt(K + 1)
            sharp = min_magnitude_threshold_l2(K, delta, 1.0)
            try:
                prior = prior_art_thresholds(K, delta, 1.0)["min_magnitude"]
            except Exception:
                continue  # prior guarantee already degenerate: trivially worse
            minmag_ok &= prior >= sharp
    report(8, ric_ok and minmag_ok,
           "strict threshold improvements: K=1..100 constants, 50-point "
           "delta grids for K=1..20")


def test_criterion_09_ric_monotonicity():
    worst = -math.inf
    for seed in range(100):
        rng = np.random.default_rng([901, seed])
        m = int(rng.integers(4, 11))
        n = int(rng.integers(4, min(m, 10) + 1))
        A = rng.standard_normal((m, n))
        if rng.uniform() < 0.5:
            A /= np.linalg.norm(A, axis=0)
        deltas = [exact_ric(A, k).delta for k in range(1, 5)]
        for lo, hi in zip(deltas, deltas[1:]):
            worst = max(worst, lo - hi)
    report(9, worst <= 1e-12,
           f"order monotonicity on 100 random matrices, worst violation {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    identical = True
    for experiment in ("Theorem1Sweep", "Lemma1Suite"):
        cfg = ExperimentConfig(experiment=experiment, seed=31, trials=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_experiment_outputs(cfg, a)
        write_experiment_outputs(cfg, b)
        identical &= a.read_bytes() == b.read_bytes()
    report(10, identical, "byte-identical CSV across repeated runs of two "
           "experiments with a fixed seed")

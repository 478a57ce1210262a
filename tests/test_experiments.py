import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_sharp import experiments, omp, rip
from omp_sharp.errors import DegenerateMatrix, OmpSharpError, ParameterOutOfRange
from omp_sharp.experiments import (
    COMPARISON_COLUMNS,
    TRIAL_COLUMNS,
    TRIAL_SCHEMA,
    ExperimentConfig,
    run_experiment,
    write_experiment_outputs,
)
from omp_sharp.instances import NOISE_L2, NOISE_LINF
from omp_sharp.omp import (
    CorrelationLInf,
    ResidualL2,
    SparseSignal,
    linf_stopping_threshold,
    min_magnitude_threshold_l2,
    min_magnitude_threshold_linf,
    run_omp,
)
from omp_sharp.rip import exact_ric

from references import (
    reference_l2_noise,
    reference_lemma1_gap,
    reference_linf_noise,
    reference_random_matrix_with_ric,
)


def test_config_validation():
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig(experiment="NoSuchThing")
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig(experiment="Theorem1Sweep", k_values=[])
    for name in ("Theorem1Sweep", "Example1"):
        with pytest.raises(ParameterOutOfRange, match="deltas must be non-empty"):
            ExperimentConfig(experiment=name, deltas=[])
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig(experiment="Theorem1Sweep", delta_fractions=[1.5])
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig(experiment="Theorem1Sweep", trials=0)
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig.from_json_dict({"experiment": "Example1", "bogus": 1})
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig(experiment="Example1", seed=-1)
    # a margin at most 0 would flip the signals' signs, or zero them
    for margin in (0.0, -2.0):
        with pytest.raises(ParameterOutOfRange, match="margin"):
            ExperimentConfig(experiment="Theorem1Sweep", margin=margin)
    # a noise level at most 0 is refused alike by every experiment that reads it
    for name in ("Theorem1Sweep", "Theorem2Sweep", "Theorem3Demo", "ComparisonTable"):
        for epsilon in (0.0, -0.5):
            with pytest.raises(ParameterOutOfRange, match="epsilons must be > 0"):
                ExperimentConfig(experiment=name, epsilons=[0.5, epsilon])
    # JSON's NaN, Infinity and 1e400 parse to non-finite floats; finite
    # extremes stay allowed
    for fields in (dict(experiment="ComparisonTable", epsilons=[math.nan]),
                   dict(experiment="Theorem1Sweep", margin=math.inf),
                   dict(experiment="Theorem2Sweep", epsilons=[-math.inf]),
                   dict(experiment="Theorem4Demo", gamma_fractions=[math.nan]),
                   dict(experiment="Theorem3Demo", delta_fractions=[math.nan]),
                   dict(experiment="Example1", deltas=[math.inf])):
        name = next(key for key in fields if key != "experiment")
        with pytest.raises(ParameterOutOfRange, match=f"{name} must be finite"):
            ExperimentConfig(**fields)
        doc = json.loads(json.dumps(fields))
        with pytest.raises(ParameterOutOfRange, match=f"{name} must be finite"):
            ExperimentConfig.from_json_dict(doc)
    with pytest.raises(ParameterOutOfRange, match="epsilons must be finite"):
        ExperimentConfig.from_json_dict(json.loads(
            '{"experiment": "Theorem1Sweep", "epsilons": [1e400]}'))
    ExperimentConfig(experiment="Theorem2Sweep", margin=1e307)
    ExperimentConfig(experiment="Theorem4Demo", gamma_fractions=[1.0])
    for name in ("Theorem1Sweep", "Theorem2Sweep", "Lemma1Suite"):
        with pytest.raises(ParameterOutOfRange):
            ExperimentConfig(experiment=name, k_values=[1, 8], n=8)
        ExperimentConfig(experiment=name, k_values=[1, 7], n=8)
        with pytest.raises(ParameterOutOfRange, match="n <= m"):
            ExperimentConfig(experiment=name, m=5, n=8)
        ExperimentConfig(experiment=name, m=8, n=8)
    # the failure demos size their matrices from K alone, and read no m or n
    ExperimentConfig(experiment="Theorem3Demo", k_values=[9], n=8)
    with pytest.raises(ParameterOutOfRange, match="'m'"):
        ExperimentConfig(experiment="Theorem3Demo", m=5, n=8)


def test_config_from_json_accepts_every_field():
    doc = {
        "experiment": "Theorem1Sweep",
        "seed": 3,
        "k_values": [1, 2],
        "delta_fractions": [0.5],
        "deltas": None,
        "epsilons": [1],
        "gamma_fractions": [0.9],
        "trials": 2,
        "m": 14,
        "n": 8,
        "margin": 1,
        "output_csv": "trials.csv",
        "output_summary": None,
    }
    assert set(doc) == set(ExperimentConfig.__dataclass_fields__)
    assert ExperimentConfig.from_json_dict(doc) == ExperimentConfig(**doc)


def test_delta_resolution():
    cfg = ExperimentConfig(experiment="Theorem1Sweep", delta_fractions=[0.5])
    assert cfg.resolved_deltas(3) == [0.25]
    cfg = ExperimentConfig(experiment="Example1", deltas=[0.11])
    assert cfg.resolved_deltas(3) == [0.11]


def test_theorem1_sweep_small():
    cfg = ExperimentConfig(
        experiment="Theorem1Sweep", seed=5, k_values=[1, 2], trials=3
    )
    columns, records, summary = run_experiment(cfg)
    assert columns is TRIAL_COLUMNS
    assert summary["failures"] == 0
    assert all(r["schema_version"] == TRIAL_SCHEMA for r in records)
    assert all(r["iterations"] == r["K"] for r in records)
    assert all(r["support_true"] == r["support_found"] for r in records)


def test_theorem3_demo_all_fail_to_recover():
    cfg = ExperimentConfig(
        experiment="Theorem3Demo", k_values=[1, 2, 4], delta_fractions=[0.5, 0.9]
    )
    _, records, summary = run_experiment(cfg)
    assert summary["failures"] == 0
    assert all(r["support_recovered"] is False for r in records)
    assert all(r["first_selected_index"] == r["K"] + 1 for r in records)


def test_comparison_table_columns():
    cfg = ExperimentConfig(experiment="ComparisonTable", k_values=[1, 2, 3])
    columns, records, summary = run_experiment(cfg)
    assert columns is COMPARISON_COLUMNS
    assert summary["failures"] == 0
    for r in records:
        assert r["sharp_ric_bound"] == pytest.approx(1.0 / math.sqrt(r["K"] + 1))
        assert r["prior_ric_bound"] < r["sharp_ric_bound"]
        assert r["prior_min_magnitude"] >= r["sharp_min_magnitude"]


def test_comparison_table_has_a_row_per_epsilon():
    fields = dict(experiment="ComparisonTable", k_values=[1, 2], delta_fractions=[0.5, 0.9])
    _, records, _ = run_experiment(ExperimentConfig(**fields, epsilons=[0.5, 1.0]))
    assert [(r["K"], r["epsilon"]) for r in records] == [
        (K, epsilon) for K in (1, 2) for _ in range(2) for epsilon in (0.5, 1.0)
    ]
    for r in records:
        sharp = min_magnitude_threshold_l2(r["K"], r["delta"], r["epsilon"])
        assert r["sharp_min_magnitude"] == sharp
    _, first, _ = run_experiment(ExperimentConfig(**fields, epsilons=[0.5]))
    assert records[::2] == first


def test_outputs_deterministic_and_well_formed(tmp_path):
    cfg = ExperimentConfig(experiment="Theorem2Sweep", seed=42, trials=2)
    a_csv, a_json = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv = tmp_path / "b.csv"
    summary = write_experiment_outputs(cfg, a_csv, a_json)
    write_experiment_outputs(cfg, b_csv)
    assert a_csv.read_bytes() == b_csv.read_bytes()
    with open(a_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRIAL_COLUMNS
    assert len(rows) - 1 == summary["records"]
    doc = json.loads(a_json.read_text())
    assert doc["passes"] == summary["passes"]
    assert sum(c["trials"] for c in doc["cells"]) == summary["records"]


def test_different_seeds_differ(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_experiment_outputs(
        ExperimentConfig(experiment="Theorem1Sweep", seed=1, trials=2), a
    )
    write_experiment_outputs(
        ExperimentConfig(experiment="Theorem1Sweep", seed=2, trials=2), b
    )
    assert a.read_bytes() != b.read_bytes()


def failing_once(original, call):
    """``original``, except that its ``call``-th call (0-based) raises."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        if len(calls) == call + 1:
            raise DegenerateMatrix("injected failure")
        return original(*args, **kwargs)

    return patched


@pytest.mark.parametrize(
    "experiment, function, call, fields",
    [
        # the stacked trials fail in a trial's own draws, the demos in their builders
        ("Lemma1Suite", "_lemma1_draws", 3, {"seed": 3, "k_values": [2, 3], "trials": 3, "n": 7}),
        ("Theorem3Demo", "build_counterexample_l2", 2, {"k_values": [1, 2]}),
        ("Theorem4Demo", "build_counterexample_linf", 1, {"k_values": [1, 2]}),
        # a trial that fails before OMP leaves the rest of its cell's stack
        ("Theorem1Sweep", "_signal_draws", 4, {"seed": 3, "k_values": [1, 2], "trials": 3}),
        ("Theorem2Sweep", "_signal_draws", 2, {"seed": 3, "k_values": [2], "trials": 3}),
    ],
)
def test_failed_trial_becomes_an_error_row(monkeypatch, experiment, function, call, fields):
    cfg = ExperimentConfig(experiment=experiment, **fields)
    _, expected, _ = run_experiment(cfg)
    if function.startswith("build_counterexample_"):
        # a demo's builder, held in the table under its noise kind
        kind = function.removeprefix("build_counterexample_")
        build, gamma_bound = experiments.inst.COUNTEREXAMPLES[kind]
        assert build.__name__ == function
        monkeypatch.setitem(experiments.inst.COUNTEREXAMPLES, kind,
                            (failing_once(build, call), gamma_bound))
    else:
        original = getattr(experiments, function)
        monkeypatch.setattr(experiments, function, failing_once(original, call))
    _, records, summary = run_experiment(cfg)
    assert len(records) == len(expected)
    failed = records[call]
    assert failed["passed"] is False
    assert failed["error"] == "DegenerateMatrix: injected failure"
    for column in ("cell_index", "trial_index", "K", "m", "n"):
        assert failed[column] == expected[call][column]
    assert records[:call] + records[call + 1 :] == expected[:call] + expected[call + 1 :]
    assert summary["failures"] == 1


def test_trial_whose_noise_fails_fails_alone(monkeypatch):
    # only linf noise can fail: an l2 direction of m >= 1 entries has a
    # nonzero norm
    stacked = experiments.inst.linf_noises

    def failing_second_trial(*args):
        V, failures = stacked(*args)
        failures[1] = DegenerateMatrix("injected failure")
        return V, failures

    cfg = ExperimentConfig(experiment="Theorem2Sweep", seed=6, k_values=[2], trials=3)
    _, expected, _ = run_experiment(cfg)
    monkeypatch.setattr(experiments.inst, "linf_noises", failing_second_trial)
    _, records, _ = run_experiment(cfg)
    failed = [r for r in records if r["error"] is not None]
    assert [(r["cell_index"], r["trial_index"]) for r in failed] == [(0, 1), (1, 1)]
    assert all(r["error"] == "DegenerateMatrix: injected failure" for r in failed)
    assert [r for r in records if r["error"] is None] == [
        r for r in expected if r["trial_index"] != 1
    ]


#: Signals so large that the measurements, the estimate or the products
#: A^T y overflow in some trials and not others.
OVERFLOW_CONFIG = dict(experiment="Theorem2Sweep", seed=3, margin=1e307, trials=3)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_each_cell_solves_its_trials_in_one_stacked_call(monkeypatch):
    """A cell's trials that reach OMP are solved by one run_omps call, even
    where some of them fail there; run_omp is never called."""
    cell, stacked = experiments._cell, experiments.run_omps
    solving, calls, failed = {}, {}, []

    def counted_cell(config, cell_index, count, fields, trials):
        def counted_trials(rngs):
            outcomes = trials(rngs)
            solving[cell_index] = sum(isinstance(o, experiments._OmpTrial) for o in outcomes)
            return outcomes
        return cell(config, cell_index, count, fields, counted_trials)

    def counted_stacked(Y, A, rules):
        cell_index = max(solving)
        calls[cell_index] = calls.get(cell_index, 0) + 1
        assert len(rules) == solving[cell_index]
        traces, failures = stacked(Y, A, rules)
        failed.extend(failures.values())
        return traces, failures

    def alone(*args, **kwargs):
        raise AssertionError("run_omp called")

    cfg = ExperimentConfig(**OVERFLOW_CONFIG)
    _, expected, _ = run_experiment(cfg)
    monkeypatch.setattr(experiments, "_cell", counted_cell)
    monkeypatch.setattr(experiments, "run_omps", counted_stacked)
    monkeypatch.setattr(omp, "run_omp", alone)
    _, records, _ = run_experiment(cfg)
    assert records == expected
    assert not hasattr(experiments, "run_omp")
    assert calls == {c: 1 for c, count in solving.items() if count}
    # the overflowing trials fail in their cells' stacked solves: five whose
    # measurements or estimate overflow, one whose A^T y does
    assert sorted(type(error).__name__ for error in failed) == ["DegenerateMatrix"] + ["DimensionMismatch"] * 5


@pytest.mark.parametrize("name", ["Example1", "Example2", "Example3"])
def test_example_experiments_pass(name):
    _, records, summary = run_experiment(ExperimentConfig(experiment=name, seed=0))
    assert summary["failures"] == 0
    assert records


@pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
def test_summary_echoes_the_seed_only_where_the_experiment_reads_it(name):
    reads_seed = name in ("Theorem1Sweep", "Theorem2Sweep", "Lemma1Suite")
    fields = dict(seed=5, k_values=[1]) if reads_seed else {}
    _, _, summary = run_experiment(ExperimentConfig(experiment=name, **fields))
    expected = ["experiment", "records", "passes", "failures", "cells"]
    assert list(summary) == expected[:1] + ["seed"] * reads_seed + expected[1:]
    assert summary.get("seed", 5) == 5


@pytest.mark.parametrize("name", ["Example2", "Example3"])
def test_example_cell_out_of_range_fails_alone(name):
    # delta 0.8 is outside (0, 1/sqrt(2)), where Examples 2 and 3 are defined
    _, records, summary = run_experiment(ExperimentConfig(experiment=name, deltas=[0.2, 0.8]))
    assert [r["cell_index"] for r in records] == [0, 1]
    assert records[0]["passed"] is True and records[0]["error"] is None
    assert records[1]["passed"] is False
    assert records[1]["error"].startswith("ParameterOutOfRange: ")
    assert records[1]["delta_nominal"] == 0.8
    assert summary["failures"] == 1


# Outputs frozen from the per-iteration least-squares solver (the sweeps and
# Lemma1Suite) and from the per-experiment runners that came before the one
# cell pipeline (the demos, examples and comparison table), compared first on
# the solver columns, for a readable failure, then byte for byte.  The stress
# configs use margin 0.03 so that about half the trials miss the support; the
# demo grids include cells outside the sharp region or at the gamma bound,
# which become error rows.  Regenerate a file only when a change to the
# results is intended:
#     write_experiment_outputs(ExperimentConfig(**GOLDEN[name]), DATA / name)
DATA = Path(__file__).parent / "data"
SWEEP = dict(k_values=[1, 2, 3], delta_fractions=[0.5, 0.855], epsilons=[0.5], trials=20)
STRESS = dict(
    seed=5, k_values=[2, 4], delta_fractions=[0.95], epsilons=[0.5, 2.0], trials=20,
    margin=0.03,
)
GOLDEN = {
    "theorem1_sweep.csv": dict(experiment="Theorem1Sweep", seed=1234, **SWEEP),
    "theorem2_sweep.csv": dict(experiment="Theorem2Sweep", seed=1234, **SWEEP),
    "lemma1_suite.csv": dict(
        experiment="Lemma1Suite", seed=77, k_values=[2, 3], trials=20, m=10, n=7
    ),
    "theorem1_stress.csv": dict(experiment="Theorem1Sweep", **STRESS),
    "theorem2_stress.csv": dict(experiment="Theorem2Sweep", **STRESS),
    "theorem3_demo.csv": dict(
        experiment="Theorem3Demo", k_values=[1, 2, 4], deltas=[0.3, 0.6],
        epsilons=[0.5, 2.0], gamma_fractions=[0.5, 0.9],
    ),
    "theorem4_demo.csv": dict(
        experiment="Theorem4Demo", k_values=[1, 3], delta_fractions=[0.5, 0.99],
        epsilons=[0.5], gamma_fractions=[0.5, 0.9, 1.0],
    ),
    "example1.csv": dict(experiment="Example1"),
    "example2.csv": dict(experiment="Example2", deltas=[0.1, 0.3, 0.5, 0.7]),
    "example3.csv": dict(experiment="Example3"),
    "comparison_table.csv": dict(
        experiment="ComparisonTable", k_values=[1, 2, 3, 5, 10], delta_fractions=[0.5, 0.9]
    ),
}
SOLVER_COLUMNS = [
    "cell_index",
    "trial_index",
    "stop_reason",
    "iterations",
    "first_selected_index",
    "support_found",
    "passed",
    "correlation_gap_iter1",
]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solver_outputs_match_golden(name, tmp_path):
    write_experiment_outputs(ExperimentConfig(**GOLDEN[name]), tmp_path / name)

    def solver_columns(path):
        with open(path, newline="") as fh:
            # the comparison table has no solver columns
            return [[row.get(c) for c in SOLVER_COLUMNS] for row in csv.DictReader(fh)]

    assert solver_columns(tmp_path / name) == solver_columns(DATA / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


def reference_record(config, **fields):
    """A trial record: every column, those not in ``fields`` None."""
    record = dict.fromkeys(TRIAL_COLUMNS)
    record.update(schema_version=TRIAL_SCHEMA, experiment=config.experiment, **fields)
    return record


def reference_captured(config, trial, **fields):
    """``trial()``, or the failed record with ``fields`` if it raises a
    package error."""
    try:
        return trial()
    except OmpSharpError as exc:
        return reference_record(
            config, passed=False, error=f"{type(exc).__name__}: {exc}", **fields
        )


def reference_signal(rng, n, K, magnitude):
    """A random K-sparse signal whose min magnitude is exactly ``magnitude``,
    drawn and built one at a time."""
    support = np.sort(rng.choice(n, size=K, replace=False))
    values = np.zeros(n)
    scales = rng.uniform(1.0, 2.0, size=K)
    scales[rng.integers(0, K)] = 1.0
    values[support] = rng.choice([-1.0, 1.0], size=K) * scales * magnitude
    return SparseSignal(values, sparsity=K)


def reference_sufficiency_trial(config, cell_index, trial_index, K, delta, epsilon, linf):
    """One sufficiency trial as it ran before a cell's trials were batched:
    its own matrix build and exact_ric calls, then the noise, signal and OMP."""
    rng = experiments._rng(config, cell_index, trial_index)
    m, n = config.m, config.n
    A = reference_random_matrix_with_ric(m, n, delta, rng)
    delta_exact = exact_ric(A, K + 1).delta
    if linf:
        delta2 = min(exact_ric(A, 2).delta, delta_exact)
        bound = min_magnitude_threshold_linf(K, delta2, delta_exact, epsilon)
        rule = CorrelationLInf(linf_stopping_threshold(K, delta2, delta_exact, epsilon))
        v = reference_linf_noise(A, epsilon, rng)
        noise_model = NOISE_LINF
        rule_name = f"linf:{epsilon}"
    else:
        delta2 = None
        bound = min_magnitude_threshold_l2(K, delta_exact, epsilon)
        rule = ResidualL2(epsilon)
        v = reference_l2_noise(m, epsilon, rng)
        noise_model = NOISE_L2
        rule_name = f"l2:{epsilon}"
    x = reference_signal(rng, n, K, config.margin * bound)
    trace = run_omp(A @ x.values + v, A, rule)
    fields = experiments._trace_fields(trace, x.support)
    return reference_record(
        config, cell_index=cell_index, trial_index=trial_index, K=K, m=m, n=n,
        delta_nominal=delta, delta_exact=delta_exact, delta2_exact=delta2,
        epsilon=epsilon, min_magnitude=x.min_magnitude(), min_magnitude_bound=bound,
        noise_model=noise_model, rule=rule_name,
        correlation_gap_iter1=experiments._correlation_gap(trace, x.support, n),
        passed=fields["support_recovered"] and fields["iterations"] == K,
        **fields,
    )


def reference_sufficiency(config):
    """The records of a sufficiency sweep, one trial at a time."""
    linf = config.experiment == "Theorem2Sweep"
    cells = [
        (K, delta, epsilon)
        for K in config.k_values
        for delta in config.resolved_deltas(K)
        for epsilon in config.epsilons
    ]
    return [
        reference_captured(
            config,
            lambda: reference_sufficiency_trial(
                config, cell_index, trial_index, K, delta, epsilon, linf
            ),
            cell_index=cell_index, trial_index=trial_index, K=K, m=config.m,
            n=config.n, delta_nominal=delta, epsilon=epsilon,
        )
        for cell_index, (K, delta, epsilon) in enumerate(cells)
        for trial_index in range(config.trials)
    ]


def test_theorem2_clamps_delta2_to_delta_k1(monkeypatch):
    stacked = rip.exact_rics

    def inflated(A, K):
        reports = stacked(A, K)
        if K == 2:
            reports = [dataclasses.replace(r, delta=r.delta + 0.5) for r in reports]
        return reports

    monkeypatch.setattr(rip, "exact_rics", inflated)
    cfg = ExperimentConfig(experiment="Theorem2Sweep", seed=1, k_values=[2, 3], trials=2)
    _, records, _ = run_experiment(cfg)
    assert all(r["delta2_exact"] == r["delta_exact"] is not None for r in records)


SUFFICIENCY_CASES = [
    (dict(experiment=experiment, seed=seed, trials=trials), None)
    for experiment in ("Theorem1Sweep", "Theorem2Sweep")
    for seed in range(5)
    for trials in (1, 2, 3)
] + [
    # raw delta 0.9 is outside the sharp region at K = 3: each trial's tail fails
    (dict(experiment=experiment, seed=3, k_values=[3], deltas=[0.9], trials=3),
     "OutOfSharpRegion")
    for experiment in ("Theorem1Sweep", "Theorem2Sweep")
] + [
    # C(24, 12) exceeds the RIC budget: every trial fails before its tail
    (dict(experiment=experiment, seed=3, k_values=[11], m=24, n=24, trials=2),
     "BudgetExceeded")
    for experiment in ("Theorem1Sweep", "Theorem2Sweep")
] + [
    # 60 matrices of 70 order-4 subsets: the stacked search takes two eigensolves
    (dict(experiment=experiment, seed=5, k_values=[3], trials=60), None)
    for experiment in ("Theorem1Sweep", "Theorem2Sweep")
] + [
    # signals so large that A x + v, or the estimate, overflows in some
    # trials and not others: only those trials fail, as each does alone
    pytest.param(
        OVERFLOW_CONFIG, "DimensionMismatch",
        marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                         "ignore:invalid value:RuntimeWarning"),
    ),
]


@pytest.mark.parametrize("fields, error", SUFFICIENCY_CASES)
def test_batched_sufficiency_matches_per_trial_reference(fields, error):
    config = ExperimentConfig(**fields)
    _, records, _ = run_experiment(config)
    assert records == reference_sufficiency(config)
    if error == "DimensionMismatch":
        assert any(r["error"] is None for r in records)
        assert any(r["error"] == "DimensionMismatch: vector contains non-finite entries"
                   for r in records)
    elif error is not None:
        assert all(r["error"].startswith(error + ":") for r in records)


@pytest.mark.parametrize("experiment", ["Theorem1Sweep", "Theorem2Sweep"])
def test_batched_sufficiency_matches_reference_across_many_chunks(experiment, monkeypatch):
    # two subset blocks an eigensolve: every stacked search spans many chunks
    monkeypatch.setattr(rip, "_CHUNK", 2)
    config = ExperimentConfig(experiment=experiment, seed=8, trials=5)
    _, records, _ = run_experiment(config)
    assert records == reference_sufficiency(config)


def reference_lemma1_trial(config, cell_index, trial_index, omega_size):
    """One Lemma1Suite trial with its own matrix build and exact_ric call,
    then its signal and subset."""
    rng = experiments._rng(config, cell_index, trial_index)
    cap = 0.9 * (1.0 / math.sqrt(omega_size + 1))
    A = reference_random_matrix_with_ric(config.m, config.n, cap, rng)
    delta = exact_ric(A, omega_size + 1).delta
    support = sorted(int(i) + 1 for i in rng.choice(config.n, size=omega_size, replace=False))
    values = np.zeros(config.n)
    for i in support:
        values[i - 1] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    subset = [
        int(i) for i in rng.choice(support, size=int(rng.integers(0, omega_size)), replace=False)
    ]
    gap = reference_lemma1_gap(A, SparseSignal(values), subset, delta)
    return reference_record(
        config, cell_index=cell_index, trial_index=trial_index, K=omega_size,
        m=config.m, n=config.n, delta_exact=delta,
        support_true="|".join(str(i) for i in support),
        lhs_gap=gap["lhs_gap"], rhs_bound=gap["rhs_bound"],
        passed=gap["lhs_gap"] - gap["rhs_bound"] >= -experiments.LEMMA1_TOLERANCE,
    )


def reference_lemma1(config):
    """The records of a Lemma1Suite run, one trial at a time: each trial
    builds its own matrix and computes its RIC before drawing its signal
    and subset."""
    records = []
    for cell_index, omega_size in enumerate(config.k_values):
        for trial_index in range(config.trials):
            records.append(reference_captured(
                config,
                lambda: reference_lemma1_trial(config, cell_index, trial_index, omega_size),
                cell_index=cell_index, trial_index=trial_index, K=omega_size,
                m=config.m, n=config.n,
            ))
    return records


@pytest.mark.parametrize("seed, trials", [(0, 1), (1, 2), (2, 3), (3, 40)])
def test_batched_lemma1_matches_per_trial_reference(seed, trials):
    config = ExperimentConfig(
        experiment="Lemma1Suite", seed=seed, k_values=[2, 3], m=10, n=7, trials=trials
    )
    _, records, _ = run_experiment(config)
    assert records == reference_lemma1(config)


@settings(max_examples=40, deadline=None)
@given(
    experiment=st.sampled_from(["Theorem1Sweep", "Theorem2Sweep", "Lemma1Suite"]),
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 4),
    trials=st.integers(1, 6),
    epsilon=st.sampled_from([0.05, 0.5, 3.0]),
    margin=st.one_of(st.floats(0.01, 3.0), st.just(1e307)),
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_stacked_trials_equal_one_trial_at_a_time(experiment, seed, K, trials, epsilon, margin):
    """Every record of a stacked cell, failed ones too, is the record of its
    trial run alone."""
    # Lemma1Suite reads no epsilon or margin
    noise = {} if experiment == "Lemma1Suite" else dict(epsilons=[epsilon], margin=margin)
    config = ExperimentConfig(experiment=experiment, seed=seed, k_values=[K], trials=trials,
                              **noise)
    _, records, _ = run_experiment(config)
    if experiment == "Lemma1Suite":
        assert records == reference_lemma1(config)
    else:
        assert records == reference_sufficiency(config)


#: A valid value other than the default for every config field an
#: experiment may read; each must change the records of every experiment
#: that declares it.
NON_DEFAULT = {
    "seed": 1, "k_values": [2], "delta_fractions": [0.6], "deltas": [0.3], "epsilons": [1.0],
    "gamma_fractions": [0.5], "trials": 2, "m": 20, "n": 6, "margin": 2.0,
}


def test_non_default_values_cover_every_field():
    paths = {"experiment", "output_csv", "output_summary"}
    assert set(NON_DEFAULT) == set(ExperimentConfig.__dataclass_fields__) - paths


@pytest.mark.parametrize("experiment", sorted(experiments.EXPERIMENTS))
@pytest.mark.parametrize("name", sorted(NON_DEFAULT))
def test_a_field_changes_the_records_or_is_refused(experiment, name):
    """Every field an experiment declares changes its records; every other
    field set off its default is refused by name."""
    value = NON_DEFAULT[name]
    if name in experiments.EXPERIMENTS[experiment][2]:
        _, default, _ = run_experiment(ExperimentConfig(experiment=experiment))
        _, changed, _ = run_experiment(ExperimentConfig(experiment=experiment, **{name: value}))
        assert changed != default
    else:
        with pytest.raises(ParameterOutOfRange, match=f"does not read config fields .*'{name}'"):
            ExperimentConfig(experiment=experiment, **{name: value})


@pytest.mark.parametrize("fields, refused", [
    (dict(experiment="ComparisonTable", trials=50, m=30, n=20, gamma_fractions=[0.1],
          margin=9.0, seed=7), ["seed", "gamma_fractions", "trials", "m", "n", "margin"]),
    (dict(experiment="Example1", trials=9, epsilons=[3.0], k_values=[4]),
     ["k_values", "epsilons", "trials"]),
])
def test_fields_an_experiment_ignores_are_refused(fields, refused):
    with pytest.raises(ParameterOutOfRange) as info:
        ExperimentConfig(**fields)
    assert str(info.value) == f"{fields['experiment']} does not read config fields {refused}"
    # a field at its default, given or not, is no setting
    ExperimentConfig(experiment="ComparisonTable", trials=1, margin=1.1, seed=0)


def test_deltas_and_delta_fractions_are_not_set_together():
    with pytest.raises(ParameterOutOfRange, match="not both"):
        ExperimentConfig(experiment="Theorem1Sweep", deltas=[0.3], delta_fractions=[0.6])
    ExperimentConfig(experiment="Theorem1Sweep", deltas=[0.3], delta_fractions=[0.5, 0.9])

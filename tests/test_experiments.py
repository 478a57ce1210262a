import csv
import json
import math
from pathlib import Path

import pytest

from omp_sharp import experiments
from omp_sharp.errors import DegenerateMatrix, ParameterOutOfRange
from omp_sharp.experiments import (
    COMPARISON_COLUMNS,
    TRIAL_COLUMNS,
    TRIAL_SCHEMA,
    ExperimentConfig,
    run_experiment,
    write_experiment_outputs,
)


def test_config_validation():
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig(experiment="NoSuchThing")
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig(experiment="Theorem1Sweep", k_values=[])
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig(experiment="Theorem1Sweep", delta_fractions=[1.5])
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig(experiment="Theorem1Sweep", trials=0)
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig.from_json_dict({"experiment": "Example1", "bogus": 1})
    with pytest.raises(ParameterOutOfRange):
        ExperimentConfig(experiment="Example1", seed=-1)
    for name in ("Theorem1Sweep", "Theorem2Sweep", "Lemma1Suite"):
        with pytest.raises(ParameterOutOfRange):
            ExperimentConfig(experiment=name, k_values=[1, 8], n=8)
        ExperimentConfig(experiment=name, k_values=[1, 7], n=8)
    # the failure demos size their matrices from K alone
    ExperimentConfig(experiment="Theorem3Demo", k_values=[9], n=8)


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
    cfg = ExperimentConfig(experiment="Example1", delta_fractions=[0.5])
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


def failing_once(monkeypatch, module, name, call):
    """Make the ``call``-th call (0-based) of ``module.name`` raise."""
    original = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        if len(calls) == call + 1:
            raise DegenerateMatrix("injected failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)


@pytest.mark.parametrize(
    "experiment, function, call, fields",
    [
        ("Lemma1Suite", "lemma1_gap", 3, {"k_values": [2, 3], "trials": 3, "n": 7}),
        ("Theorem3Demo", "build_counterexample_l2", 2, {"k_values": [1, 2]}),
        ("Theorem4Demo", "build_counterexample_linf", 1, {"k_values": [1, 2]}),
    ],
)
def test_failed_trial_becomes_an_error_row(monkeypatch, experiment, function, call, fields):
    cfg = ExperimentConfig(experiment=experiment, seed=3, **fields)
    _, expected, _ = run_experiment(cfg)
    failing_once(monkeypatch, experiments.inst, function, call)
    _, records, summary = run_experiment(cfg)
    assert len(records) == len(expected)
    failed = records[call]
    assert failed["passed"] is False
    assert failed["error"] == "DegenerateMatrix: injected failure"
    for column in ("cell_index", "trial_index", "K", "m", "n"):
        assert failed[column] == expected[call][column]
    assert records[:call] + records[call + 1 :] == expected[:call] + expected[call + 1 :]
    assert summary["failures"] == 1


@pytest.mark.parametrize("name", ["Example1", "Example2", "Example3"])
def test_example_experiments_pass(name):
    _, records, summary = run_experiment(ExperimentConfig(experiment=name, seed=0))
    assert summary["failures"] == 0
    assert records


# Solver outputs frozen from the per-iteration least-squares solver.  The
# stress configs use margin 0.03 so that about half the trials miss the
# support.  Regenerate a file only when a change to the results is intended:
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
            return [[row[c] for c in SOLVER_COLUMNS] for row in csv.DictReader(fh)]

    assert solver_columns(tmp_path / name) == solver_columns(DATA / name)

"""Self-tests for the benchmark: tiny runs of every workload, corrupted
results counted as failed, and a refusal to run without the program.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from omp_sharp import cli, omp, rip  # noqa: E402

TINY = {
    "sweep_acceptance": {"trials": 3, "lemma_trials": 4},
    "omp_large": {"m": 60, "n": 200, "sparsities": (3, 5, 7)},
    "ric_enum": {"n": 9, "order": 4, "samples": 20},
    "cli_omp_run": {"m": 40, "n": 120, "sparsities": (2, 4, 6)},
}


def no_probe():
    return 0.25


def tiny(name, tmp_path, seed=5):
    return workloads.WORKLOADS[name](seed, tmp_path, **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes(name, trace, tmp_path):
    workload = tiny(name, tmp_path)
    result, details, _ = run.measure(workload, 0.0, trace, probe=no_probe)
    rounds = 2 if trace else 1
    assert result["correct"]
    assert result["failed"] == 0, details["failures"]
    assert result["attempted"] == rounds * len(workload.jobs())
    expected = tracing.METRICS if trace else ("items_per_s", "job_p50_ms", "setup_s",
                                              "peak_rss_mb")
    assert sorted(result["metrics"]) == sorted(expected)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_round_reaches_every_layer_of_its_workload(tmp_path):
    workload = tiny("sweep_acceptance", tmp_path)
    result, _, tracer = run.measure(workload, 0.0, 1, probe=no_probe)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("omp.run_omp.iterations", "linalg.least_squares.calls",
                 "rip.exact_ric.subsets", "instances.random_matrix_with_ric.busy_s",
                 "instances.noise.busy_s", "instances.lemma1_gap.busy_s",
                 "experiments.self_s", "serialize.write_csv.bytes", "cli.self_s"):
        assert metrics[name] > 0, name
    assert tracer.missing == []
    assert not hasattr(cli.main, "__wrapped__")  # untraced again after the run


def test_setup_is_measured_by_fresh_interpreters():
    assert 0.0 < run.setup_probe() < 30.0


def corrupt(monkeypatch, module, name, change):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: change(original(*a, **k)))


def swap_support_index(trace):
    first = trace.iterations[0]
    n = trace.final_estimate.n
    wrong = next(i for i in range(1, n + 1) if i not in trace.final_support)
    moved = omp.OmpIteration(wrong, first.correlations, first.residual_l2,
                             first.correlation_linf)
    values = trace.final_estimate.values.copy()
    values[wrong - 1], values[first.selected_index - 1] = values[first.selected_index - 1], 0.0
    return omp.OmpTrace(
        iterations=(moved,) + trace.iterations[1:],
        final_support=(trace.final_support - {first.selected_index}) | {wrong},
        final_estimate=omp.SparseSignal(values),
        stop_reason=trace.stop_reason,
    )


def perturb_delta(report):
    return rip.RicReport(report.order, report.delta + 1e-6, report.witness_subset,
                         report.witness_eigenvalue)


@pytest.mark.parametrize("name, module, attribute, change", [
    ("omp_large", omp, "run_omp", swap_support_index),
    ("cli_omp_run", cli, "run_omp", swap_support_index),
    ("ric_enum", cli, "exact_ric", perturb_delta),
])
def test_corrupted_results_count_as_failed(name, module, attribute, change, tmp_path,
                                           monkeypatch):
    workload = tiny(name, tmp_path)
    corrupt(monkeypatch, module, attribute, change)
    result, details, _ = run.measure(workload, 0.0, 0, probe=no_probe)
    assert result["failed"] == result["attempted"] == len(workload.jobs())
    assert details["failures"]


def test_corrupted_sweep_rows_count_as_failed(tmp_path, monkeypatch):
    from omp_sharp import experiments

    def drop_one_index(records):
        for record in records:
            if record.get("support_found"):
                record["support_found"] = record["support_found"].split("|")[0] + "|99"
        return records

    original = experiments.EXPERIMENTS["Theorem1Sweep"]
    monkeypatch.setitem(experiments.EXPERIMENTS, "Theorem1Sweep",
                        (lambda config: drop_one_index(original[0](config)), original[1]))
    workload = tiny("sweep_acceptance", tmp_path)
    result, details, _ = run.measure(workload, 0.0, 0, probe=no_probe)
    assert result["failed"] == len(workload.K_VALUES) * len(workload.DELTA_FRACTIONS)
    assert all("Theorem1Sweep" in failure for failure in details["failures"])


def test_sweep_determinism_check_catches_changed_bytes(tmp_path):
    workload = tiny("sweep_acceptance", tmp_path)
    run.measure(workload, 0.0, 0, probe=no_probe)
    workload.first_round["Lemma1Suite K=2"] += b"\n"
    result, details, _ = run.measure(workload, 0.0, 0, probe=no_probe)
    assert result["failed"] == 1
    assert details["failures"] == [
        "round 0 Lemma1Suite K=2: Lemma1Suite K=2: CSV bytes differ between two runs of one seed"]


def test_closed_form_structured_ric_matches_brute_force(tmp_path):
    workload = workloads.RicEnum(3, tmp_path, n=10, order=4, samples=5)
    path, reference = workload.inputs["structured"]
    delta, witnesses = checks.brute_force_ric(reference.A, 4)
    assert witnesses == [(1, 2, 3, 4)] == reference.known[4][1]
    assert math.isclose(delta, 0.7, abs_tol=1e-12)


def test_brute_force_agrees_with_the_program():
    A = np.random.default_rng(8).standard_normal((7, 9))
    for order in (1, 2, 3):
        report = rip.exact_ric(A, order)
        delta, witnesses = checks.brute_force_ric(A, order)
        assert witnesses == [report.witness_subset]
        assert math.isclose(delta, report.delta, abs_tol=1e-12)


def test_sufficiency_bounds_match_the_paper_at_a_known_point():
    # K = 3, delta = 0.25: 2 * 0.5 / (1 - 2 * 0.25) = 2
    assert math.isclose(checks.l2_min_magnitude_bound(3, 0.25, 0.5), 2.0)
    # with delta_2 = 0.25 as well: 4 * (1 + sqrt(1.25 * 3 / 0.75)) * 0.5
    assert math.isclose(checks.linf_min_magnitude_bound(3, 0.25, 0.25, 0.5),
                        2.0 * (1.0 + math.sqrt(5.0)))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable if c == "python3" else c for c in command]
        + ["--workload", "omp_large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

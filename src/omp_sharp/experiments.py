"""Seeded experiment sweeps with CSV/JSON output.

Each experiment walks a parameter grid, derives one RNG per (cell, trial)
from the root seed by counter-based splitting, and emits one flat record per
trial.  Support recovery is always re-derived from the trace by an
independent set comparison, never trusted from the solver.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import instances as inst
from .errors import (
    DegenerateDenominator,
    OmpSharpError,
    ParameterOutOfRange,
    ParseError,
)
from .omp import (
    CorrelationLInf,
    FixedIterations,
    ResidualL2,
    SparseSignal,
    StoppingRule,
    linf_stopping_threshold,
    min_magnitude_threshold_l2,
    min_magnitude_threshold_linf,
    prior_art_thresholds,
    run_omp,
    run_omps,
)
from .rip import exact_ric, exact_rics
from .serialize import dumps_json, write_csv

TRIAL_SCHEMA = "omp-sharp-trials-1"
COMPARISON_SCHEMA = "omp-sharp-comparison-1"

#: Absolute slack of the Lemma 1 pass test: a trial passes when
#: lhs_gap >= rhs_bound - LEMMA1_TOLERANCE.
LEMMA1_TOLERANCE = 1e-10

# Experiments that draw an m x n matrix with orthonormal-column embedding,
# so n must be at most m, and enumerate its RIC of order K+1, so every K
# must be at most n - 1.
_MATRIX_EXPERIMENTS = ("Theorem1Sweep", "Theorem2Sweep", "Lemma1Suite")

TRIAL_COLUMNS = [
    "schema_version",
    "experiment",
    "cell_index",
    "trial_index",
    "K",
    "m",
    "n",
    "delta_nominal",
    "delta_exact",
    "delta2_exact",
    "epsilon",
    "gamma",
    "min_magnitude",
    "min_magnitude_bound",
    "noise_model",
    "rule",
    "stop_reason",
    "iterations",
    "first_selected_index",
    "support_true",
    "support_found",
    "support_recovered",
    "correlation_gap_iter1",
    "lhs_gap",
    "rhs_bound",
    "passed",
    "error",
]

COMPARISON_COLUMNS = [
    "schema_version",
    "K",
    "delta",
    "epsilon",
    "sharp_ric_bound",
    "prior_ric_bound",
    "sharp_min_magnitude",
    "prior_min_magnitude",
    "ric_inequality_holds",
    "min_magnitude_inequality_holds",
]


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value):
    return isinstance(value, str)


#: JSON type of each ExperimentConfig field: (test on the value, or on each
#: entry of a list; whether the field is a list; whether null is allowed).
_FIELD_TYPES = {
    "experiment": (_is_str, False, False),
    "seed": (_is_int, False, False),
    "k_values": (_is_int, True, False),
    "delta_fractions": (_is_real, True, False),
    "deltas": (_is_real, True, True),
    "epsilons": (_is_real, True, False),
    "gamma_fractions": (_is_real, True, False),
    "trials": (_is_int, False, False),
    "m": (_is_int, False, False),
    "n": (_is_int, False, False),
    "margin": (_is_real, False, False),
    "output_csv": (_is_str, False, True),
    "output_summary": (_is_str, False, True),
}


@dataclass
class ExperimentConfig:
    """Grid and seed for one experiment run.

    ``delta_fractions`` are interpreted as delta = fraction / sqrt(K+1), so a
    grid stays inside the theorem premises for every K; ``deltas`` overrides
    with raw values when present.
    """

    experiment: str
    seed: int = 0
    k_values: list = field(default_factory=lambda: [1, 2, 3])
    delta_fractions: list = field(default_factory=lambda: [0.5, 0.9])
    deltas: list = None
    epsilons: list = field(default_factory=lambda: [0.5])
    gamma_fractions: list = field(default_factory=lambda: [0.9])
    trials: int = 1
    m: int = 14
    n: int = 8
    margin: float = 1.1
    output_csv: str = None
    output_summary: str = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ParameterOutOfRange(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {sorted(EXPERIMENTS)}"
            )
        for name in ("k_values", "delta_fractions", "epsilons", "gamma_fractions"):
            if not getattr(self, name):
                raise ParameterOutOfRange(f"{name} must be non-empty")
        if self.seed < 0:
            raise ParameterOutOfRange(f"seed must be >= 0, got {self.seed}")
        if any(k < 1 for k in self.k_values):
            raise ParameterOutOfRange("k_values must be >= 1")
        if self.experiment in _MATRIX_EXPERIMENTS and max(self.k_values) >= self.n:
            raise ParameterOutOfRange(
                f"k_values must be <= n - 1 = {self.n - 1} for {self.experiment}"
            )
        if self.experiment in _MATRIX_EXPERIMENTS and self.n > self.m:
            raise ParameterOutOfRange(
                f"need n <= m for {self.experiment}, got {self.m}x{self.n}"
            )
        if any(not 0.0 < f < 1.0 for f in self.delta_fractions):
            raise ParameterOutOfRange("delta_fractions must lie in (0, 1)")
        if self.deltas is not None and any(not 0.0 < d < 1.0 for d in self.deltas):
            raise ParameterOutOfRange("deltas must lie in (0, 1)")
        if self.trials < 1:
            raise ParameterOutOfRange("trials must be >= 1")

    @classmethod
    def from_json_dict(cls, doc):
        """Config from a parsed JSON document.

        A document that is not an object is a ParseError; an unknown or
        missing field, or a field of the wrong JSON type, is a
        ParameterOutOfRange.
        """
        if not isinstance(doc, dict):
            raise ParseError(
                f"experiment config must be a JSON object, got {type(doc).__name__}"
            )
        unknown = set(doc) - set(_FIELD_TYPES)
        if unknown:
            raise ParameterOutOfRange(f"unknown config fields: {sorted(unknown)}")
        if "experiment" not in doc:
            raise ParameterOutOfRange("config field 'experiment' is required")
        for name, value in doc.items():
            valid, is_list, nullable = _FIELD_TYPES[name]
            if value is None and nullable:
                continue
            if is_list:
                ok = isinstance(value, list) and all(valid(v) for v in value)
            else:
                ok = valid(value)
            if not ok:
                raise ParameterOutOfRange(
                    f"config field {name!r} has the wrong type: {value!r}"
                )
        return cls(**doc)

    def resolved_deltas(self, K):
        if self.deltas is not None:
            return list(self.deltas)
        return [f / math.sqrt(K + 1) for f in self.delta_fractions]


def _rng(config, cell_index, trial_index):
    return np.random.default_rng([config.seed, cell_index, trial_index])


def _record(config, **kwargs):
    record = {column: None for column in TRIAL_COLUMNS}
    record["schema_version"] = TRIAL_SCHEMA
    record["experiment"] = config.experiment
    record.update(kwargs)
    return record


def _failed(config, exc, **fields):
    """The record of a trial that raised ``exc``."""
    return _record(config, passed=False, error=f"{type(exc).__name__}: {exc}", **fields)


def _captured(config, trial, **fields):
    """The record of ``trial()``; an OmpSharpError becomes a failed record
    with ``fields`` and the error instead, so one bad trial does not sink
    the run."""
    try:
        return trial()
    except OmpSharpError as exc:
        return _failed(config, exc, **fields)


class _OmpTrial(NamedTuple):
    """A trial that ends in OMP: its problem, and ``finish(trace)``, which
    makes its record from the trace."""

    A: np.ndarray
    y: np.ndarray
    rule: StoppingRule
    finish: Callable


def _cell_records(config, cell_index, fields, stacked, trial):
    """The results of one cell, its trials worked through as one stack.

    ``stacked(rngs)`` draws from each trial's generator what the trial
    draws first and returns sequences with one entry per trial, such as the
    matrices and their RICs, computed for the whole cell at once; an
    OmpSharpError there fails every trial, as it would fail each alone.
    ``trial(trial_index, rng, *entries)`` then draws the rest of each trial
    and returns its result; an OmpSharpError fails that trial alone.
    """
    trials = range(config.trials)
    rngs = [_rng(config, cell_index, t) for t in trials]
    try:
        entries = stacked(rngs)
    except OmpSharpError as exc:
        return [
            _failed(config, exc, cell_index=cell_index, trial_index=t, **fields)
            for t in trials
        ]
    return [
        _captured(
            config,
            lambda: trial(t, rng, *entry),
            cell_index=cell_index,
            trial_index=t,
            **fields,
        )
        for t, rng, *entry in zip(trials, rngs, *entries)
    ]


def _support_string(support):
    return "|".join(str(i) for i in sorted(support))


def _trace_fields(trace, true_support):
    """Fields derived from a finished trace; recovery is an independent set
    comparison against the true support."""
    first = trace.iterations[0].selected_index if trace.iterations else None
    return {
        "stop_reason": trace.stop_reason,
        "iterations": len(trace.iterations),
        "first_selected_index": first,
        "support_true": _support_string(true_support),
        "support_found": _support_string(trace.final_support),
        "support_recovered": set(trace.final_support) == set(true_support),
    }


def _correlation_gap(trace, true_support, n):
    if not trace.iterations:
        return None
    magnitudes = np.abs(trace.iterations[0].correlations)
    on = [magnitudes[i - 1] for i in true_support]
    off = [magnitudes[i - 1] for i in range(1, n + 1) if i not in true_support]
    if not on or not off:
        return None
    return float(max(on) - max(off))


_SIGNS = np.array([-1.0, 1.0])


def _random_signal(rng, n, K, magnitude):
    """Random K-sparse signal whose min magnitude is exactly ``magnitude``."""
    support = np.sort(rng.choice(n, size=K, replace=False))
    values = np.zeros(n)
    scales = rng.uniform(1.0, 2.0, size=K)
    scales[rng.integers(0, K)] = 1.0
    # the draw of rng.choice([-1.0, 1.0], size=K), without its argument handling
    signs = _SIGNS[rng.integers(0, 2, size=K)]
    values[support] = signs * scales * magnitude
    return SparseSignal(values, sparsity=K)


def _sufficiency_trial(config, cell_index, trial_index, rng, A, delta_exact, delta2,
                       K, delta, epsilon, linf):
    """One trial once its matrix ``A`` and its constants are known: the
    noise and the signal drawn from ``rng``, as an _OmpTrial."""
    m, n = config.m, config.n
    if linf:
        bound = min_magnitude_threshold_linf(K, delta2, delta_exact, epsilon)
        rule = CorrelationLInf(
            linf_stopping_threshold(K, delta2, delta_exact, epsilon)
        )
        v = inst.sample_linf_noise(A, epsilon, rng)
        noise_model = inst.NOISE_LINF
        rule_name = f"linf:{epsilon}"
    else:
        bound = min_magnitude_threshold_l2(K, delta_exact, epsilon)
        rule = ResidualL2(epsilon)
        v = inst.sample_l2_noise(m, epsilon, rng)
        noise_model = inst.NOISE_L2
        rule_name = f"l2:{epsilon}"
    x = _random_signal(rng, n, K, config.margin * bound)

    def finish(trace):
        fields = _trace_fields(trace, x.support)
        return _record(
            config,
            cell_index=cell_index,
            trial_index=trial_index,
            K=K,
            m=m,
            n=n,
            delta_nominal=delta,
            delta_exact=delta_exact,
            delta2_exact=delta2,
            epsilon=epsilon,
            min_magnitude=x.min_magnitude(),
            min_magnitude_bound=bound,
            noise_model=noise_model,
            rule=rule_name,
            correlation_gap_iter1=_correlation_gap(trace, x.support, n),
            passed=fields["support_recovered"] and fields["iterations"] == K,
            **fields,
        )

    return _OmpTrial(A, A @ x.values + v, rule, finish)


def _sufficiency_cell(config, cell_index, K, delta, epsilon, linf):
    """The records of one cell: the cell's matrices and their RICs
    (delta_{K+1}, and delta_2 clamped to it under linf noise) stacked, then
    each trial's noise and signal, then OMP on all the trials that got that
    far, in one run_omps call.  The records are those of running each trial
    alone."""
    fields = dict(K=K, m=config.m, n=config.n, delta_nominal=delta, epsilon=epsilon)

    def stacked(rngs):
        A = inst.random_matrices_with_ric(config.m, config.n, delta, rngs)
        deltas = [report.delta for report in exact_rics(A, K + 1)]
        deltas2 = [None] * len(rngs)
        if linf:
            deltas2 = [min(r.delta, d) for r, d in zip(exact_rics(A, 2), deltas)]
        return A, deltas, deltas2

    records = _cell_records(
        config, cell_index, fields, stacked,
        lambda t, rng, A, delta_exact, delta2: _sufficiency_trial(
            config, cell_index, t, rng, A, delta_exact, delta2, K, delta, epsilon, linf
        ),
    )
    solving = [(t, r) for t, r in enumerate(records) if isinstance(r, _OmpTrial)]
    if not solving:
        return records
    try:
        traces = run_omps(
            np.array([p.y for _, p in solving]),
            np.array([p.A for _, p in solving]),
            [p.rule for _, p in solving],
        )
    except OmpSharpError:
        # One failing problem (measurements that overflowed, say) fails the
        # whole stack; solved one at a time, it fails only its own trial.
        for t, problem in solving:
            records[t] = _captured(
                config,
                lambda: problem.finish(run_omp(problem.y, problem.A, problem.rule)),
                cell_index=cell_index, trial_index=t, **fields,
            )
        return records
    for (t, problem), trace in zip(solving, traces):
        records[t] = problem.finish(trace)
    return records


def _run_sufficiency(config, linf):
    cells = []
    for K in config.k_values:
        for delta in config.resolved_deltas(K):
            for epsilon in config.epsilons:
                cells.append((K, delta, epsilon))
    return [
        record
        for cell_index, (K, delta, epsilon) in enumerate(cells)
        for record in _sufficiency_cell(config, cell_index, K, delta, epsilon, linf)
    ]


def run_theorem1_sweep(config):
    return _run_sufficiency(config, linf=False)


def run_theorem2_sweep(config):
    return _run_sufficiency(config, linf=True)


def _failure_trial(config, cell_index, K, delta, epsilon, fraction, linf):
    if linf:
        gamma = fraction * inst.linf_gamma_bound(K, delta, epsilon)
        instance = inst.build_counterexample_linf(K, delta, epsilon, gamma)
        rule_name = "fixed-linf-demo"
    else:
        gamma = fraction * inst.l2_gamma_bound(K, delta, epsilon)
        instance = inst.build_counterexample_l2(K, delta, epsilon, gamma)
        rule_name = "fixed-l2-demo"
    delta_exact = exact_ric(instance.A, K + 1).delta
    trace = run_omp(instance.measurements(), instance.A, FixedIterations(K))
    fields = _trace_fields(trace, instance.x.support)
    passed = (
        not fields["support_recovered"]
        and fields["first_selected_index"] == K + 1
    )
    return _record(
        config,
        cell_index=cell_index,
        trial_index=0,
        K=K,
        m=K + 1,
        n=K + 1,
        delta_nominal=delta,
        delta_exact=delta_exact,
        epsilon=epsilon,
        gamma=gamma,
        min_magnitude=instance.x.min_magnitude(),
        noise_model=instance.noise_model,
        rule=rule_name,
        correlation_gap_iter1=_correlation_gap(trace, instance.x.support, K + 1),
        passed=passed,
        **fields,
    )


def _run_failure_demo(config, linf):
    cells = []
    for K in config.k_values:
        for delta in config.resolved_deltas(K):
            for epsilon in config.epsilons:
                for fraction in config.gamma_fractions:
                    cells.append((K, delta, epsilon, fraction))
    return [
        _captured(
            config,
            lambda: _failure_trial(config, cell_index, K, delta, epsilon, fraction, linf),
            cell_index=cell_index,
            trial_index=0,
            K=K,
            m=K + 1,
            n=K + 1,
            delta_nominal=delta,
            epsilon=epsilon,
        )
        for cell_index, (K, delta, epsilon, fraction) in enumerate(cells)
    ]


def run_theorem3_demo(config):
    return _run_failure_demo(config, linf=False)


def run_theorem4_demo(config):
    return _run_failure_demo(config, linf=True)


def _lemma1_trial(config, cell_index, trial_index, omega_size, rng, A, delta):
    support = sorted(
        int(i) + 1 for i in rng.choice(config.n, size=omega_size, replace=False)
    )
    values = np.zeros(config.n)
    for i in support:
        values[i - 1] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    x = SparseSignal(values)
    subset = [
        int(i)
        for i in rng.choice(
            support, size=int(rng.integers(0, omega_size)), replace=False
        )
    ]
    gap = inst.lemma1_gap(A, x, subset, delta)
    return _record(
        config,
        cell_index=cell_index,
        trial_index=trial_index,
        K=omega_size,
        m=config.m,
        n=config.n,
        delta_exact=delta,
        support_true=_support_string(support),
        lhs_gap=gap["lhs_gap"],
        rhs_bound=gap["rhs_bound"],
        passed=gap["lhs_gap"] - gap["rhs_bound"] >= -LEMMA1_TOLERANCE,
    )


def run_lemma1_suite(config):
    """Random instances satisfying the selection-gap premises; a trial passes
    when lhs_gap >= rhs_bound - LEMMA1_TOLERANCE.

    A cell's matrices and their RICs of order |Omega| + 1 are computed as
    one stack, as in the sufficiency sweeps; each trial then draws its
    signal and subset from its own generator."""

    def stacked(rngs, omega_size):
        cap = 0.9 * (1.0 / math.sqrt(omega_size + 1))
        A = inst.random_matrices_with_ric(config.m, config.n, cap, rngs)
        return A, [report.delta for report in exact_rics(A, omega_size + 1)]

    records = []
    for cell_index, omega_size in enumerate(config.k_values):
        records += _cell_records(
            config, cell_index,
            dict(K=omega_size, m=config.m, n=config.n),
            lambda rngs: stacked(rngs, omega_size),
            lambda t, rng, A, delta: _lemma1_trial(
                config, cell_index, t, omega_size, rng, A, delta
            ),
        )
    return records


def run_comparison_table(config):
    """Per-(K, delta) rows comparing the sharp-condition RIC and
    minimum-magnitude bounds against the best prior ones."""
    epsilon = config.epsilons[0]
    rows = []
    for K in config.k_values:
        sharp_ric = 1.0 / math.sqrt(K + 1)
        for delta in config.resolved_deltas(K):
            try:
                prior = prior_art_thresholds(K, delta, epsilon)
            except DegenerateDenominator:
                # the prior guarantee degenerates before the sharp boundary;
                # its magnitude requirement is effectively infinite there
                prior = {
                    "ric_bound": (math.sqrt(4 * K + 1) - 1.0) / (2.0 * K),
                    "min_magnitude": math.inf,
                }
            sharp_min = min_magnitude_threshold_l2(K, delta, epsilon)
            rows.append(
                {
                    "schema_version": COMPARISON_SCHEMA,
                    "K": K,
                    "delta": delta,
                    "epsilon": epsilon,
                    "sharp_ric_bound": sharp_ric,
                    "prior_ric_bound": prior["ric_bound"],
                    "sharp_min_magnitude": sharp_min,
                    "prior_min_magnitude": prior["min_magnitude"],
                    "ric_inequality_holds": prior["ric_bound"] < sharp_ric,
                    "min_magnitude_inequality_holds": prior["min_magnitude"]
                    >= sharp_min,
                }
            )
    return rows


def _example_record(config, cell_index, trial_index, instance, rule, rule_name, expect):
    expected_support, expected_iterations = expect
    trace = run_omp(instance.measurements(), instance.A, rule)
    fields = _trace_fields(trace, instance.x.support)
    passed = (
        set(trace.final_support) == set(expected_support)
        and fields["iterations"] == expected_iterations
    )
    return _record(
        config,
        cell_index=cell_index,
        trial_index=trial_index,
        K=1,
        m=2,
        n=2,
        delta_nominal=instance.metadata["delta"],
        epsilon=instance.epsilon,
        min_magnitude=instance.x.min_magnitude(),
        noise_model=instance.noise_model,
        rule=rule_name,
        correlation_gap_iter1=_correlation_gap(trace, instance.x.support, 2),
        passed=passed,
        **fields,
    )


def run_example1(config):
    """The bare linf rule overshoots to {1, 2}; the corrected rule stops at
    {1} after one iteration."""
    deltas = config.deltas if config.deltas is not None else [0.1, 0.5, 0.9]
    records = []
    for cell_index, delta in enumerate(deltas):
        instance = inst.build_example1(delta, inst.example1_default_a(delta))
        records.append(
            _example_record(
                config, cell_index, 0, instance, CorrelationLInf(1.0), "naive-linf:1",
                expect=({1, 2}, 2),
            )
        )
        threshold = linf_stopping_threshold(1, delta, delta, 1.0)
        records.append(
            _example_record(
                config, cell_index, 1, instance,
                CorrelationLInf(threshold), f"linf:{threshold}",
                expect=({1}, 1),
            )
        )
    return records


def run_example2(config):
    deltas = config.deltas if config.deltas is not None else [0.2, 0.45, 0.65]
    records = []
    for cell_index, delta in enumerate(deltas):
        instance = inst.build_example2(delta, inst.example2_default_a(delta))
        records.append(
            _example_record(
                config, cell_index, 0, instance,
                ResidualL2(instance.epsilon), f"l2:{instance.epsilon}",
                expect=({1}, 1),
            )
        )
    return records


def run_example3(config):
    deltas = config.deltas if config.deltas is not None else [0.2, 0.45, 0.65]
    records = []
    for cell_index, delta in enumerate(deltas):
        instance = inst.build_example3(delta, inst.example3_default_a(delta))
        threshold = linf_stopping_threshold(1, delta, delta, instance.epsilon)
        records.append(
            _example_record(
                config, cell_index, 0, instance,
                CorrelationLInf(threshold), f"linf:{threshold}",
                expect=({1}, 1),
            )
        )
    return records


EXPERIMENTS = {
    "Theorem1Sweep": (run_theorem1_sweep, TRIAL_COLUMNS),
    "Theorem2Sweep": (run_theorem2_sweep, TRIAL_COLUMNS),
    "Theorem3Demo": (run_theorem3_demo, TRIAL_COLUMNS),
    "Theorem4Demo": (run_theorem4_demo, TRIAL_COLUMNS),
    "Lemma1Suite": (run_lemma1_suite, TRIAL_COLUMNS),
    "ComparisonTable": (run_comparison_table, COMPARISON_COLUMNS),
    "Example1": (run_example1, TRIAL_COLUMNS),
    "Example2": (run_example2, TRIAL_COLUMNS),
    "Example3": (run_example3, TRIAL_COLUMNS),
}


def run_experiment(config):
    """Run the configured experiment; returns (columns, records, summary)."""
    runner, columns = EXPERIMENTS[config.experiment]
    records = runner(config)
    summary = summarize(config, columns, records)
    return columns, records, summary


def summarize(config, columns, records):
    if columns is COMPARISON_COLUMNS:
        verdicts = [
            r["ric_inequality_holds"] and r["min_magnitude_inequality_holds"]
            for r in records
        ]
    else:
        verdicts = [bool(r["passed"]) for r in records]
    passes = sum(verdicts)
    cells = {}
    for r, ok in zip(records, verdicts):
        key = r.get("cell_index", r.get("K"))
        cell = cells.setdefault(key, {"trials": 0, "passes": 0})
        cell["trials"] += 1
        cell["passes"] += ok
    return {
        "experiment": config.experiment,
        "seed": config.seed,
        "records": len(records),
        "passes": passes,
        "failures": len(records) - passes,
        "cells": [
            {"cell": key, **value} for key, value in sorted(cells.items())
        ],
    }


def write_experiment_outputs(config, csv_path, summary_path=None):
    """Run the experiment and write the CSV (and optional JSON summary).

    Records are emitted in (cell index, trial index) order so the file is
    byte-identical for a fixed config and seed.
    """
    columns, records, summary = run_experiment(config)
    rows = [[record[c] for c in columns] for record in records]
    write_csv(csv_path, columns, rows)
    if summary_path is not None:
        with open(summary_path, "w") as fh:
            fh.write(dumps_json(summary))
    return summary

"""Seeded experiment sweeps with CSV/JSON output.

Each experiment walks a parameter grid, derives one RNG per (cell, trial)
from the root seed by counter-based splitting, and emits one flat record per
trial.  Support recovery is always re-derived from the trace by an
independent set comparison, never trusted from the solver.
"""

import contextlib
import dataclasses
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import instances as inst
from .errors import (
    DegenerateDenominator,
    OmpSharpError,
    ParameterOutOfRange,
    ParseError,
    check_delta,
    check_epsilon,
    check_order,
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
    prior_art_ric_bound,
    prior_art_thresholds,
    run_omps,
)
from .rip import exact_ric, exact_rics, linf_threshold_rics
from .serialize import remove_output, write_csv, write_json

TRIAL_SCHEMA = "omp-sharp-trials-1"
COMPARISON_SCHEMA = "omp-sharp-comparison-1"

#: Absolute slack of the Lemma 1 pass test: a trial passes when
#: lhs_gap >= rhs_bound - LEMMA1_TOLERANCE.
LEMMA1_TOLERANCE = 1e-10

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
    grid stays inside the theorem premises for every K; ``deltas`` replaces
    them with raw values, so only one of the two may be set.  An experiment
    reads only the fields its EXPERIMENTS entry names (and the output
    paths); any other field must keep its default.
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
        reads = EXPERIMENTS[self.experiment][2] + _EVERY_EXPERIMENT_READS
        defaults = {f.name: f.default if f.default_factory is dataclasses.MISSING
                    else f.default_factory() for f in dataclasses.fields(self)}
        unread = [name for name, default in defaults.items()
                  if name not in reads and getattr(self, name) != default]
        if unread:
            raise ParameterOutOfRange(f"{self.experiment} does not read config fields {unread}")
        if self.deltas is not None and self.delta_fractions != defaults["delta_fractions"]:
            raise ParameterOutOfRange("set deltas or delta_fractions, not both")
        lists = ("k_values", "delta_fractions", "epsilons", "gamma_fractions")
        for name in lists + (("deltas",) if self.deltas is not None else ()):
            if not getattr(self, name):
                raise ParameterOutOfRange(f"{name} must be non-empty")
        # JSON's NaN and Infinity, and overflowing literals such as 1e400,
        # parse to non-finite floats
        for name, values in (("gamma_fractions", self.gamma_fractions), ("margin", [self.margin])):
            if not all(abs(v) <= sys.float_info.max for v in values):
                raise ParameterOutOfRange(f"{name} must be finite, got {getattr(self, name)!r}")
        for K in self.k_values:
            check_order(K, "k_values")
        for name in ("delta_fractions", "deltas"):
            for delta in getattr(self, name) or ():
                check_delta(delta, name, positive=True)
        for epsilon in self.epsilons:
            check_epsilon(epsilon, "epsilons")
        if self.seed < 0:
            raise ParameterOutOfRange(f"seed must be >= 0, got {self.seed}")
        # an experiment that reads m draws an m x n matrix with orthonormal
        # columns, so n must be at most m, and enumerates its RIC of order
        # K+1, so every K must be at most n - 1
        if "m" in reads and max(self.k_values) >= self.n:
            raise ParameterOutOfRange(
                f"k_values must be <= n - 1 = {self.n - 1} for {self.experiment}"
            )
        if "m" in reads and self.n > self.m:
            raise ParameterOutOfRange(
                f"need n <= m for {self.experiment}, got {self.m}x{self.n}"
            )
        if self.trials < 1:
            raise ParameterOutOfRange("trials must be >= 1")
        if not self.margin > 0:
            raise ParameterOutOfRange(f"margin must be > 0, got {self.margin}")

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


def _grid(config, *extra):
    """The (K, delta, epsilon, *extra) values of each cell of a sweep grid,
    in output order; each of ``extra`` is one more list of values to
    cross."""
    return [
        (K, delta, epsilon, *rest)
        for K in config.k_values
        for delta in config.resolved_deltas(K)
        for epsilon in config.epsilons
        for rest in itertools.product(*extra)
    ]


def _records(cells, cell):
    """The records of ``cell(cell_index, *values)`` for each cell's values,
    in order."""
    return [record for index, values in enumerate(cells) for record in cell(index, *values)]


def _attempt(work):
    """``work()``, or the OmpSharpError it raises: a failed trial's outcome
    is its error, so one bad trial does not sink the run."""
    try:
        return work()
    except OmpSharpError as exc:
        return exc


class _OmpTrial(NamedTuple):
    """A trial that ends in OMP: its problem, and ``finish(trace)``, which
    returns the trial's fields from the trace."""

    A: np.ndarray
    y: np.ndarray
    rule: StoppingRule
    finish: Callable


def _cell(config, cell_index, count, fields, trials):
    """The records of one cell of ``count`` trials, each stamped with the
    cell's ``fields`` and its cell and trial index.

    ``trials(rngs)`` runs the cell's trials, given each one's generator, and
    returns each one's outcome: its own fields, an _OmpTrial, or the
    OmpSharpError it failed with.  The trials only draw, each from its own
    generator and in the order it would alone; the cell computes, once
    over the stack of its trials, what the trials would compute one by one:
    the sweeps' matrices, RICs, noise, signals and measurements, and
    Lemma1Suite's gaps.  An OmpSharpError raised by ``trials`` itself, in
    work the trials share, fails every trial, as it would fail each alone.
    The cell's _OmpTrials are solved in one run_omps call; each one's
    outcome is its failure there (measurements that overflowed, say) or
    ``finish`` of its trace.
    """
    rngs = [_rng(config, cell_index, t) for t in range(count)]
    try:
        outcomes = trials(rngs)
    except OmpSharpError as exc:
        outcomes = [exc] * count
    solving = [t for t, outcome in enumerate(outcomes) if isinstance(outcome, _OmpTrial)]
    if solving:
        problems = [outcomes[t] for t in solving]
        traces, failures = run_omps(
            np.array([p.y for p in problems]),
            np.array([p.A for p in problems]),
            [p.rule for p in problems],
        )
        for i, (t, problem, trace) in enumerate(zip(solving, problems, traces)):
            outcomes[t] = failures[i] if i in failures else problem.finish(trace)
    blank = dict.fromkeys(TRIAL_COLUMNS)
    return [
        dict(blank, schema_version=TRIAL_SCHEMA, experiment=config.experiment,
             cell_index=cell_index, trial_index=t, **fields,
             **(outcome if isinstance(outcome, dict)
                else {"passed": False, "error": f"{type(outcome).__name__}: {outcome}"}))
        for t, outcome in enumerate(outcomes)
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


def _omp_trial(A, x, y, stopping_rule, passed, **fields):
    """The _OmpTrial that recovers ``x`` from ``y`` on ``A`` under
    ``stopping_rule``.  Its fields are ``fields``, those of its trace, and
    whether it passed: ``passed(trace_fields)``."""

    def finish(trace):
        found = _trace_fields(trace, x.support)
        return dict(
            min_magnitude=x.min_magnitude(),
            correlation_gap_iter1=_correlation_gap(trace, x.support, x.n),
            passed=passed(found),
            **fields,
            **found,
        )

    return _OmpTrial(A, y, stopping_rule, finish)


_SIGNS = np.array([-1.0, 1.0])


def _signal_draws(rng, n, K):
    """One trial's draws of a random K-sparse signal, in order: its support
    (0-based), its scales in [1, 2), which scale is set to 1, and its signs
    as indices into _SIGNS, the draw of rng.choice([-1.0, 1.0], size=K)
    without its argument handling."""
    return (rng.choice(n, size=K, replace=False), rng.uniform(1.0, 2.0, size=K),
            rng.integers(0, K), rng.integers(0, 2, size=K))


def _sufficiency_rule(K, delta_exact, delta2, epsilon, linf):
    """A trial's minimum-magnitude bound and stopping rule, from its RICs."""
    if linf:
        return (
            min_magnitude_threshold_linf(K, delta2, delta_exact, epsilon),
            CorrelationLInf(linf_stopping_threshold(K, delta2, delta_exact, epsilon)),
        )
    return min_magnitude_threshold_l2(K, delta_exact, epsilon), ResidualL2(epsilon)


def _sufficiency_trials(config, K, delta, epsilon, linf, rngs):
    """The outcomes of a sufficiency cell.  Its matrices and their RICs
    (delta_{K+1}, and delta_2 clamped to it under linf noise) are stacks.
    Each trial then draws its noise and its signal, the signal's magnitude
    ``margin`` times the trial's bound, and the cell scales the noise and
    builds the signals and their measurements as stacked products.  Each
    trial that gets that far is an _OmpTrial."""
    m, n = config.m, config.n
    A = inst.random_matrices_with_ric(m, n, delta, rngs)
    if linf:
        deltas, deltas2 = linf_threshold_rics(A, K)
    else:
        deltas, deltas2 = [report.delta for report in exact_rics(A, K + 1)], [None] * len(rngs)
    rules = [
        _attempt(lambda: _sufficiency_rule(K, d, d2, epsilon, linf))
        for d, d2 in zip(deltas, deltas2)
    ]
    if linf:
        V, failures = inst.linf_noises(rngs, A, epsilon)
    else:
        V, failures = inst.l2_noises(rngs, m, epsilon), {}
    draws = [_attempt(lambda: _signal_draws(rng, n, K)) for rng in rngs]
    # a trial's outcome is its first failure, if any
    outcomes = [
        next((o for o in (rule, failures.get(t), draw) if isinstance(o, OmpSharpError)), None)
        for t, (rule, draw) in enumerate(zip(rules, draws))
    ]
    live = [t for t, outcome in enumerate(outcomes) if outcome is None]
    if not live:
        return outcomes
    # each signal's support ascending, one of its scales 1, and its entries
    # signs * scales * margin * bound
    supports, scales, ones, signs = (np.array(d) for d in zip(*(draws[t] for t in live)))
    rows = np.arange(len(live))[:, None]
    scales[rows[:, 0], ones] = 1.0
    X = np.zeros((len(live), n))
    X[rows, np.sort(supports, axis=1)] = (
        _SIGNS[signs] * scales * (config.margin * np.array([rules[t][0] for t in live]))[:, None]
    )
    # a signal that overflowed makes its measurements overflow, so run_omps
    # fails its trial with the error SparseSignal would raise on it
    Y = (A[live] @ X[:, :, None])[:, :, 0] + V[live]
    noise_model, rule_name = (inst.NOISE_LINF, "linf") if linf else (inst.NOISE_L2, "l2")
    for i, t in enumerate(live):
        bound, rule = rules[t]
        outcomes[t] = _omp_trial(
            A[t], SparseSignal._built(X[i], K), Y[i], rule,
            lambda found: found["support_recovered"] and found["iterations"] == K,
            delta_exact=deltas[t],
            delta2_exact=deltas2[t],
            min_magnitude_bound=bound,
            noise_model=noise_model,
            rule=f"{rule_name}:{epsilon}",
        )
    return outcomes


def _run_sufficiency(config, linf):
    """A cell per (K, delta, epsilon), of ``trials`` trials; OMP runs on all
    the trials that get that far in one run_omps call.  The records are
    those of running each trial alone."""
    return _records(
        _grid(config),
        lambda cell_index, K, delta, epsilon: _cell(
            config, cell_index, config.trials,
            dict(K=K, m=config.m, n=config.n, delta_nominal=delta, epsilon=epsilon),
            lambda rngs: _sufficiency_trials(config, K, delta, epsilon, linf, rngs),
        ),
    )


def _failure_trial(K, delta, epsilon, fraction, kind):
    """The worst-case instance of the noise ``kind`` ("l2" or "linf") at
    ``fraction`` of its gamma bound, as an _OmpTrial of K fixed iterations
    that passes when OMP picks column K+1 first and misses the support."""
    build, gamma_bound = inst.COUNTEREXAMPLES[kind]
    gamma = fraction * gamma_bound(K, delta, epsilon)
    instance = build(K, delta, epsilon, gamma)
    return _omp_trial(
        instance.A, instance.x, instance.measurements(), FixedIterations(K),
        lambda found: (
            not found["support_recovered"] and found["first_selected_index"] == K + 1
        ),
        delta_exact=exact_ric(instance.A, K + 1).delta,
        gamma=gamma,
        noise_model=instance.noise_model,
        rule=f"fixed-{kind}-demo",
    )


def _run_failure_demo(config, kind):
    """A one-trial cell per (K, delta, epsilon, gamma fraction)."""
    return _records(
        _grid(config, config.gamma_fractions),
        lambda cell_index, K, delta, epsilon, fraction: _cell(
            config, cell_index, 1,
            dict(K=K, m=K + 1, n=K + 1, delta_nominal=delta, epsilon=epsilon),
            lambda rngs: [_failure_trial(K, delta, epsilon, fraction, kind)],
        ),
    )


def _lemma1_draws(rng, n, omega_size):
    """One Lemma1Suite trial's draws: a signal on ``omega_size`` random
    entries, each of magnitude in [0.5, 2) and of random sign, and a random
    proper subset of its support."""
    support = sorted(int(i) + 1 for i in rng.choice(n, size=omega_size, replace=False))
    values = np.zeros(n)
    for i in support:
        # the draw of rng.choice([-1.0, 1.0]), without its argument handling
        values[i - 1] = rng.uniform(0.5, 2.0) * _SIGNS[rng.integers(0, 2)]
    subset = [
        int(i)
        for i in rng.choice(support, size=int(rng.integers(0, omega_size)), replace=False)
    ]
    return SparseSignal._built(values), subset


def run_lemma1_suite(config):
    """Random instances satisfying the selection-gap premises; a trial passes
    when lhs_gap >= rhs_bound - LEMMA1_TOLERANCE.

    A cell's matrices and their RICs of order |Omega| + 1 are computed as
    one stack, as in the sufficiency sweeps; each trial then draws its
    signal and subset from its own generator, and the cell computes their
    gaps in one lemma1_gaps call."""

    def trials(omega_size, rngs):
        cap = 0.9 * (1.0 / math.sqrt(omega_size + 1))
        A = inst.random_matrices_with_ric(config.m, config.n, cap, rngs)
        deltas = [report.delta for report in exact_rics(A, omega_size + 1)]
        outcomes = [_attempt(lambda: _lemma1_draws(rng, config.n, omega_size)) for rng in rngs]
        live = [t for t, outcome in enumerate(outcomes) if not isinstance(outcome, OmpSharpError)]
        gaps, failures = inst.lemma1_gaps(
            A[live], [outcomes[t][0] for t in live], [outcomes[t][1] for t in live],
            [deltas[t] for t in live],
        )
        for i, (t, gap) in enumerate(zip(live, gaps)):
            outcomes[t] = failures[i] if i in failures else dict(
                delta_exact=deltas[t],
                support_true=_support_string(outcomes[t][0].support),
                lhs_gap=gap["lhs_gap"],
                rhs_bound=gap["rhs_bound"],
                passed=gap["lhs_gap"] - gap["rhs_bound"] >= -LEMMA1_TOLERANCE,
            )
        return outcomes

    return _records(
        [(omega_size,) for omega_size in config.k_values],
        lambda cell_index, omega_size: _cell(
            config, cell_index, config.trials, dict(K=omega_size, m=config.m, n=config.n),
            lambda rngs: trials(omega_size, rngs),
        ),
    )


def run_comparison_table(config):
    """Per-(K, delta, epsilon) rows comparing the sharp-condition RIC and
    minimum-magnitude bounds against the best prior ones."""
    rows = []
    for K, delta, epsilon in _grid(config):
        sharp_ric = 1.0 / math.sqrt(K + 1)
        try:
            prior = prior_art_thresholds(K, delta, epsilon)
        except DegenerateDenominator:
            # the prior guarantee degenerates before the sharp boundary;
            # its magnitude requirement is effectively infinite there
            prior = {"ric_bound": prior_art_ric_bound(K), "min_magnitude": math.inf}
        sharp_min = min_magnitude_threshold_l2(K, delta, epsilon)
        rows.append(dict(
            schema_version=COMPARISON_SCHEMA, K=K, delta=delta, epsilon=epsilon,
            sharp_ric_bound=sharp_ric, prior_ric_bound=prior["ric_bound"],
            sharp_min_magnitude=sharp_min, prior_min_magnitude=prior["min_magnitude"],
            ric_inequality_holds=prior["ric_bound"] < sharp_ric,
            min_magnitude_inequality_holds=prior["min_magnitude"] >= sharp_min,
        ))
    return rows


def _bare_linf(instance):
    return CorrelationLInf(1.0), "naive-linf:1", "1|2", 2


def _corrected_linf(instance):
    delta = instance.metadata["delta"]
    threshold = linf_stopping_threshold(1, delta, delta, instance.epsilon)
    return CorrelationLInf(threshold), f"linf:{instance.epsilon}", "1", 1


def _l2(instance):
    return ResidualL2(instance.epsilon), f"l2:{instance.epsilon}", "1", 1


#: Each example experiment's default deltas and its trials, each a function
#: of the example's instance that gives (rule, CSV rule label, expected
#: support, expected iteration count).  Under Example 1 the bare linf rule
#: overshoots to {1, 2}; the corrected rule stops at {1} after one
#: iteration.
_EXAMPLE_TRIALS = {
    "Example1": ([0.1, 0.5, 0.9], [_bare_linf, _corrected_linf]),
    "Example2": ([0.2, 0.45, 0.65], [_l2]),
    "Example3": ([0.2, 0.45, 0.65], [_corrected_linf]),
}


def run_example(config):
    """Example1-3: a cell per delta, of a trial per rule of the example on
    its 2x2 instance at the default magnitude.  A trial passes when OMP
    stops on the expected support after the expected iterations.  The
    instance fixes epsilon, so a trial reports it and a cell has none."""
    default_deltas, rules = _EXAMPLE_TRIALS[config.experiment]
    build, default_a = inst.EXAMPLES[config.experiment.lower()]
    deltas = default_deltas if config.deltas is None else config.deltas

    def trial(instance, make_rule):
        rule, rule_name, support, iterations = make_rule(instance)
        return _omp_trial(
            instance.A, instance.x, instance.measurements(), rule,
            lambda found: (
                found["support_found"] == support and found["iterations"] == iterations
            ),
            epsilon=instance.epsilon,
            noise_model=instance.noise_model,
            rule=rule_name,
        )

    def trials(delta):
        instance = build(delta, default_a(delta))
        return [_attempt(lambda: trial(instance, make_rule)) for make_rule in rules]

    return _records(
        [(delta,) for delta in deltas],
        lambda cell_index, delta: _cell(
            config, cell_index, len(rules), dict(K=1, m=2, n=2, delta_nominal=delta),
            lambda rngs: trials(delta),
        ),
    )


#: The fields every experiment reads: its name and its output paths.
_EVERY_EXPERIMENT_READS = ("experiment", "output_csv", "output_summary")
_GRID = ("k_values", "delta_fractions", "deltas", "epsilons")
_SWEEP = _GRID + ("seed", "trials", "m", "n", "margin")
_DEMO = _GRID + ("gamma_fractions",)

#: Each experiment's runner, its CSV columns and the config fields the
#: runner reads.
EXPERIMENTS = {
    "Theorem1Sweep": (functools.partial(_run_sufficiency, linf=False), TRIAL_COLUMNS, _SWEEP),
    "Theorem2Sweep": (functools.partial(_run_sufficiency, linf=True), TRIAL_COLUMNS, _SWEEP),
    "Theorem3Demo": (functools.partial(_run_failure_demo, kind="l2"), TRIAL_COLUMNS, _DEMO),
    "Theorem4Demo": (functools.partial(_run_failure_demo, kind="linf"), TRIAL_COLUMNS, _DEMO),
    "Lemma1Suite": (run_lemma1_suite, TRIAL_COLUMNS, ("seed", "k_values", "trials", "m", "n")),
    "ComparisonTable": (run_comparison_table, COMPARISON_COLUMNS, _GRID),
    "Example1": (run_example, TRIAL_COLUMNS, ("deltas",)),
    "Example2": (run_example, TRIAL_COLUMNS, ("deltas",)),
    "Example3": (run_example, TRIAL_COLUMNS, ("deltas",)),
}


def run_experiment(config):
    """Run the configured experiment; returns (columns, records, summary)."""
    runner, columns, _ = EXPERIMENTS[config.experiment]
    records = runner(config)
    return columns, records, summarize(config, columns, records)


def summarize(config, columns, records):
    if columns is COMPARISON_COLUMNS:
        verdicts = [r["ric_inequality_holds"] and r["min_magnitude_inequality_holds"]
                    for r in records]
    else:
        verdicts = [bool(r["passed"]) for r in records]
    passes = sum(verdicts)
    cells = {}
    for r, ok in zip(records, verdicts):
        key = r.get("cell_index", r.get("K"))
        cell = cells.setdefault(key, {"trials": 0, "passes": 0})
        cell["trials"] += 1
        cell["passes"] += ok
    # the seed is echoed only where the experiment reads it
    seed = {"seed": config.seed} if "seed" in EXPERIMENTS[config.experiment][2] else {}
    return {
        "experiment": config.experiment,
        **seed,
        "records": len(records),
        "passes": passes,
        "failures": len(records) - passes,
        "cells": [{"cell": key, **value} for key, value in sorted(cells.items())],
    }


def write_experiment_outputs(config, csv_path, summary_path=None):
    """Run the experiment and write the CSV (and optional JSON summary).

    Both outputs are opened before the run, the summary first, so a path
    that cannot be written fails before any work, and an unwritable summary
    leaves no CSV behind.  Where the CSV cannot be opened or the run
    raises, the outputs already opened are removed.  Records are emitted in
    (cell index, trial index) order so the file is byte-identical for a
    fixed config and seed.
    """
    opened = []
    try:
        with contextlib.ExitStack() as outputs:
            summary_file = None
            if summary_path is not None:
                summary_file = outputs.enter_context(open(summary_path, "w"))
                opened.append(summary_path)
            # write_csv writes by path; this open only fails early where it would
            open(csv_path, "w").close()
            opened.append(csv_path)
            columns, records, summary = run_experiment(config)
            write_csv(csv_path, columns, [[record[c] for c in columns] for record in records])
            if summary_file is not None:
                write_json(summary, summary_file)
    except BaseException:
        for path in opened:
            remove_output(path)
        raise
    return summary
